"""Optimizers, gradient clipping, and the three training loops: LM
pretraining, NMT training, and deep-fusion finetuning with parameter
freezing."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import decoding, evaluation
from .checkpoint import (
    Checkpoint,
    checkpoint_from_fused,
    checkpoint_from_lm,
    checkpoint_from_nmt,
    param_digests,
    restore_params,
    snapshot_params,
)
from .data import (
    UNK_ID,
    BatchIterator,
    DataError,
    pad_batch,
    pad_mono_batch,
)
from .layers import NoiseConfig, perturb_parameters, restore_parameters
from .models import (
    FusedModel,
    NmtModel,
    RnnLm,
    fused_batch_loss,
    lm_batch_loss,
    nmt_batch_loss,
)
from .tensor import ParameterSet, Tape

logger = logging.getLogger(__name__)


class NumericError(RuntimeError):
    """NaN/Inf encountered in a loss or gradient."""


class StateError(RuntimeError):
    """Optimizer state no longer matches the parameters."""


@dataclass
class TrainConfig:
    batch_size: int = 80
    clip_threshold: float = 5.0
    optimizer: str = "adadelta"
    learning_rate: float = 1e-3  # rmsprop / adam only
    dropout_p: float = 0.0
    weight_noise_std: float = 0.0
    max_updates: int = 10_000
    eval_interval: int = 100
    patience: int = 5
    seed: int = 0
    update_scale: float = 1.0
    dev_beam_width: int = 2
    stop_metric: Optional[float] = None  # halt once the dev metric reaches this

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.clip_threshold <= 0:
            raise ValueError("clip_threshold must be > 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.weight_noise_std < 0.0:
            raise ValueError("weight_noise_std must be >= 0")

    def regularization_at(self, update: int) -> tuple[float, float]:
        """(dropout_p, weight_noise_std) active at a given update index."""
        return self.dropout_p, self.weight_noise_std


@dataclass
class FinetuneConfig(TrainConfig):
    optimizer: str = "adam"
    dropout_p: float = 0.56
    weight_noise_std: float = 0.005
    reg_reduce_after: int = 10_000
    reg_reduce_factor: float = 0.5

    def regularization_at(self, update: int) -> tuple[float, float]:
        """(dropout_p, weight_noise_std) active at a given update index."""
        if update > self.reg_reduce_after:
            return (self.dropout_p * self.reg_reduce_factor,
                    self.weight_noise_std * self.reg_reduce_factor)
        return self.dropout_p, self.weight_noise_std


# ---------------------------------------------------------------------------
# gradient clipping and optimizers
# ---------------------------------------------------------------------------

def clip_gradients(params: ParameterSet, threshold: float) -> float:
    """Renormalize the global gradient L2 norm down to ``threshold``.

    Returns the pre-clip norm."""
    sq = 0.0
    for p in params.trainable():
        g = p.grad.data
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {p.id!r}")
        sq += float((g * g).sum())
    norm = math.sqrt(sq)
    if norm > threshold:
        factor = threshold / norm
        for p in params.trainable():
            p.grad.data *= factor
    return norm


class Optimizer:
    """Per-parameter accumulator state plus an update rule."""

    def __init__(self):
        self._state: dict[str, dict[str, np.ndarray]] = {}

    def _slot(self, p, names) -> dict:
        st = self._state.get(p.id)
        if st is None:
            st = {n: np.zeros_like(p.value.data) for n in names}
            st["_t"] = 0
            self._state[p.id] = st
        for n in names:
            if st[n].shape != p.value.shape:
                raise StateError(
                    f"optimizer state for {p.id!r} has shape "
                    f"{st[n].shape}, parameter has {p.value.shape}")
        return st

    def step(self, params: ParameterSet, scale: float = 1.0) -> None:
        for p in params.trainable():
            delta = self._update(p)
            p.value.data += scale * delta

    def _update(self, p) -> np.ndarray:
        raise NotImplementedError


class Adadelta(Optimizer):
    def __init__(self, rho: float = 0.95, eps: float = 1e-6):
        super().__init__()
        self.rho, self.eps = rho, eps

    def _update(self, p):
        st = self._slot(p, ("eg2", "edx2"))
        g = p.grad.data
        st["eg2"] = self.rho * st["eg2"] + (1 - self.rho) * g * g
        dx = -np.sqrt(st["edx2"] + self.eps) / np.sqrt(st["eg2"] + self.eps) * g
        st["edx2"] = self.rho * st["edx2"] + (1 - self.rho) * dx * dx
        return dx


class RmsProp(Optimizer):
    def __init__(self, lr: float = 1e-3, decay: float = 0.9, eps: float = 1e-6):
        super().__init__()
        self.lr, self.decay, self.eps = lr, decay, eps

    def _update(self, p):
        st = self._slot(p, ("eg2",))
        g = p.grad.data
        st["eg2"] = self.decay * st["eg2"] + (1 - self.decay) * g * g
        return -self.lr * g / np.sqrt(st["eg2"] + self.eps)


class Adam(Optimizer):
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__()
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps

    def _update(self, p):
        st = self._slot(p, ("m", "v"))
        st["_t"] += 1
        t = st["_t"]
        g = p.grad.data
        st["m"] = self.beta1 * st["m"] + (1 - self.beta1) * g
        st["v"] = self.beta2 * st["v"] + (1 - self.beta2) * g * g
        m_hat = st["m"] / (1 - self.beta1 ** t)
        v_hat = st["v"] / (1 - self.beta2 ** t)
        return -self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(name: str, learning_rate: float = 1e-3) -> Optimizer:
    if name == "adadelta":
        return Adadelta()
    if name == "rmsprop":
        return RmsProp(lr=learning_rate)
    if name == "adam":
        return Adam(lr=learning_rate)
    raise ValueError(f"unknown optimizer {name!r}")


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

@dataclass
class EarlyStopState:
    mode: str  # "max" (BLEU) or "min" (perplexity)
    best_metric: float = None  # type: ignore[assignment]
    best_params: dict = None  # type: ignore[assignment]
    best_update: int = 0
    evals_since_improvement: int = 0

    def update(self, metric: float, params: ParameterSet, n_update: int) -> bool:
        better = (self.best_metric is None
                  or (metric > self.best_metric if self.mode == "max"
                      else metric < self.best_metric))
        if better:
            self.best_metric = metric
            self.best_params = snapshot_params(params)
            self.best_update = n_update
            self.evals_since_improvement = 0
        else:
            self.evals_since_improvement += 1
        return better

    def exhausted(self, patience: int) -> bool:
        return self.evals_since_improvement >= patience


# ---------------------------------------------------------------------------
# generic update loop
# ---------------------------------------------------------------------------

@dataclass
class TrainingHistory:
    """Tab-separated log: update index, loss, grad norm, dev metric."""
    lines: list[str] = field(default_factory=list)

    def log(self, update: int, loss: float, gnorm: float,
            dev: Optional[float] = None) -> None:
        dev_s = "" if dev is None else f"{dev:.6f}"
        line = f"{update}\t{loss:.6f}\t{gnorm:.6f}\t{dev_s}"
        self.lines.append(line)
        logger.info(line)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("update\tloss\tgrad_norm\tdev_metric\n")
            for line in self.lines:
                f.write(line + "\n")


def _training_loop(params: ParameterSet, batch_iter: BatchIterator,
                   loss_fn: Callable, eval_fn: Callable[[], float],
                   mode: str, cfg: TrainConfig, start_update: int = 0,
                   ) -> tuple[EarlyStopState, TrainingHistory]:
    opt = make_optimizer(cfg.optimizer, cfg.learning_rate)
    noise_rng = np.random.default_rng(cfg.seed + 1)
    dropout_rng = np.random.default_rng(cfg.seed + 2)
    stop = EarlyStopState(mode=mode)
    history = TrainingHistory()
    stop.update(eval_fn(), params, start_update)
    n_update = start_update
    while n_update < cfg.max_updates:
        for raw in batch_iter.epoch_batches():
            n_update += 1
            p_drop, w_std = cfg.regularization_at(n_update)
            noise = NoiseConfig(dropout_p=p_drop, weight_noise_std=w_std)
            saved = perturb_parameters(params, w_std, noise_rng)
            params.zero_grads()
            with Tape() as tape:
                loss = loss_fn(raw, noise, dropout_rng)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericError(
                    f"training diverged: loss {loss_value} at update {n_update}")
            tape.backward(loss, params)
            restore_parameters(params, saved)
            gnorm = clip_gradients(params, cfg.clip_threshold)
            opt.step(params, scale=cfg.update_scale)
            dev_metric = None
            if n_update % cfg.eval_interval == 0:
                dev_metric = eval_fn()
                stop.update(dev_metric, params, n_update)
            history.log(n_update, loss_value, gnorm, dev_metric)
            reached = (cfg.stop_metric is not None and dev_metric is not None
                       and (dev_metric >= cfg.stop_metric if mode == "max"
                            else dev_metric <= cfg.stop_metric))
            if (n_update >= cfg.max_updates or stop.exhausted(cfg.patience)
                    or reached):
                return stop, history
    return stop, history


# ---------------------------------------------------------------------------
# the three training entry points
# ---------------------------------------------------------------------------

def oov_filter(sentences: Sequence[Sequence[int]],
               max_fraction: float = 0.10) -> list:
    """Drop sentences with strictly more than ``max_fraction`` unknown
    tokens."""
    kept = [s for s in sentences
            if s and sum(1 for t in s if t == UNK_ID) / len(s) <= max_fraction]
    if not kept:
        raise DataError("OOV filtering removed every sentence")
    return kept


def train_lm(lm: RnnLm, mono: Sequence[Sequence[int]],
             dev: Sequence[Sequence[int]], cfg: TrainConfig,
             start_update: int = 0) -> tuple[Checkpoint, TrainingHistory]:
    """Next-token training, early-stopped on dev perplexity."""
    corpus = oov_filter(mono)
    batch_iter = BatchIterator(corpus, cfg.batch_size, seed=cfg.seed)

    def loss_fn(raw, noise, rng):
        return lm_batch_loss(lm, pad_mono_batch(raw))

    def eval_fn():
        return evaluation.perplexity(lm, dev).perplexity

    stop, history = _training_loop(lm.params, batch_iter, loss_fn, eval_fn,
                                   "min", cfg, start_update)
    restore_params(lm.params, stop.best_params)
    ckpt = checkpoint_from_lm(lm, meta={
        "updates": stop.best_update, "best_dev_perplexity": stop.best_metric,
        "seed": cfg.seed})
    return ckpt, history


def train_nmt(model: NmtModel, bitext, dev, cfg: TrainConfig,
              start_update: int = 0) -> tuple[Checkpoint, TrainingHistory]:
    """Minibatch NLL training with clipping, dropout, and weight noise;
    early-stopped on dev BLEU (beam decode of the dev set)."""
    if not dev:
        raise DataError("dev set must be non-empty")
    batch_iter = BatchIterator(list(bitext), cfg.batch_size, seed=cfg.seed)
    beam_cfg = decoding.BeamConfig(beam_width=cfg.dev_beam_width)

    def loss_fn(raw, noise, rng):
        return nmt_batch_loss(model, pad_batch(raw), noise=noise, rng=rng)

    def eval_fn():
        return evaluation.decode_bleu(dev, beam_cfg, nmt=model)

    stop, history = _training_loop(model.params, batch_iter, loss_fn, eval_fn,
                                   "max", cfg, start_update)
    restore_params(model.params, stop.best_params)
    ckpt = checkpoint_from_nmt(model, meta={
        "updates": stop.best_update, "best_dev_bleu": stop.best_metric,
        "seed": cfg.seed})
    return ckpt, history


def finetune_deep_fusion(fm: FusedModel, bitext, dev, cfg: FinetuneConfig,
                         start_update: int = 0,
                         ) -> tuple[Checkpoint, TrainingHistory]:
    """Train only the fused output layer and controller; the NMT and LM
    parameter blocks must be byte-identical afterwards."""
    if not dev:
        raise DataError("dev set must be non-empty")
    frozen = param_digests(fm.params, lambda p: not p.trainable)
    batch_iter = BatchIterator(list(bitext), cfg.batch_size, seed=cfg.seed)
    beam_cfg = decoding.BeamConfig(beam_width=cfg.dev_beam_width, fusion="deep")

    def loss_fn(raw, noise, rng):
        return fused_batch_loss(fm, pad_batch(raw), noise=noise, rng=rng)

    def eval_fn():
        return evaluation.decode_bleu(dev, beam_cfg, fused=fm)

    stop, history = _training_loop(fm.params, batch_iter, loss_fn, eval_fn,
                                   "max", cfg, start_update)
    # only trainable blocks come from the early-stop snapshot; frozen blocks
    # are asserted unchanged below
    for p in fm.params.trainable():
        p.value.data[...] = stop.best_params[p.id]
    after = param_digests(fm.params, lambda p: not p.trainable)
    if after != frozen:
        changed = sorted(k for k in frozen if after.get(k) != frozen[k])
        raise AssertionError(
            f"frozen parameters changed during finetuning: {changed[:5]}")
    ckpt = checkpoint_from_fused(fm, meta={
        "updates": stop.best_update, "best_dev_bleu": stop.best_metric,
        "seed": cfg.seed})
    return ckpt, history
