"""Optimizers, gradient clipping, and one update loop behind the three
training entry points: LM pretraining, NMT training, and deep-fusion
finetuning with parameter freezing."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import decoding, evaluation
from .checkpoint import Checkpoint, param_digests, snapshot_params, to_checkpoint
from .data import (
    UNK_ID,
    BatchIterator,
    DataError,
    pad_batch,
    pad_mono_batch,
    write_lines,
)
from .layers import perturb_parameters, restore_parameters
from .models import (
    FusedModel,
    NmtModel,
    RnnLm,
    fused_batch_loss,
    lm_batch_loss,
    nmt_batch_loss,
)
from .tensor import NumericError, ParameterSet, Tape

logger = logging.getLogger(__name__)


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
        # each float check is written so that NaN fails it
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.clip_threshold > 0:
            raise ValueError("clip_threshold must be > 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        for key in ("weight_noise_std", "learning_rate", "update_scale"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key} must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.dev_beam_width < 1:
            raise ValueError("dev_beam_width must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.reg_reduce_factor <= 1.0:
            raise ValueError("reg_reduce_factor must be in [0, 1], got "
                             f"{self.reg_reduce_factor}")

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


def _adadelta(st, g, lr, t):
    """Adadelta (Zeiler 2012, arXiv 1212.5701); ignores ``lr``."""
    rho, eps = 0.95, 1e-6
    st["eg2"] = rho * st.get("eg2", 0.0) + (1 - rho) * g * g
    dx = -np.sqrt(st.get("edx2", 0.0) + eps) / np.sqrt(st["eg2"] + eps) * g
    st["edx2"] = rho * st.get("edx2", 0.0) + (1 - rho) * dx * dx
    return dx


def _rmsprop(st, g, lr, t):
    """RMSProp (Tieleman & Hinton 2012)."""
    decay, eps = 0.9, 1e-6
    st["eg2"] = decay * st.get("eg2", 0.0) + (1 - decay) * g * g
    return -lr * g / np.sqrt(st["eg2"] + eps)


def _adam(st, g, lr, t):
    """Adam (Kingma & Ba 2014, arXiv 1412.6980), bias-corrected at ``t``.
    Its slots are allocated once and updated in place, each product in the
    order of m = beta1 m + (1 - beta1) g, v = beta2 v + ((1 - beta2) g) g."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if not st:
        st["m"], st["v"] = np.zeros_like(g), np.zeros_like(g)
    m, v, gg = st["m"], st["v"], (1 - beta2) * g
    m *= beta1
    m += (1 - beta1) * g
    gg *= g
    v *= beta2
    v += gg
    den = v / (1 - beta2 ** t)
    np.sqrt(den, out=den)
    den += eps
    delta = m / (1 - beta1 ** t)
    delta *= -lr
    delta /= den
    return delta


# config name -> rule (state, grad, learning rate, step) -> delta; a rule
# reads a state slot it has not yet written as 0.0
OPTIMIZERS: dict[str, Callable[[dict, np.ndarray, float, int], np.ndarray]] = {
    "adadelta": _adadelta,
    "rmsprop": _rmsprop,
    "adam": _adam,
}


class Optimizer:
    """An ``OPTIMIZERS`` rule with its state: the step count ``t`` and the
    ``state[param id][slot]`` arrays."""

    def __init__(self, name: str, learning_rate=TrainConfig.learning_rate):
        if name not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {name!r}")
        self.rule = OPTIMIZERS[name]
        self.learning_rate = learning_rate
        self.t = 0
        self.state: dict[str, dict[str, np.ndarray]] = {}

    def step(self, params: ParameterSet, scale: float = 1.0) -> None:
        self.t += 1
        for p in params.trainable():
            st = self.state.setdefault(p.id, {})
            for slot in st.values():
                if slot.shape != p.value.shape:
                    raise StateError(
                        f"optimizer state for {p.id!r} has shape "
                        f"{slot.shape}, parameter has {p.value.shape}")
            delta = self.rule(st, p.grad.data, self.learning_rate, self.t)
            p.value.data += scale * delta


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
            self.best_params = snapshot_params(params.trainable())
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
        write_lines(path, ["update\tloss\tgrad_norm\tdev_metric", *self.lines])


def _train(model, data: Sequence, loss_fn: Callable,
           eval_fn: Callable[[], float], mode: str, metric: str,
           cfg: TrainConfig, start_update: int,
           ) -> tuple[Checkpoint, TrainingHistory]:
    """The update loop behind all three entry points: seeded minibatches of
    ``data``, dev early stopping on ``eval_fn`` (``mode`` "max" or "min"),
    then the best snapshot as a checkpoint with the best dev value stored
    under ``metric``.  Frozen parameters must come out byte-identical."""
    params = model.params
    frozen = param_digests(params, lambda p: not p.trainable)
    batch_iter = BatchIterator(list(data), cfg.batch_size, seed=cfg.seed)
    opt = Optimizer(cfg.optimizer, cfg.learning_rate)
    noise_rng = np.random.default_rng(cfg.seed + 1)
    dropout_rng = np.random.default_rng(cfg.seed + 2)
    stop = EarlyStopState(mode=mode)
    history = TrainingHistory()
    stop.update(eval_fn(), params, start_update)
    batches = itertools.chain.from_iterable(
        batch_iter.epoch_batches() for _ in itertools.count())
    for n_update, raw in zip(range(start_update + 1, cfg.max_updates + 1),
                             batches):
        p_drop, w_std = cfg.regularization_at(n_update)
        saved = perturb_parameters(params, w_std, noise_rng)
        try:  # an update that raises must not leave the noise in place
            params.zero_grads()
            with Tape() as tape:
                loss = loss_fn(raw, p_drop, dropout_rng)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericError(f"training diverged: loss {loss_value} "
                                   f"at update {n_update}")
            tape.backward(loss, params)
        finally:
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
        if stop.exhausted(cfg.patience) or reached:
            break
    # only trainable blocks come from the early-stop snapshot; frozen blocks
    # are asserted unchanged
    for p in params.trainable():
        p.value.data[...] = stop.best_params[p.id]
    after = param_digests(params, lambda p: not p.trainable)
    if after != frozen:
        changed = sorted(k for k in frozen if after.get(k) != frozen[k])
        raise AssertionError(
            f"frozen parameters changed during training: {changed[:5]}")
    ckpt = to_checkpoint(model, meta={
        "updates": stop.best_update, metric: stop.best_metric, "seed": cfg.seed})
    return ckpt, history


# ---------------------------------------------------------------------------
# the three training entry points
# ---------------------------------------------------------------------------

def oov_filter(sentences: Sequence[Sequence[int]]) -> list:
    """Drop sentences with strictly more than 10 % unknown tokens."""
    kept = [s for s in sentences
            if s and sum(1 for t in s if t == UNK_ID) / len(s) <= 0.10]
    if not kept:
        raise DataError("OOV filtering removed every sentence")
    return kept


def train_lm(lm: RnnLm, mono: Sequence[Sequence[int]],
             dev: Sequence[Sequence[int]], cfg: TrainConfig,
             start_update: int = 0) -> tuple[Checkpoint, TrainingHistory]:
    """Next-token training, early-stopped on dev perplexity."""
    return _train(
        lm, oov_filter(mono),
        lambda raw, p_drop, rng: lm_batch_loss(lm, pad_mono_batch(raw)),
        lambda: evaluation.perplexity(lm, dev).perplexity,
        "min", "best_dev_perplexity", cfg, start_update)


def train_nmt(model: NmtModel, bitext, dev, cfg: TrainConfig,
              start_update: int = 0) -> tuple[Checkpoint, TrainingHistory]:
    """Minibatch NLL training with clipping, dropout, and weight noise;
    early-stopped on dev BLEU (beam decode of the dev set)."""
    if not dev:
        raise DataError("dev set must be non-empty")
    beam_cfg = decoding.BeamConfig(beam_width=cfg.dev_beam_width)
    return _train(
        model, bitext,
        lambda raw, p_drop, rng: nmt_batch_loss(model, pad_batch(raw),
                                                p_drop, rng),
        lambda: evaluation.decode_bleu(dev, beam_cfg, nmt=model),
        "max", "best_dev_bleu", cfg, start_update)


def finetune_deep_fusion(fm: FusedModel, bitext, dev, cfg: FinetuneConfig,
                         start_update: int = 0,
                         ) -> tuple[Checkpoint, TrainingHistory]:
    """Train only the fused output layer and controller; the NMT and LM
    parameter blocks must be byte-identical afterwards."""
    if not dev:
        raise DataError("dev set must be non-empty")
    beam_cfg = decoding.BeamConfig(beam_width=cfg.dev_beam_width, fusion="deep")
    return _train(
        fm, bitext,
        lambda raw, p_drop, rng: fused_batch_loss(fm, pad_batch(raw),
                                                  p_drop, rng),
        lambda: evaluation.decode_bleu(dev, beam_cfg, fused=fm),
        "max", "best_dev_bleu", cfg, start_update)
