"""Parameterized building blocks: GRU and LSTM cells, embeddings, and the
two-way-maxout deep output layer.

Cells are immutable bundles of parameters; the ``*_step`` functions are pure
given (parameters, state, input) and are differentiable through the tape.
All step functions are batched: states and inputs are (B, d) matrices, so a
single sentence is simply B == 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Parameter, ParameterSet, Tensor


def orthonormal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random d x d orthonormal matrix (QR of a Gaussian draw)."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    # fix signs so the distribution is uniform and the draw deterministic
    q = q * np.sign(np.diag(r))[None, :]
    return q


def gaussian(rng: np.random.Generator, shape, std: float = 0.01) -> np.ndarray:
    return rng.standard_normal(shape) * std


@dataclass
class NoiseConfig:
    """Training-time regularization: inverted dropout + additive weight noise.

    Only the training losses take one, so both are off at inference.
    """
    dropout_p: float = 0.0
    weight_noise_std: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.weight_noise_std < 0.0:
            raise ValueError("weight_noise_std must be >= 0")


class GruCell:
    """Gated recurrent unit: z/r gates plus a tanh candidate state."""

    def __init__(self, prefix: str, input_size: int, hidden_size: int,
                 params: ParameterSet, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        d = hidden_size
        self.p = {}
        for gate in ("z", "r", "h"):
            self.p["W_" + gate] = params.add(Parameter(
                f"{prefix}.W_{gate}", gaussian(rng, (input_size, d))))
            self.p["U_" + gate] = params.add(Parameter(
                f"{prefix}.U_{gate}", orthonormal(rng, d), noisy=False))
            self.p["b_" + gate] = params.add(Parameter(
                f"{prefix}.b_{gate}", np.zeros(d)))


def gru_step(cell: GruCell, s_prev: Tensor, x: Tensor) -> Tensor:
    """One GRU step: s = (1 - z) * s_prev + z * candidate."""
    if s_prev.shape[1] != cell.hidden_size:
        raise T.ShapeError(
            f"gru_step: state width {s_prev.shape} != {cell.hidden_size}")
    if x.shape[1] != cell.input_size:
        raise T.ShapeError(
            f"gru_step: input width {x.shape} != {cell.input_size}")
    p = cell.p
    z = T.sigmoid(T.add_rowvec(
        T.add(T.matmul(x, p["W_z"].value), T.matmul(s_prev, p["U_z"].value)),
        p["b_z"].value))
    r = T.sigmoid(T.add_rowvec(
        T.add(T.matmul(x, p["W_r"].value), T.matmul(s_prev, p["U_r"].value)),
        p["b_r"].value))
    cand = T.tanh(T.add_rowvec(
        T.add(T.matmul(x, p["W_h"].value),
              T.matmul(T.mul(r, s_prev), p["U_h"].value)),
        p["b_h"].value))
    one_minus_z = T.add_scalar(T.scale(z, -1.0), 1.0)
    return T.add(T.mul(one_minus_z, s_prev), T.mul(z, cand))


class LstmCell:
    """LSTM with input/forget/output gates and a carried cell state."""

    def __init__(self, prefix: str, input_size: int, hidden_size: int,
                 params: ParameterSet, rng: np.random.Generator,
                 forget_bias: float = 1.0):
        self.input_size = input_size
        self.hidden_size = hidden_size
        d = hidden_size
        self.p = {}
        for gate in ("i", "f", "o", "g"):
            self.p["W_" + gate] = params.add(Parameter(
                f"{prefix}.W_{gate}", gaussian(rng, (input_size, d))))
            self.p["U_" + gate] = params.add(Parameter(
                f"{prefix}.U_{gate}", orthonormal(rng, d), noisy=False))
            bias = np.full(d, forget_bias) if gate == "f" else np.zeros(d)
            self.p["b_" + gate] = params.add(Parameter(f"{prefix}.b_{gate}", bias))


def lstm_step(cell: LstmCell, state: tuple[Tensor, Tensor],
              x: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns (h, c)."""
    h_prev, c_prev = state
    if h_prev.shape[1] != cell.hidden_size or c_prev.shape[1] != cell.hidden_size:
        raise T.ShapeError(
            f"lstm_step: state widths {h_prev.shape}/{c_prev.shape} "
            f"!= {cell.hidden_size}")
    if x.shape[1] != cell.input_size:
        raise T.ShapeError(
            f"lstm_step: input width {x.shape} != {cell.input_size}")
    p = cell.p

    def gate(name, fn):
        return fn(T.add_rowvec(
            T.add(T.matmul(x, p["W_" + name].value),
                  T.matmul(h_prev, p["U_" + name].value)),
            p["b_" + name].value))

    i = gate("i", T.sigmoid)
    f = gate("f", T.sigmoid)
    o = gate("o", T.sigmoid)
    g = gate("g", T.tanh)
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    h = T.mul(o, T.tanh(c))
    return h, c


class Embedding:
    """Token-id to dense-vector lookup table."""

    def __init__(self, prefix: str, vocab_size: int, dim: int,
                 params: ParameterSet, rng: np.random.Generator):
        self.table = params.add(Parameter(
            f"{prefix}.table", gaussian(rng, (vocab_size, dim))))

    def lookup(self, ids) -> Tensor:
        return T.rows(self.table.value, ids)


class DeepOutputLayer:
    """Single hidden layer with a two-way maxout feeding vocabulary logits.

    In fused arity the first input block is the gated LM hidden state; the
    remaining blocks (decoder state, previous-word embedding, context) match
    the non-fused layer, which makes copying baseline weights into a fused
    layer a plain row-offset copy.
    """

    def __init__(self, prefix: str, state_size: int, embed_size: int,
                 context_size: int, pool_width: int, vocab_size: int,
                 params: ParameterSet, rng: np.random.Generator,
                 lm_state_size: Optional[int] = None):
        self.pool_width = pool_width
        self.lm_state_size = lm_state_size
        in_dim = state_size + embed_size + context_size
        if lm_state_size is not None:
            in_dim += lm_state_size
        self.W_h = params.add(Parameter(
            f"{prefix}.W_h", gaussian(rng, (in_dim, 2 * pool_width))))
        self.b_h = params.add(Parameter(f"{prefix}.b_h", np.zeros(2 * pool_width)))
        self.W_o = params.add(Parameter(
            f"{prefix}.W_o", gaussian(rng, (vocab_size, pool_width))))
        self.b_o = params.add(Parameter(f"{prefix}.b_o", np.zeros(vocab_size)))

    @property
    def fused(self) -> bool:
        return self.lm_state_size is not None


def deep_output(layer: DeepOutputLayer, s_tm: Tensor, y_prev_embed: Tensor,
                c: Tensor, s_lm_gated: Optional[Tensor] = None,
                dropout_p: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> Tensor:
    """Vocabulary logits for one decode step (batched over rows)."""
    if layer.fused and s_lm_gated is None:
        raise ValueError("fused deep output layer requires an LM state")
    if not layer.fused and s_lm_gated is not None:
        raise ValueError("non-fused deep output layer got an LM state")
    blocks = [s_tm, y_prev_embed, c]
    if layer.fused:
        blocks.insert(0, s_lm_gated)
    x = T.concat(blocks, axis=1)
    pre = T.add_rowvec(T.matmul(x, layer.W_h.value), layer.b_h.value)
    hidden = T.maxout2(pre)
    if dropout_p > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng")
        hidden = T.mul(hidden, T.constant(dropout_mask(rng, hidden.shape, dropout_p)))
    return T.add_rowvec(
        T.matmul(hidden, T.transpose(layer.W_o.value)), layer.b_o.value)


def dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability p, else 1/(1-p)."""
    keep = rng.random(shape) >= p
    return keep.astype(np.float64) / (1.0 - p)


def perturb_parameters(params: ParameterSet, std: float,
                       rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Add Gaussian noise in place to noise-eligible parameters.

    Returns the clean values so ``restore_parameters`` can undo the
    perturbation after the forward/backward pass.
    """
    saved: dict[str, np.ndarray] = {}
    if std <= 0.0:
        return saved
    for p in params:
        if p.noisy and p.trainable:
            saved[p.id] = p.value.data.copy()
            p.value.data += rng.standard_normal(p.value.shape) * std
    return saved


def restore_parameters(params: ParameterSet, saved: dict[str, np.ndarray]) -> None:
    for pid, clean in saved.items():
        params.get(pid).value.data[...] = clean
