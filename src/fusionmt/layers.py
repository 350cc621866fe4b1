"""Parameterized building blocks: GRU and LSTM cells, embeddings, and the
two-way-maxout deep output layer.

Cells are immutable bundles of parameters: a GRU or LSTM cell owns three,
its joined W, U and b, one column block per gate (GRU z|r|h, LSTM o|i|f|g).
The ``*_step`` functions are pure given (parameters, state, input) and are
differentiable through the tape.
All step functions are batched: states are (B, d), a row per sentence or
live beam hypothesis; inputs are (T, B, e), a decode step's T = 1.
"""

from __future__ import annotations

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


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) * 0.01


class _Cell:
    """A recurrent cell's ``weights`` W (input_size, G d), U (d, G d) and b
    (G d): a column block per gate in ``order``, drawn gate by gate in
    ``drawn`` order; biases 0, an LSTM forget gate's 1; no noise on U."""

    def __init__(self, prefix: str, input_size: int, hidden_size: int,
                 params: ParameterSet, rng: np.random.Generator):
        d = hidden_size
        draws = {gate: (gaussian(rng, (input_size, d)), orthonormal(rng, d),
                        np.full(d, float(gate == "f"))) for gate in self.drawn}
        self.weights = tuple(params.add(Parameter(
            f"{prefix}.{kind}", np.hstack([draws[g][k] for g in self.order]),
            noisy=kind != "U", gates=self.order)).value
            for k, kind in enumerate("WUb"))


class GruCell(_Cell):
    """Gated recurrent unit: z/r gates plus a tanh candidate state."""
    drawn = order = "zrh"


def gru_step(cell: GruCell, s_prev: Tensor, x: Tensor,
             keep: Optional[np.ndarray] = None, reverse: bool = False):
    """Every GRU step, s = (1 - z) * s_prev + z * candidate, of a (T, B, e)
    ``x``, as ``tensor.gru``: rows where the optional (T, B, 1) 0/1 ``keep``
    is 0 keep the previous state.  Returns every state and the run's last."""
    return T.gru(s_prev, x, cell.weights, keep, reverse)


class LstmCell(_Cell):
    """LSTM with input/forget/output gates and a carried cell state."""
    drawn, order = "ifog", "oifg"


def lstm_step(cell: LstmCell, state: tuple[Tensor, Tensor],
              x: Tensor) -> tuple[Tensor, Tensor]:
    """Every LSTM step of a (T, B, e) ``x``, as ``tensor.lstm``: returns
    every step's h as step-major (T*B, d) rows and the last step's c."""
    return T.lstm(*state, x, cell.weights)


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
        in_dim = state_size + embed_size + context_size
        if lm_state_size is not None:
            in_dim += lm_state_size
        self.W_h = params.add(Parameter(
            f"{prefix}.W_h", gaussian(rng, (in_dim, 2 * pool_width))))
        self.b_h = params.add(Parameter(f"{prefix}.b_h", np.zeros(2 * pool_width)))
        self.W_o = params.add(Parameter(
            f"{prefix}.W_o", gaussian(rng, (vocab_size, pool_width))))
        self.b_o = params.add(Parameter(f"{prefix}.b_o", np.zeros(vocab_size)))


def deep_output(layer: DeepOutputLayer, s_tm, y_prev_embed, c,
                s_lm_gated: Optional[Tensor] = None, dropout_p: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> Tensor:
    """Vocabulary logits for (n, .) input rows: one decode step's, or every
    step's of a teacher-forced batch.  A fused layer needs ``s_lm_gated``;
    the wrong arity fails the matmul below."""
    blocks = [s_tm, y_prev_embed, c]
    if s_lm_gated is not None:
        blocks.insert(0, s_lm_gated)
    x = T.concat(blocks, axis=1)
    hidden = T.maxout2(T.matmul(x, layer.W_h.value, layer.b_h.value))
    if dropout_p > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng")
        hidden = T.mul(hidden, dropout_mask(rng, hidden.shape, dropout_p))
    return T.matmul(hidden, T.transpose(layer.W_o.value), layer.b_o.value)


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
