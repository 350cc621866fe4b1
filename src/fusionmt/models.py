"""The three composed networks: the attention encoder-decoder translation
model, the LSTM language model, and the deep-fusion composite with its
controller gate.

All forward procedures are batched: states are (B, d) matrices and token
inputs are length-B id vectors.  Decoding uses B == 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .data import EOS_ID
from .layers import (
    DeepOutputLayer,
    Embedding,
    GruCell,
    LstmCell,
    NoiseConfig,
    Parameter,
    deep_output,
    gaussian,
    gru_step,
    lstm_step,
)
from .tensor import ParameterSet, Tensor

_NEG_INF = -1e9  # additive mask for padded attention positions


class ConfigurationError(ValueError):
    """Incompatible model wiring (vocab mismatch, wrong output arity, ...)."""


@dataclass
class NmtConfig:
    src_vocab: int
    tgt_vocab: int
    embed_dim: int = 620
    hidden: int = 1000
    deep_output_width: int = 0  # pre-maxout width; 0 means 2 * hidden

    def __post_init__(self):
        if self.deep_output_width == 0:
            self.deep_output_width = 2 * self.hidden
        if self.deep_output_width % 2 != 0:
            raise ConfigurationError("deep_output_width must be even")


@dataclass
class LmConfig:
    vocab: int
    embed_dim: int = 620
    hidden: int = 2400


class NmtModel:
    """Bidirectional GRU encoder, additive attention, GRU decoder, and a
    maxout deep output layer."""

    def __init__(self, cfg: NmtConfig, rng: np.random.Generator,
                 prefix: str = "nmt"):
        self.cfg = cfg
        self.params = ParameterSet()
        d, e = cfg.hidden, cfg.embed_dim
        self.src_emb = Embedding(f"{prefix}.src_emb", cfg.src_vocab, e,
                                 self.params, rng)
        self.tgt_emb = Embedding(f"{prefix}.tgt_emb", cfg.tgt_vocab, e,
                                 self.params, rng)
        self.enc_fwd = GruCell(f"{prefix}.enc_fwd", e, d, self.params, rng)
        self.enc_bwd = GruCell(f"{prefix}.enc_bwd", e, d, self.params, rng)
        # additive alignment network: e_j = v_a' tanh(W_a s + U_a h_j + V_a y)
        self.attn = {
            "W_a": self.params.add(Parameter(f"{prefix}.attn.W_a",
                                             gaussian(rng, (d, d)))),
            "U_a": self.params.add(Parameter(f"{prefix}.attn.U_a",
                                             gaussian(rng, (2 * d, d)))),
            "V_a": self.params.add(Parameter(f"{prefix}.attn.V_a",
                                             gaussian(rng, (e, d)))),
            "b_a": self.params.add(Parameter(f"{prefix}.attn.b_a", np.zeros(d))),
            "v_a": self.params.add(Parameter(f"{prefix}.attn.v_a",
                                             gaussian(rng, (d, 1)))),
        }
        self.decoder = GruCell(f"{prefix}.dec", e + 2 * d, d, self.params, rng)
        self.W_init = self.params.add(Parameter(f"{prefix}.W_init",
                                                gaussian(rng, (d, d))))
        self.b_init = self.params.add(Parameter(f"{prefix}.b_init", np.zeros(d)))
        self.out = DeepOutputLayer(
            f"{prefix}.out", state_size=d, embed_size=e, context_size=2 * d,
            pool_width=cfg.deep_output_width // 2, vocab_size=cfg.tgt_vocab,
            params=self.params, rng=rng)


@dataclass
class AnnotationMatrix:
    """Per-position encoder annotations h_j = [backward_j ; forward_j]."""
    rows: list  # T tensors of shape (B, 2d)
    mask: np.ndarray  # (B, T) 1/0
    bwd_first: Tensor  # backward state at position 0, feeds the initial state
    _attn_proj: Optional[list] = field(default=None, repr=False)

    @property
    def length(self) -> int:
        return len(self.rows)


@dataclass
class AttentionScores:
    energies: Tensor  # (B, T)
    alpha: Tensor  # (B, T), rows sum to 1


def encode(model: NmtModel, source, src_mask: Optional[np.ndarray] = None,
           append_eos: bool = True) -> AnnotationMatrix:
    """Run both encoder directions; returns one annotation row per source
    position (end-of-sequence included).

    ``source`` is either a single id sequence or a padded (B, T) id array
    with an explicit mask (already EOS-terminated)."""
    src = np.asarray(source, dtype=np.intp)
    if src.ndim == 1:
        if src.size == 0:
            raise T.DomainError("cannot encode an empty source sentence")
        if append_eos:
            src = np.concatenate([src, [EOS_ID]])
        src = src[None, :]
        src_mask = np.ones(src.shape)
    if src_mask is None:
        raise ValueError("batched encode requires a mask")
    b, t_len = src.shape
    d = model.cfg.hidden
    embeds = [model.src_emb.lookup(src[:, j]) for j in range(t_len)]

    def run(cell, order):
        states = [None] * t_len
        s = T.constant(np.zeros((b, d)))
        for j in order:
            s_new = gru_step(cell, s, embeds[j])
            m = src_mask[:, j : j + 1]
            if m.all():
                s = s_new
            else:  # padded rows keep their previous (zero) state
                s = T.add(T.mul_colvec(s_new, T.constant(m)),
                          T.mul_colvec(s, T.constant(1.0 - m)))
            states[j] = s
        return states

    fwd = run(model.enc_fwd, range(t_len))
    bwd = run(model.enc_bwd, range(t_len - 1, -1, -1))
    rows = [T.concat([bwd[j], fwd[j]], axis=1) for j in range(t_len)]
    return AnnotationMatrix(rows=rows, mask=np.asarray(src_mask, dtype=np.float64),
                            bwd_first=bwd[0])


def initial_state(model: NmtModel, ann: AnnotationMatrix) -> Tensor:
    """s_0 = tanh(W_init . backward-encoder first state)."""
    return T.tanh(T.add_rowvec(T.matmul(ann.bwd_first, model.W_init.value),
                               model.b_init.value))


def _annotation_proj(model: NmtModel, ann: AnnotationMatrix) -> list:
    if ann._attn_proj is None:
        u = model.attn["U_a"].value
        ann._attn_proj = [T.matmul(h, u) for h in ann.rows]
    return ann._attn_proj


def attend(model: NmtModel, s_prev: Tensor, y_emb: Tensor,
           ann: AnnotationMatrix) -> tuple[AttentionScores, Tensor]:
    """Additive attention over the annotations, queried by the previous
    state and the (B, e) embedding of the previous word; returns scores and
    the context vector c = sum_j alpha_j h_j."""
    if ann.length == 0:
        raise T.DomainError("attend: empty annotation matrix")
    a = model.attn
    query = T.add_rowvec(
        T.add(T.matmul(s_prev, a["W_a"].value), T.matmul(y_emb, a["V_a"].value)),
        a["b_a"].value)
    proj = _annotation_proj(model, ann)
    cols = [T.matmul(T.tanh(T.add(query, proj[j])), a["v_a"].value)
            for j in range(ann.length)]
    energies = T.concat(cols, axis=1)  # (B, T)
    if not ann.mask.all():
        energies = T.add(energies, T.constant((ann.mask - 1.0) * -_NEG_INF))
    alpha = T.softmax(energies)
    ctx = None
    for j in range(ann.length):
        piece = T.mul_colvec(ann.rows[j], T.narrow(alpha, 1, j, 1))
        ctx = piece if ctx is None else T.add(ctx, piece)
    return AttentionScores(energies=energies, alpha=alpha), ctx


def _embed_prev(emb: Embedding, y_prev, batch: int) -> Tensor:
    ids = np.asarray(y_prev, dtype=np.intp)
    if ids.ndim == 0:
        ids = np.full(batch, int(ids), dtype=np.intp)
    return emb.lookup(ids)


def _recur(model: NmtModel, s_prev: Tensor, y_prev, ann: AnnotationMatrix,
           ) -> tuple[Tensor, Tensor, Tensor, AttentionScores]:
    """Embed the previous word, attend, and advance the decoder GRU.

    Returns (new state, previous-word embedding, context, attention)."""
    y_emb = _embed_prev(model.tgt_emb, y_prev, s_prev.shape[0])
    scores, ctx = attend(model, s_prev, y_emb, ann)
    s_new = gru_step(model.decoder, s_prev, T.concat([y_emb, ctx], axis=1))
    return s_new, y_emb, ctx, scores


def decode_step(model: NmtModel, s_prev: Tensor, y_prev,
                ann: AnnotationMatrix, noise: Optional[NoiseConfig] = None,
                rng: Optional[np.random.Generator] = None,
                ) -> tuple[Tensor, Tensor, AttentionScores]:
    """One decoder step: attend, recur, deep output, log-softmax.

    Returns (new state, log-probs over the target vocab, attention)."""
    s_new, y_emb, ctx, scores = _recur(model, s_prev, y_prev, ann)
    p = noise.dropout_p if noise else 0.0
    logits = deep_output(model.out, s_new, y_emb, ctx, dropout_p=p, rng=rng)
    return s_new, T.log_softmax(logits), scores


def _teacher_forced_nll(step, state, batch) -> Tensor:
    """Teacher-forced mean (over sentences) summed NLL of ``batch.tgt_out``;
    ``step(state, y_prev)`` returns (new state, (B, V) log-probs)."""
    b, t_len = batch.tgt_in.shape
    total = None
    for t in range(t_len):
        state, logp = step(state, batch.tgt_in[:, t])
        nll = T.take_per_row(logp, batch.tgt_out[:, t])
        nll = T.sum_all(T.mul(nll, T.constant(batch.tgt_mask[:, t])))
        total = nll if total is None else T.add(total, nll)
    return T.scale(total, -1.0 / b)


def nmt_batch_loss(model: NmtModel, batch, noise: Optional[NoiseConfig] = None,
                   rng: Optional[np.random.Generator] = None) -> Tensor:
    """Mean (over sentences) of the summed negative log-likelihood."""
    ann = encode(model, batch.src, batch.src_mask, append_eos=False)

    def step(s, y_prev):
        s, logp, _ = decode_step(model, s, y_prev, ann, noise=noise, rng=rng)
        return s, logp

    return _teacher_forced_nll(step, initial_state(model, ann), batch)


# ---------------------------------------------------------------------------
# language model
# ---------------------------------------------------------------------------

class RnnLm:
    """Single-layer LSTM language model over the target vocabulary.

    Structurally it never sees a source sentence: there is no context input
    anywhere in its parameterization."""

    def __init__(self, cfg: LmConfig, rng: np.random.Generator,
                 prefix: str = "lm"):
        self.cfg = cfg
        self.params = ParameterSet()
        self.tgt_emb = Embedding(f"{prefix}.emb", cfg.vocab, cfg.embed_dim,
                                 self.params, rng)
        self.lstm = LstmCell(f"{prefix}.lstm", cfg.embed_dim, cfg.hidden,
                             self.params, rng)
        self.W_out = self.params.add(Parameter(
            f"{prefix}.W_out", gaussian(rng, (cfg.vocab, cfg.hidden))))
        self.b_out = self.params.add(Parameter(f"{prefix}.b_out",
                                               np.zeros(cfg.vocab)))

    def initial_state(self, batch: int = 1) -> tuple[Tensor, Tensor]:
        z = np.zeros((batch, self.cfg.hidden))
        return T.constant(z), T.constant(z.copy())


def lm_step(lm: RnnLm, state: tuple[Tensor, Tensor], y_prev,
            ) -> tuple[tuple[Tensor, Tensor], Tensor]:
    """Advance the LM one token; returns (new state, log-probs)."""
    b = state[0].shape[0]
    x = _embed_prev(lm.tgt_emb, y_prev, b)
    h, c = lstm_step(lm.lstm, state, x)
    logits = T.add_rowvec(T.matmul(h, T.transpose(lm.W_out.value)),
                          lm.b_out.value)
    return (h, c), T.log_softmax(logits)


def lm_batch_loss(lm: RnnLm, batch) -> Tensor:
    """Mean (over sentences) summed NLL of a monolingual padded batch."""
    return _teacher_forced_nll(lambda state, y_prev: lm_step(lm, state, y_prev),
                               lm.initial_state(batch.size), batch)


# ---------------------------------------------------------------------------
# deep fusion
# ---------------------------------------------------------------------------

class Controller:
    """Scalar gate g = sigmoid(v_g . s_lm + b_g) scaling the LM state."""

    def __init__(self, lm_hidden: int, params: ParameterSet,
                 prefix: str = "fuse.ctrl", bias_init: float = -1.0):
        self.v_g = params.add(Parameter(f"{prefix}.v_g",
                                        np.zeros((lm_hidden, 1))))
        self.b_g = params.add(Parameter(f"{prefix}.b_g",
                                        np.array([bias_init])))


def controller_gate(ctrl: Controller, s_lm: Tensor) -> Tensor:
    """Per-row scalar gate in (0, 1), shape (B, 1)."""
    if s_lm.shape[1] != ctrl.v_g.value.shape[0]:
        raise T.ShapeError(
            f"controller_gate: state width {s_lm.shape} vs "
            f"{ctrl.v_g.value.shape}")
    return T.sigmoid(T.add_rowvec(T.matmul(s_lm, ctrl.v_g.value),
                                  ctrl.b_g.value))


class FusedModel:
    """Frozen NMT + frozen LM joined by a fused output layer and controller.

    Assembly freezes every NMT and LM parameter; only the fused output layer
    and the controller remain trainable.  The fused layer starts as an exact
    copy of the baseline output layer with a zeroed LM-facing block, so the
    composite initially reproduces baseline behaviour.
    """

    def __init__(self, nmt: NmtModel, lm: RnnLm, rng: np.random.Generator):
        if nmt.cfg.tgt_vocab != lm.cfg.vocab:
            raise ConfigurationError(
                f"target vocab {nmt.cfg.tgt_vocab} != LM vocab {lm.cfg.vocab}")
        self.nmt = nmt
        self.lm = lm
        self.params = ParameterSet()
        for p in list(nmt.params) + list(lm.params):
            p.trainable = False
            p.value.requires_grad = False
            self.params.add(p)
        self.controller = Controller(lm.cfg.hidden, self.params)
        d, e = nmt.cfg.hidden, nmt.cfg.embed_dim
        self.out = DeepOutputLayer(
            "fuse.out", state_size=d, embed_size=e, context_size=2 * d,
            pool_width=nmt.out.pool_width, vocab_size=nmt.cfg.tgt_vocab,
            params=self.params, rng=rng, lm_state_size=lm.cfg.hidden)
        # start at the baseline: copy its output layer, zero the LM block
        lm_d = lm.cfg.hidden
        self.out.W_h.value.data[:lm_d, :] = 0.0
        self.out.W_h.value.data[lm_d:, :] = nmt.out.W_h.value.data
        self.out.b_h.value.data[...] = nmt.out.b_h.value.data
        self.out.W_o.value.data[...] = nmt.out.W_o.value.data
        self.out.b_o.value.data[...] = nmt.out.b_o.value.data


def fused_step(fm: FusedModel, s_tm_prev: Tensor, lm_state_prev, y_prev,
               ann: AnnotationMatrix, noise: Optional[NoiseConfig] = None,
               rng: Optional[np.random.Generator] = None):
    """Advance decoder and LM in lockstep on the same previous token.

    Returns (s_tm, lm_state, log-probs, attention, gate)."""
    s_tm, y_emb, ctx, scores = _recur(fm.nmt, s_tm_prev, y_prev, ann)
    x_lm = _embed_prev(fm.lm.tgt_emb, y_prev, s_tm_prev.shape[0])
    h_lm, c_lm = lstm_step(fm.lm.lstm, lm_state_prev, x_lm)
    g = controller_gate(fm.controller, h_lm)
    gated = T.mul_colvec(h_lm, g)
    p = noise.dropout_p if noise else 0.0
    logits = deep_output(fm.out, s_tm, y_emb, ctx, s_lm_gated=gated,
                         dropout_p=p, rng=rng)
    return s_tm, (h_lm, c_lm), T.log_softmax(logits), scores, g


def fused_batch_loss(fm: FusedModel, batch, noise: Optional[NoiseConfig] = None,
                     rng: Optional[np.random.Generator] = None) -> Tensor:
    """Mean summed NLL under the fused output distribution."""
    ann = encode(fm.nmt, batch.src, batch.src_mask, append_eos=False)

    def step(state, y_prev):
        s, lm_state, logp, _, _ = fused_step(fm, *state, y_prev, ann,
                                             noise=noise, rng=rng)
        return (s, lm_state), logp

    state = (initial_state(fm.nmt, ann), fm.lm.initial_state(batch.size))
    return _teacher_forced_nll(step, state, batch)
