"""The three composed networks: the attention encoder-decoder translation
model, the LSTM language model, and the deep-fusion composite with its
controller gate.

All forward procedures are batched: states are (B, d) matrices and token
inputs are length-B id vectors.  Beam decoding stacks the live hypotheses
of a step into the B rows.  Each model is a recurrence plus an output head
for any number of rows: a decode step runs both, and a teacher-forced loss
runs the recurrence step by step, then the head once over all T*B rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .data import EOS_ID
from .layers import (
    DeepOutputLayer,
    Embedding,
    GruCell,
    LstmCell,
    Parameter,
    deep_output,
    gaussian,
    gru_step,
    lstm_step,
)
from .tensor import ParameterSet, Tensor


class ConfigurationError(ValueError):
    """Incompatible model wiring (vocab mismatch, wrong output arity, ...)."""


class _SizedConfig:
    """A model config whose ``SIZED_BY`` sizes must all be positive."""

    def __post_init__(self):
        for key in SIZED_BY[type(self)]:
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1")


@dataclass
class NmtConfig(_SizedConfig):
    src_vocab: int
    tgt_vocab: int
    embed_dim: int = 620
    hidden: int = 1000
    deep_output_width: int = 0  # pre-maxout width; 0 means 2 * hidden

    def __post_init__(self):
        if self.deep_output_width < 0 or self.deep_output_width % 2:
            raise ConfigurationError("deep_output_width must be even and >= 0")
        if self.deep_output_width == 0:
            self.deep_output_width = 2 * self.hidden
        super().__post_init__()


@dataclass
class LmConfig(_SizedConfig):
    vocab: int
    embed_dim: int = 620
    hidden: int = 2400


# the block axis each config size fixes, under the parameter ids the models
# below create; checkpoint loading checks them before a model is allocated
SIZED_BY = {
    NmtConfig: {"src_vocab": ("nmt.src_emb.table", 0),
                "embed_dim": ("nmt.src_emb.table", 1),
                "tgt_vocab": ("nmt.tgt_emb.table", 0), "hidden": ("nmt.W_init", 0),
                "deep_output_width": ("nmt.out.b_h", 0)},
    LmConfig: {"vocab": ("lm.emb.table", 0), "embed_dim": ("lm.emb.table", 1),
               "hidden": ("lm.W_out", 1)},
}


class NmtModel:
    """Bidirectional GRU encoder, additive attention, GRU decoder, and a
    maxout deep output layer."""

    def __init__(self, cfg: NmtConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params = ParameterSet()
        d, e = cfg.hidden, cfg.embed_dim
        self.src_emb = Embedding("nmt.src_emb", cfg.src_vocab, e,
                                 self.params, rng)
        self.tgt_emb = Embedding("nmt.tgt_emb", cfg.tgt_vocab, e,
                                 self.params, rng)
        self.enc_fwd = GruCell("nmt.enc_fwd", e, d, self.params, rng)
        self.enc_bwd = GruCell("nmt.enc_bwd", e, d, self.params, rng)
        # additive alignment network: e_j = v_a' tanh(W_a s + U_a h_j + V_a y)
        self.attn = {
            "W_a": self.params.add(Parameter("nmt.attn.W_a",
                                             gaussian(rng, (d, d)))),
            "U_a": self.params.add(Parameter("nmt.attn.U_a",
                                             gaussian(rng, (2 * d, d)))),
            "V_a": self.params.add(Parameter("nmt.attn.V_a",
                                             gaussian(rng, (e, d)))),
            "b_a": self.params.add(Parameter("nmt.attn.b_a", np.zeros(d))),
            "v_a": self.params.add(Parameter("nmt.attn.v_a",
                                             gaussian(rng, (d, 1)))),
        }
        self.decoder = GruCell("nmt.dec", e + 2 * d, d, self.params, rng)
        self.W_init = self.params.add(Parameter("nmt.W_init",
                                                gaussian(rng, (d, d))))
        self.b_init = self.params.add(Parameter("nmt.b_init", np.zeros(d)))
        self.out = DeepOutputLayer(
            "nmt.out", state_size=d, embed_size=e, context_size=2 * d,
            pool_width=cfg.deep_output_width // 2, vocab_size=cfg.tgt_vocab,
            params=self.params, rng=rng)


@dataclass
class AnnotationMatrix:
    """Encoder annotations h_j = [backward_j ; forward_j] for every position."""
    h: Tensor  # (B, T, 2d)
    proj: Tensor  # (B, T, d): h projected by U_a, shared by every attend
    mask: np.ndarray  # (B, T) 1/0
    bwd_first: Tensor  # backward state at position 0, feeds the initial state


@dataclass
class AttentionScores:
    alpha: Tensor  # (B, T), rows sum to 1


def encode(model: NmtModel, source,
           src_mask: Optional[np.ndarray] = None) -> AnnotationMatrix:
    """Run both encoder directions; returns the annotations of every source
    position (end-of-sequence included) and their attention projection.

    ``source`` is either a single id sequence, to which end-of-sequence is
    appended and which needs no keep-mask, or a padded (B, T) id array with
    an explicit mask (already EOS-terminated)."""
    src = np.asarray(source, dtype=np.intp)
    if src.ndim == 1:
        if src.size == 0:
            raise T.DomainError("cannot encode an empty source sentence")
        src, src_mask = np.concatenate([src, [EOS_ID]])[None, :], None
    elif src_mask is None:
        raise ValueError("batched encode requires a mask")
    b, t_len = src.shape
    d = model.cfg.hidden
    embeds = [model.src_emb.lookup(src[:, j]) for j in range(t_len)]

    def run(cell, order):
        states = [None] * t_len
        s = T.constant(np.zeros((b, d)))
        for j in order:  # padded rows keep their previous (zero) state
            keep = None if src_mask is None else src_mask[:, j : j + 1]
            s = states[j] = gru_step(cell, s, embeds[j], keep)
        return states

    fwd = run(model.enc_fwd, range(t_len))
    bwd = run(model.enc_bwd, range(t_len - 1, -1, -1))
    h = T.concat([T.stack(bwd, axis=1), T.stack(fwd, axis=1)], axis=2)
    return AnnotationMatrix(h=h, proj=T.matmul(h, model.attn["U_a"].value),
                            mask=np.ones(src.shape) if src_mask is None
                            else np.asarray(src_mask, dtype=np.float64),
                            bwd_first=bwd[0])


def initial_state(model: NmtModel, ann: AnnotationMatrix) -> Tensor:
    """s_0 = tanh(W_init . backward-encoder first state)."""
    return T.tanh(T.add_rowvec(T.matmul(ann.bwd_first, model.W_init.value),
                               model.b_init.value))


def attend(model: NmtModel, s_prev: Tensor, y_emb: Tensor,
           ann: AnnotationMatrix) -> tuple[AttentionScores, Tensor]:
    """Additive attention over the annotations, queried by the previous
    state and the (B, e) embedding of the previous word; returns scores and
    the context vector c = sum_j alpha_j h_j."""
    a = model.attn
    query = T.add_rowvec(
        T.add(T.matmul(s_prev, a["W_a"].value), T.matmul(y_emb, a["V_a"].value)),
        a["b_a"].value)
    alpha, ctx = T.attention(query, ann.proj, ann.h, a["v_a"].value, ann.mask)
    return AttentionScores(alpha=alpha), ctx


def _recur(model: NmtModel, s_prev: Tensor, y_prev, ann: AnnotationMatrix,
           ) -> tuple[Tensor, Tensor, Tensor, AttentionScores]:
    """Embed the previous word, attend, and advance the decoder GRU.

    Returns (new state, previous-word embedding, context, attention)."""
    y_emb = model.tgt_emb.lookup(y_prev)
    scores, ctx = attend(model, s_prev, y_emb, ann)
    s_new = gru_step(model.decoder, s_prev, T.concat([y_emb, ctx], axis=1))
    return s_new, y_emb, ctx, scores


def decode_step(model: NmtModel, s_prev: Tensor, y_prev,
                ann: AnnotationMatrix) -> tuple[Tensor, Tensor, AttentionScores]:
    """One decoder step: attend, recur, deep output, log-softmax.

    Returns (new state, log-probs over the target vocab, attention)."""
    s_new, y_emb, ctx, scores = _recur(model, s_prev, y_prev, ann)
    logits = deep_output(model.out, s_new, y_emb, ctx)
    return s_new, T.log_softmax(logits), scores


def _nll(logits: Tensor, batch) -> Tensor:
    """Mean (over sentences) summed NLL under step-major (T*B, V) logits."""
    return T.nll(logits, batch.tgt_out.T.ravel(), batch.tgt_mask.T.ravel(),
                 -1.0 / batch.tgt_in.shape[0])


def _nmt_teacher_forced(model: NmtModel, batch) -> list[list[Tensor]]:
    """The decoder recurrence over a padded batch: the head inputs (states,
    previous-word embeddings, contexts), each as the list of its per-step
    rows."""
    ann = encode(model, batch.src, batch.src_mask)
    s, steps = initial_state(model, ann), []
    for y_prev in batch.tgt_in.T:
        s, y_emb, ctx, _ = _recur(model, s, y_prev, ann)
        steps.append((s, y_emb, ctx))
    return [list(rows) for rows in zip(*steps)]


def nmt_batch_loss(model: NmtModel, batch, dropout_p: float = 0.0,
                   rng: Optional[np.random.Generator] = None) -> Tensor:
    """Mean (over sentences) of the summed negative log-likelihood."""
    return _nll(deep_output(model.out, *_nmt_teacher_forced(model, batch),
                            dropout_p=dropout_p, rng=rng), batch)


# ---------------------------------------------------------------------------
# language model
# ---------------------------------------------------------------------------

class RnnLm:
    """Single-layer LSTM language model over the target vocabulary.

    Structurally it never sees a source sentence: there is no context input
    anywhere in its parameterization."""

    def __init__(self, cfg: LmConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params = ParameterSet()
        self.tgt_emb = Embedding("lm.emb", cfg.vocab, cfg.embed_dim,
                                 self.params, rng)
        self.lstm = LstmCell("lm.lstm", cfg.embed_dim, cfg.hidden,
                             self.params, rng)
        self.W_out = self.params.add(Parameter(
            "lm.W_out", gaussian(rng, (cfg.vocab, cfg.hidden))))
        self.b_out = self.params.add(Parameter("lm.b_out",
                                               np.zeros(cfg.vocab)))

    def initial_state(self, batch: int = 1) -> tuple[Tensor, Tensor]:
        z = np.zeros((batch, self.cfg.hidden))
        return T.constant(z), T.constant(z.copy())


def _lm_recur(lm: RnnLm, state: tuple[Tensor, Tensor],
              y_prev) -> tuple[Tensor, Tensor]:
    """Embed the previous word and advance the LSTM; returns (h, c)."""
    return lstm_step(lm.lstm, state, lm.tgt_emb.lookup(y_prev))


def _lm_logits(lm: RnnLm, h: Tensor) -> Tensor:
    """The LM's head: its output projection."""
    return T.add_rowvec(T.matmul(h, T.transpose(lm.W_out.value)),
                        lm.b_out.value)


def lm_step(lm: RnnLm, state: tuple[Tensor, Tensor], y_prev,
            ) -> tuple[tuple[Tensor, Tensor], Tensor]:
    """Advance the LM one token; returns (new state, log-probs)."""
    h, c = _lm_recur(lm, state, y_prev)
    return (h, c), T.log_softmax(_lm_logits(lm, h))


def _lm_teacher_forced(lm: RnnLm, batch) -> Tensor:
    """The LSTM recurrence over a padded batch: its hidden states, step
    major, as one (T*B, d) head input."""
    state, hs = lm.initial_state(batch.size), []
    for y_prev in batch.tgt_in.T:
        state = _lm_recur(lm, state, y_prev)
        hs.append(state[0])
    return T.concat(hs)


def lm_batch_loss(lm: RnnLm, batch) -> Tensor:
    """Mean (over sentences) summed NLL of a monolingual padded batch."""
    return _nll(_lm_logits(lm, _lm_teacher_forced(lm, batch)), batch)


# ---------------------------------------------------------------------------
# deep fusion
# ---------------------------------------------------------------------------

class Controller:
    """Scalar gate g = sigmoid(v_g . s_lm + b_g) scaling the LM state."""

    def __init__(self, lm_hidden: int, params: ParameterSet):
        self.v_g = params.add(Parameter("fuse.ctrl.v_g",
                                        np.zeros((lm_hidden, 1))))
        self.b_g = params.add(Parameter("fuse.ctrl.b_g", np.array([-1.0])))


def controller_gate(ctrl: Controller, s_lm: Tensor) -> Tensor:
    """Per-row scalar gate in (0, 1), shape (B, 1)."""
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


def _fused_logits(fm: FusedModel, h_lm: Tensor, s_tm, y_emb, ctx,
                  dropout_p: float, rng) -> tuple[Tensor, Tensor]:
    """The fused head: the gated LM state into the fused output layer."""
    g = controller_gate(fm.controller, h_lm)
    logits = deep_output(fm.out, s_tm, y_emb, ctx,
                         s_lm_gated=T.mul_colvec(h_lm, g),
                         dropout_p=dropout_p, rng=rng)
    return logits, g


def fused_step(fm: FusedModel, s_tm_prev: Tensor, lm_state_prev, y_prev,
               ann: AnnotationMatrix):
    """Advance decoder and LM in lockstep on the same previous token.

    Returns (s_tm, lm_state, log-probs, attention, gate)."""
    s_tm, y_emb, ctx, scores = _recur(fm.nmt, s_tm_prev, y_prev, ann)
    h_lm, c_lm = _lm_recur(fm.lm, lm_state_prev, y_prev)
    logits, g = _fused_logits(fm, h_lm, s_tm, y_emb, ctx, 0.0, None)
    return s_tm, (h_lm, c_lm), T.log_softmax(logits), scores, g


def fused_batch_loss(fm: FusedModel, batch, dropout_p: float = 0.0,
                     rng: Optional[np.random.Generator] = None) -> Tensor:
    """Mean summed NLL under the fused output distribution.  Both
    recurrences are frozen, so only the fused head is recorded."""
    logits, _ = _fused_logits(fm, _lm_teacher_forced(fm.lm, batch),
                              *_nmt_teacher_forced(fm.nmt, batch),
                              dropout_p, rng)
    return _nll(logits, batch)
