"""The three composed networks: the attention encoder-decoder translation
model, the LSTM language model, and the deep-fusion composite with its
controller gate.

All forward procedures are batched: states are (B, d) matrices and token
inputs are (T, B) id arrays, T = 1 for a decode step.  Beam decoding stacks
the live hypotheses of a step into the B rows.  Each model is a recurrence,
one call over all T steps, plus an output head over any number of rows:
the recurrent op returns its outputs as the head's step-major (T*B, .) rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
    """A model config whose fields are all sizes, each at least 1."""

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigurationError(f"{f.name} must be >= 1")


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
    alpha: Tensor  # (T_tgt*B, T) step-major rows, each sums to 1


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
    x = model.src_emb.lookup(src.T)  # (T, B, e)
    s0 = T.constant(np.zeros((len(src), model.cfg.hidden)))
    # padded rows keep their previous (zero) state
    keep = None if src_mask is None else np.asarray(src_mask).T[:, :, None]
    fwd, _ = gru_step(model.enc_fwd, s0, x, keep)
    bwd, bwd_first = gru_step(model.enc_bwd, s0, x, keep, reverse=True)
    h = T.transpose(T.concat([bwd, fwd], axis=2))
    return AnnotationMatrix(h=h, proj=T.matmul(h, model.attn["U_a"].value),
                            mask=np.ones(src.shape) if src_mask is None
                            else np.asarray(src_mask, dtype=np.float64),
                            bwd_first=bwd_first)


def initial_state(model: NmtModel, ann: AnnotationMatrix) -> Tensor:
    """s_0 = tanh(W_init . backward-encoder first state)."""
    return T.tanh(T.matmul(ann.bwd_first, model.W_init.value, model.b_init.value))


def attend(model: NmtModel, s_prev: Tensor, y_emb: Tensor,
           ann: AnnotationMatrix) -> tuple[AttentionScores, Tensor, Tensor]:
    """Additive attention queried by the previous state and word embedding,
    then the decoder GRU on [y; c], for all steps of a (T, B, e) ``y_emb``
    as one node.  Returns each step's scores, context c = sum_j alpha_j h_j
    and new state, each as step-major (T*B, .) rows."""
    a = model.attn
    alpha, ctx, s = T.attention_gru(
        s_prev, y_emb, ann.proj, ann.h, ann.mask,
        [a[k].value for k in ("W_a", "V_a", "b_a", "v_a")],
        model.decoder.weights)
    return AttentionScores(alpha=alpha), ctx, s


def _recur(model: NmtModel, s_prev: Tensor, y_prev, ann: AnnotationMatrix,
           ) -> tuple[Tensor, Tensor, Tensor, AttentionScores]:
    """Embed the (T, B) previous-word ids, attend and advance the decoder
    GRU over all T steps; returns (states, previous-word embeddings,
    contexts, attention), each as step-major (T*B, .) rows."""
    y_emb = model.tgt_emb.lookup(y_prev)
    scores, ctx, s_new = attend(model, s_prev, y_emb, ann)
    return s_new, T.reshape(y_emb, (-1, y_emb.shape[2])), ctx, scores


def decode_step(model: NmtModel, s_prev: Tensor, y_prev,
                ann: AnnotationMatrix) -> tuple[Tensor, Tensor, AttentionScores]:
    """One decoder step: attend, recur, deep output, log-softmax.

    Returns (new state, log-probs over the target vocab, attention)."""
    s_new, y_emb, ctx, scores = _recur(model, s_prev, [y_prev], ann)
    logits = deep_output(model.out, s_new, y_emb, ctx)
    return s_new, T.log_softmax(logits), scores


def _nll(logits: Tensor, batch) -> Tensor:
    """Mean (over sentences) summed NLL under step-major (T*B, V) logits."""
    return T.nll(logits, batch.tgt_out.T.ravel(), batch.tgt_mask.T.ravel(),
                 -1.0 / batch.tgt_in.shape[0])


def _nmt_teacher_forced(model: NmtModel, batch) -> tuple[Tensor, ...]:
    """The decoder recurrence over a padded batch in one call: the head
    inputs (states, previous-word embeddings, contexts) as (T*B, .) rows."""
    ann = encode(model, batch.src, batch.src_mask)
    return _recur(model, initial_state(model, ann), batch.tgt_in.T, ann)[:3]


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
    """Embed the (T, B) previous-word ids and advance the LSTM over all T
    steps: every step's h as step-major (T*B, d) rows, and the last c."""
    return lstm_step(lm.lstm, state, lm.tgt_emb.lookup(y_prev))


def _lm_logits(lm: RnnLm, h: Tensor) -> Tensor:
    """The LM's head: its output projection."""
    return T.matmul(h, T.transpose(lm.W_out.value), lm.b_out.value)


def lm_step(lm: RnnLm, state: tuple[Tensor, Tensor], y_prev,
            ) -> tuple[tuple[Tensor, Tensor], Tensor]:
    """Advance the LM one token; returns (new state, log-probs)."""
    h, c = _lm_recur(lm, state, [y_prev])
    return (h, c), T.log_softmax(_lm_logits(lm, h))


def lm_batch_loss(lm: RnnLm, batch) -> Tensor:
    """Mean (over sentences) summed NLL of a monolingual padded batch."""
    h, _ = _lm_recur(lm, lm.initial_state(batch.size), batch.tgt_in.T)
    return _nll(_lm_logits(lm, h), batch)


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
    return T.sigmoid(T.matmul(s_lm, ctrl.v_g.value, ctrl.b_g.value))


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
    s_tm, y_emb, ctx, scores = _recur(fm.nmt, s_tm_prev, [y_prev], ann)
    h_lm, c_lm = _lm_recur(fm.lm, lm_state_prev, [y_prev])
    logits, g = _fused_logits(fm, h_lm, s_tm, y_emb, ctx, 0.0, None)
    return s_tm, (h_lm, c_lm), T.log_softmax(logits), scores, g


def fused_batch_loss(fm: FusedModel, batch, dropout_p: float = 0.0,
                     rng: Optional[np.random.Generator] = None) -> Tensor:
    """Mean summed NLL under the fused output distribution.  Both
    recurrences are frozen, so only the fused head is recorded."""
    h_lm, _ = _lm_recur(fm.lm, fm.lm.initial_state(batch.size),
                        batch.tgt_in.T)
    logits, _ = _fused_logits(fm, h_lm, *_nmt_teacher_forced(fm.nmt, batch),
                              dropout_p, rng)
    return _nll(logits, batch)
