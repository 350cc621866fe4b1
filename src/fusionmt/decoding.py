"""Beam-search decoding with optional language-model fusion.

Three scoring modes share one beam loop:

* ``none``      — translation-model log-probs only.
* ``shallow``   — candidates are preselected by translation-model score and
                  then rescored with the beta-weighted LM log-prob of the new
                  word; the LM softmax is renormalized without the
                  end-of-sequence and unknown symbols.
* ``deep``      — the fused model's output distribution; the LM state
                  advances in lockstep and the controller gate is recorded
                  per emitted token.

Each beam step runs the models once, on the live hypotheses stacked into
rows; a hypothesis holds the index of its row.  Decoding is forward-only
(no tape) and read-only with respect to the models; a NaN or infinite score
raises NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID, UNK_ID, RESERVED
from .models import (
    AnnotationMatrix,
    ConfigurationError,
    FusedModel,
    NmtModel,
    RnnLm,
    decode_step,
    encode,
    fused_step,
    initial_state,
    lm_step,
)
from .tensor import NumericError

# the tokens shallow fusion scores without an LM term
SHALLOW_EXCLUSION = frozenset({EOS_ID, UNK_ID})
# fusion mode -> the models it decodes with, as ``translate`` keywords
MODELS = {"none": ("nmt",), "shallow": ("nmt", "lm"), "deep": ("fused",)}
# the default sweep-beta grid: 7 log-spaced values over the tuning range
BETA_GRID = tuple(float(x) for x in np.geomspace(0.001, 0.1, 7))


@dataclass
class ShallowConfig:
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.beta < math.inf:  # written so that NaN fails
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass
class BeamConfig:
    beam_width: int = 10
    fusion: str = "none"  # none | shallow | deep
    shallow: ShallowConfig = field(default_factory=ShallowConfig)
    max_len_factor: int = 3
    max_len_offset: int = 5
    length_normalize: bool = False

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")
        if self.fusion not in MODELS:
            raise ValueError(f"unknown fusion mode {self.fusion!r}")

    def max_output_length(self, source_length: int) -> int:
        return self.max_len_factor * source_length + self.max_len_offset


@dataclass
class Hypothesis:
    tokens: list[int]
    score: float
    row: int = 0  # row of the scorer's last-step states that continues it
    attention: list = field(default_factory=list)  # one alpha row per token
    gates: list = field(default_factory=list)  # deep fusion only
    finished: bool = False

    def sort_key(self, length_normalize: bool = False):
        s = self.score / max(1, len(self.tokens)) if length_normalize else self.score
        return (-s, tuple(self.tokens))


def lm_renormalize(lm_logp: np.ndarray, exclusion) -> np.ndarray:
    """Renormalize LM log-probs over the non-excluded tokens, row-wise over
    the last axis of a (V,) or (K, V) array.

    Excluded entries are set to -inf; the caller scores them without an LM
    term."""
    lm_logp = np.asarray(lm_logp, dtype=np.float64)
    excl = sorted(exclusion)
    if len(excl) >= lm_logp.shape[-1]:
        raise T.DomainError("exclusion set covers the entire vocabulary")
    mask = np.ones(lm_logp.shape[-1], dtype=bool)
    mask[excl] = False
    keep = lm_logp[..., mask]
    m = keep.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(keep - m).sum(axis=-1, keepdims=True))
    out = lm_logp - lse
    out[..., excl] = -np.inf
    return out


def shallow_score(tm_logp: np.ndarray, lm_logp_renorm: np.ndarray,
                  beta: float, exclusion=SHALLOW_EXCLUSION) -> np.ndarray:
    """Per-word combined score: tm + beta * lm, tm-only for excluded tokens."""
    tm_logp = np.asarray(tm_logp, dtype=np.float64)
    lm_logp_renorm = np.asarray(lm_logp_renorm, dtype=np.float64)
    if tm_logp.shape != lm_logp_renorm.shape:
        raise T.ShapeError(
            f"shallow_score: shapes {tm_logp.shape} vs {lm_logp_renorm.shape}")
    lm_term = np.where(lm_logp_renorm == -np.inf, 0.0, lm_logp_renorm)
    out = tm_logp + beta * lm_term
    excl = sorted(exclusion)
    out[..., excl] = tm_logp[..., excl]
    return out


class BeamScorer:
    """Binds the models and the source annotations for one beam decode."""

    def __init__(self, cfg: BeamConfig, nmt: Optional[NmtModel] = None,
                 lm: Optional[RnnLm] = None,
                 fused: Optional[FusedModel] = None):
        self.cfg = cfg
        given = {"nmt": nmt, "lm": lm, "fused": fused}
        for role in MODELS[cfg.fusion]:
            if given[role] is None:
                raise ConfigurationError(
                    f"{cfg.fusion!r}-mode decoding needs the {role} model")
        self.nmt, self.lm, self.fused = (
            (fused.nmt, fused.lm, fused) if cfg.fusion == "deep" else (nmt, lm, None))
        if cfg.fusion == "shallow" and lm.cfg.vocab != nmt.cfg.tgt_vocab:
            raise ConfigurationError(
                f"LM vocab {lm.cfg.vocab} != target vocab {nmt.cfg.tgt_vocab}")
        self.ann: Optional[AnnotationMatrix] = None  # every row reads it
        # the last step's stacked states, one row per hypothesis: the
        # decoder state, plus the LM (h, c) when fusing
        self._states: tuple = ()
        self._step: tuple = ()  # the last score's rows, stacked

    def start(self, source_ids) -> Hypothesis:
        self.ann = encode(self.nmt, source_ids)
        self._states = (initial_state(self.nmt, self.ann).data,)
        if self.cfg.fusion != "none":
            self._states += tuple(x.data for x in self.lm.initial_state(1))
        return Hypothesis(tokens=[], score=0.0)

    def score(self, hyps: Sequence[Hypothesis]):
        """Run the models once over the stacked hypotheses and score every
        next word of each; ``expand`` then reads one hypothesis's row.

        Returns the (n, V) selection and final log-probs.  Raises
        NumericError if any final score is NaN or infinite."""
        rows = [h.row for h in hyps]
        s_prev, *lm_prev = (T.constant(x[rows]) for x in self._states)
        y_prev = [h.tokens[-1] if h.tokens else BOS_ID for h in hyps]
        gates = None
        if self.cfg.fusion == "deep":
            s_tm, lm_state, logp, scores, g = fused_step(
                self.fused, s_prev, lm_prev, y_prev, self.ann)
            gates = g.data[:, 0].tolist()
        else:
            s_tm, logp, scores = decode_step(self.nmt, s_prev, y_prev,
                                             self.ann)
            lm_state = ()
        sel = final = logp.data
        if self.cfg.fusion == "shallow":
            lm_state, lm_logp = lm_step(self.lm, lm_prev, y_prev)
            renorm = lm_renormalize(lm_logp.data, SHALLOW_EXCLUSION)
            final = shallow_score(sel, renorm, self.cfg.shallow.beta)
        # one reduction: a NaN or an infinity anywhere makes the sum one
        if not math.isfinite(final.sum()):
            raise NumericError(
                f"non-finite {self.cfg.fusion!r}-mode decoding scores at "
                f"output position {len(hyps[0].tokens) + 1}")
        self._states = tuple(x.data for x in (s_tm, *lm_state))
        self._step = (sel, final, scores.alpha.data, gates)
        return sel, final

    def expand(self, i: int):
        """Row ``i`` of the last ``score``: (selection log-probs, final
        log-probs, attention, gate or None).  A successor of that
        hypothesis continues from ``row=i``."""
        sel, final, alpha, gates = self._step
        return sel[i], final[i], alpha[i], None if gates is None else gates[i]


def beam_step(hyps: Sequence[Hypothesis], scorer: BeamScorer,
              cfg: BeamConfig) -> list[Hypothesis]:
    """One beam iteration: expand live hypotheses, preselect, rescore, and
    keep the top K of the merged (finished + new) pool."""
    live = [h for h in hyps if not h.finished]
    done = [h for h in hyps if h.finished]
    if not live:
        return list(hyps)
    sel, final = scorer.score(live)
    n = len(live)
    expansions = [scorer.expand(i) for i in range(n)]
    prior = [h.score for h in live]
    # preselection: TM-based scores for shallow fusion, final scores
    # otherwise.  Flattened token-major, a stable sort breaks ties by token
    # id, then by hypothesis order.
    ranked = -(np.array(prior)[:, None] + sel)
    order = ranked.T.argsort(axis=None, kind="stable")[:cfg.beam_width]
    new = []
    for j in order.tolist():
        k, i = divmod(j, n)
        h = live[i]
        _, _, alpha, gate = expansions[i]
        new.append(Hypothesis(
            tokens=h.tokens + [k],
            score=prior[i] + final[i, k],
            row=i,
            attention=h.attention + [alpha],
            gates=h.gates + [gate] if gate is not None else h.gates,
            finished=(k == EOS_ID),
        ))
    pool = done + new
    pool.sort(key=lambda h: h.sort_key(cfg.length_normalize))
    return pool[:cfg.beam_width]


@dataclass
class TranslationResult:
    tokens: list[int]  # output ids, end-of-sequence stripped
    score: float
    attention: np.ndarray  # one row per emitted token (EOS step included)
    gates: list[float]
    finished: bool


def translate(source_ids: Sequence[int], cfg: BeamConfig,
              nmt: Optional[NmtModel] = None, lm: Optional[RnnLm] = None,
              fused: Optional[FusedModel] = None) -> TranslationResult:
    """Full beam decode of one source sentence."""
    scorer = BeamScorer(cfg, nmt=nmt, lm=lm, fused=fused)
    hyps = [scorer.start(source_ids)]
    max_len = cfg.max_output_length(len(source_ids))
    for _ in range(max_len):
        hyps = beam_step(hyps, scorer, cfg)
        if all(h.finished for h in hyps):
            break
    finished = [h for h in hyps if h.finished]
    best = min(finished or hyps,
               key=lambda h: h.sort_key(cfg.length_normalize))
    tokens = best.tokens[:-1] if best.finished else best.tokens
    att = (np.stack(best.attention) if best.attention
           else np.zeros((0, len(source_ids) + 1)))
    return TranslationResult(tokens=tokens, score=best.score, attention=att,
                             gates=list(best.gates), finished=best.finished)


def replace_unk(target_tokens: Sequence[str], attention: np.ndarray,
                source_tokens: Sequence[str]) -> list[str]:
    """Replace each unknown output token with the source token its attention
    row points at (argmax; leftmost on ties).  The appended source
    end-of-sequence column is ignored."""
    out = list(target_tokens)
    n_src = len(source_tokens)
    for i, tok in enumerate(out):
        if tok == RESERVED[UNK_ID] and i < attention.shape[0] and n_src > 0:
            j = int(np.argmax(attention[i, :n_src]))
            out[i] = source_tokens[j]
    return out


@dataclass
class GateStats:
    mean: float
    std: float  # population standard deviation
    traces: list


def gate_stats(traces: Sequence[Sequence[float]]) -> GateStats:
    """Mean and population std of the controller gate over all emitted
    tokens of a decoded corpus."""
    values = [g for tr in traces for g in tr]
    if not values:
        raise T.DomainError("gate_stats: no gate values recorded")
    arr = np.asarray(values, dtype=np.float64)
    return GateStats(mean=float(arr.mean()), std=float(arr.std()),
                     traces=[list(tr) for tr in traces])
