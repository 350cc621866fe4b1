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

Decoding is forward-only (no tape) and read-only with respect to the models.
"""

from __future__ import annotations

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


@dataclass
class ShallowConfig:
    beta: float = 0.0
    exclusion: frozenset = frozenset({EOS_ID, UNK_ID})

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")


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
        if self.fusion not in ("none", "shallow", "deep"):
            raise ValueError(f"unknown fusion mode {self.fusion!r}")

    def max_output_length(self, source_length: int) -> int:
        return self.max_len_factor * source_length + self.max_len_offset


@dataclass
class Hypothesis:
    tokens: list[int]
    score: float
    s_tm: object  # decoder state tensor, (1, d)
    lm_state: object = None  # (h, c) when fusing
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
    out = np.full_like(lm_logp, -np.inf)
    out[..., mask] = keep - lse
    return out


def shallow_score(tm_logp: np.ndarray, lm_logp_renorm: np.ndarray,
                  beta: float, exclusion=frozenset({EOS_ID, UNK_ID}),
                  ) -> np.ndarray:
    """Per-word combined score: tm + beta * lm, tm-only for excluded tokens."""
    tm_logp = np.asarray(tm_logp, dtype=np.float64)
    lm_logp_renorm = np.asarray(lm_logp_renorm, dtype=np.float64)
    if tm_logp.shape != lm_logp_renorm.shape:
        raise T.ShapeError(
            f"shallow_score: shapes {tm_logp.shape} vs {lm_logp_renorm.shape}")
    lm_term = np.where(np.isfinite(lm_logp_renorm), lm_logp_renorm, 0.0)
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
        if cfg.fusion == "deep":
            if fused is None:
                raise ConfigurationError("deep fusion needs a fused model")
            self.fused = fused
            self.nmt = fused.nmt
            self.lm = fused.lm
        else:
            if nmt is None:
                raise ConfigurationError("decoding needs an NMT model")
            self.fused = None
            self.nmt = nmt
            self.lm = lm
            if cfg.fusion == "shallow":
                if lm is None:
                    raise ConfigurationError("shallow fusion needs an LM")
                if lm.cfg.vocab != nmt.cfg.tgt_vocab:
                    raise ConfigurationError(
                        f"LM vocab {lm.cfg.vocab} != target vocab "
                        f"{nmt.cfg.tgt_vocab}")
        self.ann: Optional[AnnotationMatrix] = None

    def start(self, source_ids) -> Hypothesis:
        self.ann = encode(self.nmt, source_ids)
        s0 = initial_state(self.nmt, self.ann)
        lm_state = None
        if self.cfg.fusion in ("shallow", "deep"):
            lm_state = self.lm.initial_state(1)
        return Hypothesis(tokens=[], score=0.0, s_tm=s0, lm_state=lm_state)

    def expand(self, hyp: Hypothesis):
        """Score every next word for one hypothesis.

        Returns (selection log-probs, final log-probs, successor fields)."""
        y_prev = hyp.tokens[-1] if hyp.tokens else BOS_ID
        if self.cfg.fusion == "deep":
            s_tm, lm_state, logp, scores, g = fused_step(
                self.fused, hyp.s_tm, hyp.lm_state, y_prev, self.ann)
            dist = logp.data[0]
            return dist, dist, s_tm, lm_state, scores.alpha.data[0], float(g.data[0, 0])
        s_tm, logp, scores = decode_step(self.nmt, hyp.s_tm, y_prev, self.ann)
        tm = logp.data[0]
        lm_state = None
        final = tm
        if self.cfg.fusion == "shallow":
            lm_state, lm_logp = lm_step(self.lm, hyp.lm_state, y_prev)
            sc = self.cfg.shallow
            renorm = lm_renormalize(lm_logp.data[0], sc.exclusion)
            final = shallow_score(tm, renorm, sc.beta, sc.exclusion)
        return tm, final, s_tm, lm_state, scores.alpha.data[0], None


def beam_step(hyps: Sequence[Hypothesis], scorer: BeamScorer,
              cfg: BeamConfig) -> list[Hypothesis]:
    """One beam iteration: expand live hypotheses, preselect, rescore, and
    keep the top K of the merged (finished + new) pool."""
    live = [h for h in hyps if not h.finished]
    done = [h for h in hyps if h.finished]
    if not live:
        return list(hyps)
    k_width = cfg.beam_width
    candidates = []  # (selection score, hyp index, token, final score, exp)
    expansions = []
    for i, h in enumerate(live):
        exp = scorer.expand(h)
        expansions.append(exp)
        sel, fin = exp[0], exp[1]
        for k in range(sel.shape[0]):
            candidates.append((h.score + sel[k], i, k, h.score + fin[k]))
    # preselection: TM-based scores for shallow fusion, final scores otherwise
    candidates.sort(key=lambda c: (-c[0], c[2], len(live[c[1]].tokens)))
    new = []
    for _, i, k, fin in candidates[:k_width]:
        h = live[i]
        _, _, s_tm, lm_state, alpha, gate = expansions[i]
        new.append(Hypothesis(
            tokens=h.tokens + [k],
            score=fin,
            s_tm=s_tm,
            lm_state=lm_state,
            attention=h.attention + [alpha],
            gates=h.gates + [gate] if gate is not None else h.gates,
            finished=(k == EOS_ID),
        ))
    pool = done + new
    pool.sort(key=lambda h: h.sort_key(cfg.length_normalize))
    return pool[:k_width]


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
                source_tokens: Sequence[str],
                unk_token: str = RESERVED[UNK_ID]) -> list[str]:
    """Replace each unknown output token with the source token its attention
    row points at (argmax; leftmost on ties).  The appended source
    end-of-sequence column is ignored."""
    out = list(target_tokens)
    n_src = len(source_tokens)
    for i, tok in enumerate(out):
        if tok == unk_token and i < attention.shape[0] and n_src > 0:
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


def default_beta_grid(n: int = 7, lo: float = 0.001, hi: float = 0.1) -> list[float]:
    """Log-spaced beta candidates in the tuning range."""
    return [float(x) for x in np.geomspace(lo, hi, n)]
