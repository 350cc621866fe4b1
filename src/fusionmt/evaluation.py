"""Corpus BLEU, language-model perplexity, and the gate-analysis report."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from . import decoding
from .data import DataError, pad_mono_batch
from .models import FusedModel, NmtModel, RnnLm, lm_batch_loss


@dataclass
class BleuReport:
    precisions: list[float]  # modified n-gram precisions p1..p4
    brevity_penalty: float
    candidate_length: int
    reference_length: int
    score: float  # in [0, 100]

    def __str__(self) -> str:
        ps = "/".join(f"{p * 100:.1f}" for p in self.precisions)
        return (f"BLEU = {self.score:.2f}, {ps} "
                f"(BP={self.brevity_penalty:.3f}, "
                f"hyp_len={self.candidate_length}, "
                f"ref_len={self.reference_length})")


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates: Sequence[Sequence], references: Sequence[Sequence],
         max_n: int = 4, smooth: bool = False) -> BleuReport:
    """Corpus-level BLEU with clipped n-gram counts and brevity penalty.

    ``references`` holds either one reference per candidate or a list of
    references per candidate.  Orders whose candidate n-gram count is zero
    corpus-wide are skipped; a zero precision (with smoothing off) makes the
    score 0.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references")
    matched = [0] * max_n
    total = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        if refs and not isinstance(refs[0], (list, tuple)):
            refs = [refs]
        cand = list(cand)
        cand_len += len(cand)
        # closest reference length, shorter wins ties (multi-bleu behaviour)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for n in range(1, max_n + 1):
            counts = _ngrams(cand, n)
            if not counts:
                continue
            clip: Counter = Counter()
            for r in refs:
                rc = _ngrams(r, n)
                for gram in counts:
                    clip[gram] = max(clip[gram], rc.get(gram, 0))
            total[n - 1] += sum(counts.values())
            matched[n - 1] += sum(min(c, clip[g]) for g, c in counts.items())

    precisions = []
    log_sum = 0.0
    used = 0
    zero = False
    for n in range(max_n):
        if total[n] == 0:
            precisions.append(0.0)
            continue
        m, t = matched[n], total[n]
        if smooth:
            m, t = m + 1, t + 1
        p = m / t
        precisions.append(p)
        used += 1
        if p == 0.0:
            zero = True
        else:
            log_sum += math.log(p)
    bp = 1.0 if cand_len > ref_len else (
        math.exp(1.0 - ref_len / cand_len) if cand_len > 0 else 0.0)
    if zero or used == 0 or cand_len == 0:
        score = 0.0
    else:
        score = bp * math.exp(log_sum / used) * 100.0
    return BleuReport(precisions=precisions, brevity_penalty=bp,
                      candidate_length=cand_len, reference_length=ref_len,
                      score=score)


def decode_bleu(pairs, beam_cfg: decoding.BeamConfig,
                nmt: Optional[NmtModel] = None, lm: Optional[RnnLm] = None,
                fused: Optional[FusedModel] = None) -> float:
    """Corpus BLEU of beam-decoding each pair's source against its target."""
    hyps = [decoding.translate(p.src, beam_cfg, nmt=nmt, lm=lm,
                               fused=fused).tokens for p in pairs]
    return bleu(hyps, [p.tgt for p in pairs]).score


@dataclass
class PerplexityReport:
    total_logprob: float
    token_count: int  # includes the end-of-sequence events
    perplexity: float

    def __str__(self) -> str:
        return (f"perplexity = {self.perplexity:.4f} "
                f"({self.token_count} tokens)")


def perplexity(lm: RnnLm, corpus: Sequence[Sequence[int]],
               batch_size: int = 64) -> PerplexityReport:
    """Exact per-token perplexity of the LM on id sequences (EOS counted)."""
    if not corpus:
        raise DataError("cannot compute perplexity on an empty corpus")
    total_nll = 0.0
    tokens = 0
    for start in range(0, len(corpus), batch_size):
        chunk = corpus[start : start + batch_size]
        batch = pad_mono_batch(chunk)
        # lm_batch_loss averages over sentences; undo to get the sum
        total_nll += lm_batch_loss(lm, batch).item() * batch.size
        tokens += int(batch.tgt_mask.sum())
    return PerplexityReport(total_logprob=-total_nll, token_count=tokens,
                            perplexity=math.exp(total_nll / tokens))


def analysis_report(perp: Optional[PerplexityReport], gates) -> str:
    """Plain-text table with the LM perplexity and gate statistics, plus
    machine-readable key=value lines."""
    rows = []
    if perp is not None:
        rows.append(("perplexity", f"{perp.perplexity:.4f}"))
    rows.append(("avg_gate", f"{gates.mean:.4f}"))
    rows.append(("std_gate", f"{gates.std:.4f}"))
    width = max(len(k) for k, _ in rows)
    lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
    lines.append("")
    lines.extend(f"{k}={v}" for k, v in rows)
    return "\n".join(lines)
