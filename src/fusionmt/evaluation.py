"""Corpus BLEU, language-model perplexity, and the gate-analysis report."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from . import decoding
from .data import DataError, pad_mono_batch
from .models import RnnLm, lm_batch_loss


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


def bleu(candidates: Sequence[Sequence],
         references: Sequence[Sequence]) -> BleuReport:
    """Corpus-level BLEU-4 with clipped n-gram counts and brevity penalty.

    ``references`` holds one token sequence per candidate; an empty one is a
    zero-length reference.  Orders whose candidate n-gram count is zero
    corpus-wide are skipped; a zero precision makes the score 0.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references")
    matched, total = [0] * 4, [0] * 4
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            counts = _ngrams(cand, n)
            if not counts:
                continue
            clip = _ngrams(ref, n)
            total[n - 1] += sum(counts.values())
            matched[n - 1] += sum(min(c, clip[g]) for g, c in counts.items())

    precisions = [m / t if t else 0.0 for m, t in zip(matched, total)]
    used = [p for p, t in zip(precisions, total) if t]
    bp = 1.0 if cand_len > ref_len else (
        math.exp(1.0 - ref_len / cand_len) if cand_len > 0 else 0.0)
    if 0.0 in used or cand_len == 0:  # no candidate token: no order used
        score = 0.0
    else:
        score = bp * math.exp(sum(map(math.log, used)) / len(used)) * 100.0
    return BleuReport(precisions=precisions, brevity_penalty=bp,
                      candidate_length=cand_len, reference_length=ref_len,
                      score=score)


def decode_bleu(pairs, beam_cfg: decoding.BeamConfig, **models) -> float:
    """Corpus BLEU of beam-decoding each pair's source against its target
    with the ``translate`` keyword ``models``."""
    hyps = [decoding.translate(p.src, beam_cfg, **models).tokens for p in pairs]
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
    """Exact per-token perplexity of the LM on id sequences (EOS counted);
    inf where it exceeds the largest float."""
    if not corpus:
        raise DataError("cannot compute perplexity on an empty corpus")
    total_nll = 0.0
    tokens = 0
    for start in range(0, len(corpus), batch_size):
        batch = pad_mono_batch(corpus[start : start + batch_size])
        # lm_batch_loss averages over sentences; undo to get the sum
        total_nll += lm_batch_loss(lm, batch).item() * batch.size
        tokens += int(batch.tgt_mask.sum())
    try:
        ppl = math.exp(total_nll / tokens)
    except OverflowError:  # a mean NLL above about 709.8 nats
        ppl = math.inf
    return PerplexityReport(total_logprob=-total_nll, token_count=tokens,
                            perplexity=ppl)


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
