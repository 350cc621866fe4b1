"""BLEU, perplexity, and the gate-analysis report."""

import math

import numpy as np
import pytest

from fusionmt.data import DataError
from fusionmt.decoding import GateStats, gate_stats
from fusionmt.evaluation import analysis_report, bleu, perplexity
from fusionmt.models import LmConfig, RnnLm


class TestBleu:
    def test_identical_is_100(self):
        cands = [["a", "b", "c", "d"], ["x", "y"]]
        report = bleu(cands, [list(c) for c in cands])
        assert report.score == pytest.approx(100.0, abs=1e-12)
        assert report.brevity_penalty == 1.0

    def test_zero_overlap_is_0(self):
        assert bleu([["a", "b"]], [["x", "y"]]).score == 0.0

    def test_hand_computed_example(self):
        # candidate "the cat sat" vs reference "the cat sat down":
        #   p1 = 3/3, p2 = 2/2, p3 = 1/1, no 4-grams -> order skipped
        #   BP = exp(1 - 4/3)
        report = bleu([["the", "cat", "sat"]],
                      [["the", "cat", "sat", "down"]])
        want = math.exp(1.0 - 4.0 / 3.0) * 100.0
        assert report.score == pytest.approx(want, abs=1e-6)
        assert report.precisions == [1.0, 1.0, 1.0, 0.0]
        assert report.brevity_penalty == pytest.approx(math.exp(1.0 - 4.0 / 3.0))
        assert (report.candidate_length, report.reference_length) == (3, 4)

    def test_clipping(self):
        # "the the the" against "the cat": unigram "the" clipped at 1
        report = bleu([["the", "the", "the"]], [["the", "cat"]])
        assert report.precisions[0] == pytest.approx(1.0 / 3.0)

    def test_corpus_level_not_average(self):
        # matched/total counts pool across sentences before dividing
        report = bleu([["a", "b"], ["c", "c"]],
                      [["a", "b"], ["c", "d"]])
        assert report.precisions[0] == pytest.approx(3.0 / 4.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [])

    def test_empty_reference_has_zero_length(self):
        report = bleu([["a", "b"], ["c"]], [["a", "b"], []])
        assert report.reference_length == 2
        assert report.precisions[0] == pytest.approx(2.0 / 3.0)

    def test_empty_candidate(self):
        assert bleu([[]], [["a"]]).score == 0.0


class TestPerplexity:
    def test_uniform_lm_equals_vocab_size(self):
        lm = RnnLm(LmConfig(vocab=6, embed_dim=3, hidden=4),
                   np.random.default_rng(0))
        for p in lm.params:
            p.value.data[...] = 0.0
        report = perplexity(lm, [[3, 4, 5], [3]])
        assert report.perplexity == pytest.approx(6.0, abs=1e-10)
        assert report.token_count == 6  # 4 + 2 end-of-sequence events

    def test_deterministic_across_evaluations(self):
        lm = RnnLm(LmConfig(vocab=6, embed_dim=3, hidden=4),
                   np.random.default_rng(1))
        corpus = [[3, 4], [5, 3, 4]]
        assert perplexity(lm, corpus).perplexity == \
            perplexity(lm, corpus).perplexity

    def test_batching_does_not_change_result(self):
        lm = RnnLm(LmConfig(vocab=6, embed_dim=3, hidden=4),
                   np.random.default_rng(2))
        corpus = [[3, 4, 5], [3], [4, 4], [5, 5, 5, 3]]
        a = perplexity(lm, corpus, batch_size=1).perplexity
        b = perplexity(lm, corpus, batch_size=4).perplexity
        assert a == pytest.approx(b, abs=1e-10)

    def test_mean_nll_beyond_the_largest_float_is_inf(self):
        # tokens 3, 4 and end-of-sequence each score -5000 nats, so exp of
        # the mean NLL overflows
        lm = RnnLm(LmConfig(vocab=6, embed_dim=3, hidden=4),
                   np.random.default_rng(0))
        for p in lm.params:
            p.value.data[...] = 0.0
        lm.b_out.value.data[5] = 5000.0
        report = perplexity(lm, [[3, 4]])
        assert report.perplexity == math.inf
        assert report.total_logprob == pytest.approx(-15000.0, rel=1e-12)
        assert str(report) == "perplexity = inf (3 tokens)"

    def test_empty_corpus_rejected(self):
        lm = RnnLm(LmConfig(vocab=6, embed_dim=3, hidden=4),
                   np.random.default_rng(0))
        with pytest.raises(DataError):
            perplexity(lm, [])


class TestGateStats:
    def test_constant_traces(self):
        stats = gate_stats([[0.25, 0.25], [0.25]])
        assert stats.mean == 0.25
        assert stats.std == 0.0

    def test_two_point(self):
        stats = gate_stats([[0.1, 0.3]])
        assert stats.mean == pytest.approx(0.2)
        assert stats.std == pytest.approx(0.1)

    def test_empty_rejected(self):
        import pytest as _pytest
        from fusionmt import tensor as T
        with _pytest.raises(T.DomainError):
            gate_stats([[], []])


class TestAnalysisReport:
    def test_values_match_fields_verbatim(self):
        stats = GateStats(mean=0.268941, std=0.001234, traces=[])
        text = analysis_report(None, stats)
        assert "avg_gate=0.2689" in text
        assert "std_gate=0.0012" in text

    def test_includes_perplexity_row(self):
        lm = RnnLm(LmConfig(vocab=5, embed_dim=3, hidden=4),
                   np.random.default_rng(0))
        for p in lm.params:
            p.value.data[...] = 0.0
        perp = perplexity(lm, [[3, 4]])
        stats = GateStats(mean=0.5, std=0.0, traces=[])
        text = analysis_report(perp, stats)
        assert "perplexity=5.0000" in text
        assert text.splitlines()[0].startswith("perplexity")
