"""Beam search, fusion scoring, renormalization, and UNK replacement.

The central oracle is exhaustive enumeration: on a vocabulary of 4 with a
short length cap, a wide-enough beam must return the same sequence and
score as brute-force argmax over every candidate output.
"""

import itertools
import math

import numpy as np
import pytest

from fusionmt import tensor as T
from fusionmt.data import EOS_ID, UNK_ID, RESERVED, SentencePair
from fusionmt.decoding import (
    BeamConfig,
    BeamScorer,
    Hypothesis,
    ShallowConfig,
    beam_step,
    gate_stats,
    lm_renormalize,
    replace_unk,
    shallow_score,
    translate,
)
from fusionmt.evaluation import bleu, decode_bleu
from fusionmt.models import (
    ConfigurationError,
    FusedModel,
    LmConfig,
    NmtConfig,
    NmtModel,
    RnnLm,
    decode_step,
    encode,
    fused_step,
    initial_state,
    lm_step,
)

RNG = np.random.default_rng(21)


def small_models(vocab=4, seed=0):
    nmt = NmtModel(NmtConfig(src_vocab=5, tgt_vocab=vocab, embed_dim=3,
                             hidden=4), np.random.default_rng(seed))
    lm = RnnLm(LmConfig(vocab=vocab, embed_dim=3, hidden=4),
               np.random.default_rng(seed + 1))
    fused = FusedModel(
        NmtModel(NmtConfig(src_vocab=5, tgt_vocab=vocab, embed_dim=3,
                           hidden=4), np.random.default_rng(seed)),
        RnnLm(LmConfig(vocab=vocab, embed_dim=3, hidden=4),
              np.random.default_rng(seed + 1)),
        np.random.default_rng(seed + 2))
    # make the fused path depart from the baseline
    rng = np.random.default_rng(seed + 3)
    fused.out.W_h.value.data[: fused.lm.cfg.hidden, :] = \
        rng.standard_normal((fused.lm.cfg.hidden,
                             fused.out.W_h.value.shape[1])) * 0.5
    fused.controller.v_g.value.data[...] = rng.standard_normal((4, 1)) * 0.5
    return nmt, lm, fused


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

class TestConfigs:
    def test_bad_beam_width(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_width=0)

    def test_bad_fusion_mode(self):
        with pytest.raises(ValueError):
            BeamConfig(fusion="medium")

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            ShallowConfig(beta=-0.1)

    def test_max_output_length(self):
        assert BeamConfig().max_output_length(4) == 17

    def test_missing_models(self):
        with pytest.raises(ConfigurationError):
            BeamScorer(BeamConfig(), nmt=None)
        nmt, _, fused = small_models()
        with pytest.raises(ConfigurationError):
            BeamScorer(BeamConfig(fusion="shallow"), nmt=nmt, lm=None)
        with pytest.raises(ConfigurationError):
            BeamScorer(BeamConfig(fusion="deep"), fused=None)

    def test_vocab_mismatch(self):
        nmt, _, _ = small_models(vocab=4)
        _, lm6, _ = small_models(vocab=6)
        with pytest.raises(ConfigurationError):
            BeamScorer(BeamConfig(fusion="shallow"), nmt=nmt, lm=lm6)


# ---------------------------------------------------------------------------
# renormalization and shallow scoring
# ---------------------------------------------------------------------------

class TestLmRenormalize:
    def test_empty_exclusion_identity(self):
        logp = np.log(np.array([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_allclose(lm_renormalize(logp, frozenset()), logp,
                                   atol=1e-12)

    def test_uniform_exclude_one(self):
        logp = np.log(np.full(4, 0.25))
        out = lm_renormalize(logp, {1})
        np.testing.assert_allclose(out[[0, 2, 3]], math.log(1.0 / 3.0),
                                   atol=1e-12)
        assert out[1] == -np.inf

    def test_included_mass_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.random(10) + 1e-3
            p /= p.sum()
            out = lm_renormalize(np.log(p), {EOS_ID, UNK_ID})
            total = np.exp(out[[i for i in range(10)
                                if i not in (EOS_ID, UNK_ID)]]).sum()
            assert abs(total - 1.0) < 1e-12

    def test_full_exclusion_rejected(self):
        with pytest.raises(T.DomainError):
            lm_renormalize(np.zeros(2), {0, 1})

    def test_rows_equal_single_row_calls(self):
        rng = np.random.default_rng(1)
        logp = np.log(rng.dirichlet(np.ones(9), size=5))  # (K, V)
        out = lm_renormalize(logp, {EOS_ID, UNK_ID})
        want = np.stack([lm_renormalize(row, {EOS_ID, UNK_ID}) for row in logp])
        np.testing.assert_array_equal(out, want)


class TestShallowScore:
    def test_beta_zero_identity(self):
        tm = np.log(np.full(5, 0.2))
        lm = lm_renormalize(np.log(np.full(5, 0.2)), {EOS_ID, UNK_ID})
        np.testing.assert_array_equal(shallow_score(tm, lm, 0.0), tm)

    def test_uniform_lm_constant_shift(self):
        rng = np.random.default_rng(1)
        tm = np.log(rng.dirichlet(np.ones(6)))
        lm = lm_renormalize(np.log(np.full(6, 1.0 / 6.0)), {EOS_ID, UNK_ID})
        out = shallow_score(tm, lm, 1.0)
        included = [i for i in range(6) if i not in (EOS_ID, UNK_ID)]
        # constant shift: candidate ranking unchanged within included ids
        assert list(np.argsort(out[included])) == \
            list(np.argsort(tm[included]))
        np.testing.assert_allclose(out[included] - tm[included],
                                   math.log(0.25), atol=1e-12)

    def test_hand_arithmetic(self):
        tm = np.array([-1.0, -2.0, -0.5, -3.0, -1.5])
        lm_renorm = np.array([-np.inf, -np.inf, -0.7, -1.2, -2.0])
        out = shallow_score(tm, lm_renorm, 0.05,
                            exclusion=frozenset({0, 1}))
        want = np.array([-1.0, -2.0,
                         -0.5 + 0.05 * -0.7,
                         -3.0 + 0.05 * -1.2,
                         -1.5 + 0.05 * -2.0])
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_excluded_tokens_keep_tm_score(self):
        tm = np.array([-1.0, -2.0, -3.0])
        lm = np.array([-np.inf, -np.inf, -0.5])
        out = shallow_score(tm, lm, 0.5, exclusion=frozenset({0, 1}))
        assert out[0] == -1.0 and out[1] == -2.0

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            shallow_score(np.zeros(3), np.zeros(4), 0.1)


# ---------------------------------------------------------------------------
# beam search vs oracles
# ---------------------------------------------------------------------------

def exhaustive_best(score_seq, vocab, max_len):
    """Brute-force argmax over all finished and unfinished candidates."""
    best = (-np.inf, None)
    for length in range(1, max_len + 1):
        for seq in itertools.product(range(vocab), repeat=length):
            # EOS may appear only as the final token
            if EOS_ID in seq[:-1]:
                continue
            finished = seq[-1] == EOS_ID
            if length < max_len and not finished:
                continue  # extended later at the full length
            s = score_seq(list(seq))
            if s > best[0]:
                best = (s, list(seq))
    return best


class TestBeamVsExhaustive:
    MAX_LEN = 4
    VOCAB = 4

    def scorers(self):
        nmt, lm, fused = small_models(vocab=self.VOCAB, seed=3)

        def tm_score(seq, src=(3, 4)):
            ann = encode(nmt, list(src))
            s = initial_state(nmt, ann)
            total, prev = 0.0, 2
            for y in seq:
                s, logp, _ = decode_step(nmt, s, prev, ann)
                total += logp.data[0, y]
                prev = y
            return total

        def shallow(seq, beta=0.05, src=(3, 4)):
            ann = encode(nmt, list(src))
            s = initial_state(nmt, ann)
            lm_state = lm.initial_state()
            total, prev = 0.0, 2
            for y in seq:
                s, logp, _ = decode_step(nmt, s, prev, ann)
                lm_state, lm_logp = lm_step(lm, lm_state, prev)
                renorm = lm_renormalize(lm_logp.data[0],
                                        frozenset({EOS_ID, UNK_ID}))
                comb = shallow_score(logp.data[0], renorm, beta)
                total += comb[y]
                prev = y
            return total

        def deep(seq, src=(3, 4)):
            ann = encode(fused.nmt, list(src))
            s = initial_state(fused.nmt, ann)
            lm_state = fused.lm.initial_state()
            total, prev = 0.0, 2
            for y in seq:
                s, lm_state, logp, _, _ = fused_step(fused, s, lm_state,
                                                     prev, ann)
                total += logp.data[0, y]
                prev = y
            return total

        return nmt, lm, fused, tm_score, shallow, deep

    def decode(self, cfg, nmt, lm, fused):
        return translate([3, 4], cfg, nmt=nmt, lm=lm, fused=fused)

    def test_none_mode(self):
        nmt, lm, fused, tm_score, _, _ = self.scorers()
        cfg = BeamConfig(beam_width=256, max_len_factor=0, max_len_offset=4)
        res = self.decode(cfg, nmt, None, None)
        want_score, want_seq = exhaustive_best(tm_score, self.VOCAB,
                                               self.MAX_LEN)
        got_seq = res.tokens + ([EOS_ID] if res.finished else [])
        assert got_seq == want_seq
        assert res.score == pytest.approx(want_score, abs=1e-10)

    def test_shallow_mode(self):
        nmt, lm, fused, _, shallow, _ = self.scorers()
        cfg = BeamConfig(beam_width=256, fusion="shallow",
                         shallow=ShallowConfig(beta=0.05),
                         max_len_factor=0, max_len_offset=4)
        res = self.decode(cfg, nmt, lm, None)
        want_score, want_seq = exhaustive_best(shallow, self.VOCAB,
                                               self.MAX_LEN)
        got_seq = res.tokens + ([EOS_ID] if res.finished else [])
        assert got_seq == want_seq
        assert res.score == pytest.approx(want_score, abs=1e-10)

    def test_deep_mode(self):
        nmt, lm, fused, _, _, deep = self.scorers()
        cfg = BeamConfig(beam_width=256, fusion="deep",
                         max_len_factor=0, max_len_offset=4)
        res = self.decode(cfg, None, None, fused)
        want_score, want_seq = exhaustive_best(deep, self.VOCAB, self.MAX_LEN)
        got_seq = res.tokens + ([EOS_ID] if res.finished else [])
        assert got_seq == want_seq
        assert res.score == pytest.approx(want_score, abs=1e-10)


class TestBeamMechanics:
    def test_greedy_equals_stepwise_argmax(self):
        nmt, _, _ = small_models(vocab=6, seed=5)
        cfg = BeamConfig(beam_width=1)
        res = translate([3, 4, 2], cfg, nmt=nmt)
        ann = encode(nmt, [3, 4, 2])
        s = initial_state(nmt, ann)
        prev, chain = 2, []
        for _ in range(cfg.max_output_length(3)):
            s, logp, _ = decode_step(nmt, s, prev, ann)
            prev = int(np.argmax(logp.data[0]))
            if prev == EOS_ID:
                break
            chain.append(prev)
        assert res.tokens == chain

    def test_all_finished_is_fixpoint(self):
        nmt, _, _ = small_models()
        scorer = BeamScorer(BeamConfig(beam_width=2), nmt=nmt)
        scorer.start([3])
        done = [Hypothesis(tokens=[3, EOS_ID], score=-1.0, s_tm=None,
                           finished=True),
                Hypothesis(tokens=[EOS_ID], score=-2.0, s_tm=None,
                           finished=True)]
        out = beam_step(done, scorer, BeamConfig(beam_width=2))
        assert out == done

    def test_score_equals_stepwise_recomputation(self):
        nmt, lm, fused = small_models(vocab=5, seed=9)
        for cfg, kwargs in [
            (BeamConfig(beam_width=4), {"nmt": nmt}),
            (BeamConfig(beam_width=4, fusion="shallow",
                        shallow=ShallowConfig(beta=0.1)),
             {"nmt": nmt, "lm": lm}),
            (BeamConfig(beam_width=4, fusion="deep"), {"fused": fused}),
        ]:
            res = translate([3, 4], cfg, **kwargs)
            seq = res.tokens + ([EOS_ID] if res.finished else [])
            scorer = BeamScorer(cfg, **kwargs)
            hyp = scorer.start([3, 4])
            total = 0.0
            for y in seq:
                _, fin = scorer.expand(hyp)[:2]
                total += fin[y]
                exp = scorer.expand(hyp)
                hyp = Hypothesis(tokens=hyp.tokens + [y], score=0.0,
                                 s_tm=exp[2], lm_state=exp[3])
            assert res.score == pytest.approx(total, abs=1e-10), cfg.fusion

    def test_shallow_beta_zero_identical_to_baseline(self):
        nmt, lm, _ = small_models(vocab=6, seed=13)
        base_cfg = BeamConfig(beam_width=4)
        sh_cfg = BeamConfig(beam_width=4, fusion="shallow",
                            shallow=ShallowConfig(beta=0.0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            src = [int(x) for x in rng.integers(3, 5, rng.integers(1, 5))]
            a = translate(src, base_cfg, nmt=nmt)
            b = translate(src, sh_cfg, nmt=nmt, lm=lm)
            assert a.tokens == b.tokens
            assert a.score == b.score  # bit-identical

    def test_deterministic(self):
        nmt, _, _ = small_models(seed=2)
        a = translate([3, 4], BeamConfig(beam_width=3), nmt=nmt)
        b = translate([3, 4], BeamConfig(beam_width=3), nmt=nmt)
        assert a.tokens == b.tokens and a.score == b.score

    def test_attention_rows_cover_output(self):
        nmt, _, _ = small_models(seed=4)
        res = translate([3, 4, 2], BeamConfig(beam_width=3), nmt=nmt)
        n_steps = len(res.tokens) + (1 if res.finished else 0)
        assert res.attention.shape == (n_steps, 4)  # source + EOS columns
        np.testing.assert_allclose(res.attention.sum(axis=1), 1.0, atol=1e-10)

    def test_deep_mode_records_gates(self):
        _, _, fused = small_models(seed=6)
        res = translate([3, 4], BeamConfig(beam_width=3, fusion="deep"),
                        fused=fused)
        n_steps = len(res.tokens) + (1 if res.finished else 0)
        assert len(res.gates) == n_steps
        assert all(0.0 < g < 1.0 for g in res.gates)


# ---------------------------------------------------------------------------
# UNK replacement
# ---------------------------------------------------------------------------

class TestReplaceUnk:
    UNK = RESERVED[UNK_ID]

    def test_no_unk_identity(self):
        att = np.full((2, 3), 1.0 / 3.0)
        assert replace_unk(["a", "b"], att, ["x", "y"]) == ["a", "b"]

    def test_peaked_attention_copy(self):
        att = np.zeros((3, 5))
        att[2, 3] = 1.0
        out = replace_unk(["a", "b", self.UNK], att, ["s0", "s1", "s2", "s3"])
        assert out == ["a", "b", "s3"]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(8)
        src = [f"s{i}" for i in range(6)]
        for _ in range(50):
            att = rng.random((4, 7))  # last column is the source EOS
            tokens = [self.UNK if rng.random() < 0.5 else f"t{i}"
                      for i in range(4)]
            got = replace_unk(tokens, att, src)
            want = list(tokens)
            for i, tok in enumerate(tokens):
                if tok == self.UNK:
                    best_j, best_v = 0, -1.0
                    for j in range(6):  # EOS column ignored
                        if att[i, j] > best_v:
                            best_j, best_v = j, att[i, j]
                    want[i] = src[best_j]
            assert got == want

    def test_ignores_eos_column(self):
        att = np.zeros((1, 3))
        att[0, 2] = 1.0  # mass on the appended EOS position
        att[0, 1] = 0.5
        out = replace_unk([self.UNK], att, ["s0", "s1"])
        assert out == ["s1"]


# ---------------------------------------------------------------------------
# gate statistics and the beta sweep
# ---------------------------------------------------------------------------

class TestGateDecodes:
    def test_fresh_fused_model_gate_constant(self):
        nmt = NmtModel(NmtConfig(src_vocab=5, tgt_vocab=5, embed_dim=3,
                                 hidden=4), np.random.default_rng(0))
        lm = RnnLm(LmConfig(vocab=5, embed_dim=3, hidden=4),
                   np.random.default_rng(1))
        fused = FusedModel(nmt, lm, np.random.default_rng(2))
        traces = []
        for src in ([3, 4], [4], [3, 3, 4]):
            res = translate(src, BeamConfig(beam_width=2, fusion="deep"),
                            fused=fused)
            traces.append(res.gates)
        stats = gate_stats(traces)
        assert stats.mean == pytest.approx(1.0 / (1.0 + math.e), abs=1e-6)
        assert stats.std < 1e-12


class TestSweepBeta:
    def test_zero_row_equals_baseline(self):
        nmt, lm, _ = small_models(vocab=6, seed=17)
        dev = [SentencePair([3, 4], [3]), SentencePair([4], [4, 3])]
        base_cfg = BeamConfig(beam_width=3)
        base_hyps = [translate(p.src, base_cfg, nmt=nmt).tokens for p in dev]
        cfg = BeamConfig(beam_width=3, fusion="shallow",
                         shallow=ShallowConfig(beta=0.0))
        assert decode_bleu(dev, cfg, nmt=nmt, lm=lm) == \
            bleu(base_hyps, [p.tgt for p in dev]).score

    def test_deterministic_table(self):
        nmt, lm, _ = small_models(vocab=6, seed=19)
        dev = [SentencePair([3], [3])]

        def table():
            return [decode_bleu(dev, BeamConfig(
                beam_width=2, fusion="shallow", shallow=ShallowConfig(beta=b)),
                nmt=nmt, lm=lm) for b in (0.0, 0.05, 0.1)]

        assert table() == table()
