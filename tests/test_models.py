"""Encoder/attention/decoder, the LSTM language model, and the fused model.

Oracles: mirror-symmetry of a shared-weight bidirectional encoder on
palindromes, extended-precision softmax for attention weights, stepwise
recomputation of teacher-forced likelihoods, and finite differences for
end-to-end gradients.
"""

import mpmath
import numpy as np
import pytest

from fusionmt import tensor as T
from fusionmt.data import BOS_ID, EOS_ID, SentencePair, pad_batch, pad_mono_batch
from fusionmt.models import (
    ConfigurationError,
    Controller,
    FusedModel,
    LmConfig,
    NmtConfig,
    NmtModel,
    RnnLm,
    attend,
    controller_gate,
    decode_step,
    encode,
    fused_batch_loss,
    fused_step,
    initial_state,
    lm_batch_loss,
    lm_step,
    nmt_batch_loss,
)
from fusionmt.tensor import ParameterSet, Tape, finite_difference_check

RNG = np.random.default_rng(99)


def tiny_nmt(hidden=4, embed=3, src_vocab=7, tgt_vocab=6, seed=0):
    return NmtModel(NmtConfig(src_vocab=src_vocab, tgt_vocab=tgt_vocab,
                              embed_dim=embed, hidden=hidden),
                    np.random.default_rng(seed))


def tiny_lm(vocab=6, embed=3, hidden=5, seed=0):
    return RnnLm(LmConfig(vocab=vocab, embed_dim=embed, hidden=hidden),
                 np.random.default_rng(seed))


def stepwise_nll(step, state, tgt):
    """NLL of ``tgt`` + EOS recomputed one B == 1 step at a time;
    ``step(state, prev)`` returns (new state, log-probs)."""
    total = 0.0
    prev = BOS_ID
    for y in list(tgt) + [EOS_ID]:
        state, logp = step(state, prev)
        total -= logp.data[0, y]
        prev = y
    return total


def jitter_params(params, std=0.1, seed=42):
    """Move parameters off exact-tie points (zero biases can sit within a
    finite-difference step of a maxout kink)."""
    rng = np.random.default_rng(seed)
    for p in params:
        if p.trainable:
            p.value.data += rng.standard_normal(p.value.shape) * std


class TestConfig:
    def test_default_output_width(self):
        cfg = NmtConfig(src_vocab=5, tgt_vocab=5, hidden=10)
        assert cfg.deep_output_width == 20

    def test_odd_output_width_rejected(self):
        with pytest.raises(ConfigurationError):
            NmtConfig(src_vocab=5, tgt_vocab=5, deep_output_width=7)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

class TestEncoder:
    def test_row_count_and_width(self):
        model = tiny_nmt()
        ann = encode(model, [3, 4, 5])
        assert ann.length == 4  # appended end-of-sequence
        assert all(r.shape == (1, 8) for r in ann.rows)

    def test_single_token_no_eos(self):
        model = tiny_nmt()
        ann = encode(model, [3], append_eos=False)
        assert ann.length == 1
        assert ann.rows[0].shape == (1, 2 * model.cfg.hidden)

    def test_empty_source_rejected(self):
        with pytest.raises(T.DomainError):
            encode(tiny_nmt(), [])

    def test_zero_weights_zero_annotations(self):
        model = tiny_nmt()
        for p in model.params:
            p.value.data[...] = 0.0
        ann = encode(model, [3, 4])
        for r in ann.rows:
            np.testing.assert_array_equal(r.data, 0.0)

    def test_palindrome_mirror_symmetry(self):
        model = tiny_nmt()
        # share weights across directions so bwd(x) == fwd(reverse(x))
        for gate in ("z", "r", "h"):
            for kind in ("W", "U", "b"):
                src = model.params.get(f"nmt.enc_fwd.{kind}_{gate}").value.data
                model.params.get(
                    f"nmt.enc_bwd.{kind}_{gate}").value.data[...] = src
        ann = encode(model, [3, 4, 5, 4, 3], append_eos=False)
        d = model.cfg.hidden
        n = ann.length
        for j in range(n):
            mirrored = ann.rows[n - 1 - j].data
            swapped = np.concatenate([mirrored[:, d:], mirrored[:, :d]], axis=1)
            np.testing.assert_allclose(ann.rows[j].data, swapped, atol=1e-12)

    def test_batched_matches_single(self):
        model = tiny_nmt()
        pairs = [SentencePair([3, 4], [3]), SentencePair([5], [3])]
        batch = pad_batch(pairs)
        ann = encode(model, batch.src, batch.src_mask, append_eos=False)
        for i, p in enumerate(pairs):
            single = encode(model, p.src)
            for j in range(len(p.src) + 1):
                np.testing.assert_allclose(ann.rows[j].data[i],
                                           single.rows[j].data[0], atol=1e-12)

    def test_initial_state_from_backward_first(self):
        model = tiny_nmt()
        ann = encode(model, [3, 4])
        want = np.tanh(ann.bwd_first.data @ model.W_init.value.data
                       + model.b_init.value.data)
        np.testing.assert_allclose(initial_state(model, ann).data, want,
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

class TestAttention:
    def test_single_position_all_mass(self):
        model = tiny_nmt()
        ann = encode(model, [3], append_eos=False)
        s = initial_state(model, ann)
        scores, ctx = attend(model, s, model.tgt_emb.lookup([2]), ann)
        assert scores.alpha.data[0, 0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(ctx.data, ann.rows[0].data, atol=1e-15)

    def test_zero_alignment_params_uniform(self):
        model = tiny_nmt()
        for pid in ("nmt.attn.W_a", "nmt.attn.U_a", "nmt.attn.V_a",
                    "nmt.attn.b_a", "nmt.attn.v_a"):
            model.params.get(pid).value.data[...] = 0.0
        ann = encode(model, [3, 4, 5])
        s = initial_state(model, ann)
        scores, ctx = attend(model, s, model.tgt_emb.lookup([2]), ann)
        np.testing.assert_allclose(scores.alpha.data, 0.25, atol=1e-15)
        mean = np.mean([r.data for r in ann.rows], axis=0)
        np.testing.assert_allclose(ctx.data, mean, atol=1e-12)

    def test_alpha_is_softmax_of_energies(self):
        model = tiny_nmt(seed=5)
        ann = encode(model, [3, 4, 5, 3])
        s = initial_state(model, ann)
        scores, _ = attend(model, s, model.tgt_emb.lookup([4]), ann)
        e = scores.energies.data[0]
        with mpmath.workdps(50):
            exps = [mpmath.exp(v) for v in e]
            total = mpmath.fsum(exps)
            want = np.array([float(v / total) for v in exps])
        np.testing.assert_allclose(scores.alpha.data[0], want, atol=1e-12)

    def test_normalization_and_convex_hull(self):
        model = tiny_nmt(seed=11)
        rng = np.random.default_rng(0)
        for _ in range(50):
            src = rng.integers(3, 7, size=int(rng.integers(1, 6)))
            ann = encode(model, src)
            s = T.constant(rng.standard_normal((1, model.cfg.hidden)))
            y_emb = model.tgt_emb.lookup([int(rng.integers(0, 6))])
            scores, ctx = attend(model, s, y_emb, ann)
            assert abs(scores.alpha.data.sum() - 1.0) < 1e-10
            stack = np.stack([r.data[0] for r in ann.rows])
            assert (ctx.data[0] <= stack.max(axis=0) + 1e-12).all()
            assert (ctx.data[0] >= stack.min(axis=0) - 1e-12).all()

    def test_padded_positions_get_no_mass(self):
        model = tiny_nmt()
        batch = pad_batch([SentencePair([3, 4, 5], [3]),
                           SentencePair([3], [3])])
        ann = encode(model, batch.src, batch.src_mask, append_eos=False)
        s = initial_state(model, ann)
        scores, _ = attend(model, s, model.tgt_emb.lookup([2, 2]), ann)
        # second sentence: positions beyond its EOS are padding
        assert scores.alpha.data[1, 2:].max() < 1e-12
        np.testing.assert_allclose(scores.alpha.data.sum(axis=1), 1.0,
                                   atol=1e-10)


# ---------------------------------------------------------------------------
# decoder and NMT losses
# ---------------------------------------------------------------------------

class TestDecoder:
    def test_logprobs_normalized(self):
        model = tiny_nmt(seed=3)
        ann = encode(model, [3, 4])
        s = initial_state(model, ann)
        _, logp, _ = decode_step(model, s, 2, ann)
        assert abs(np.exp(logp.data).sum() - 1.0) < 1e-10

    def test_zero_output_layer_uniform(self):
        model = tiny_nmt()
        for pid in ("nmt.out.W_h", "nmt.out.b_h", "nmt.out.W_o", "nmt.out.b_o"):
            model.params.get(pid).value.data[...] = 0.0
        ann = encode(model, [3])
        _, logp, _ = decode_step(model, initial_state(model, ann), 2, ann)
        np.testing.assert_allclose(logp.data, -np.log(model.cfg.tgt_vocab),
                                   atol=1e-12)

    def test_loss_equals_stepwise_recomputation(self):
        model = tiny_nmt(seed=4)
        pair = SentencePair([3, 4, 5], [4, 3, 5])
        total = nmt_batch_loss(model, pad_batch([pair])).item()
        ann = encode(model, pair.src)

        def step(s, prev):
            s, logp, _ = decode_step(model, s, prev, ann)
            return s, logp

        want = stepwise_nll(step, initial_state(model, ann), pair.tgt)
        assert total == pytest.approx(want, abs=1e-10)

    def test_uniform_model_loss_is_length_log_vocab(self):
        model = tiny_nmt()
        for pid in ("nmt.out.W_h", "nmt.out.b_h", "nmt.out.W_o", "nmt.out.b_o"):
            model.params.get(pid).value.data[...] = 0.0
        pair = SentencePair([3, 4], [3, 4, 5])
        want = 4 * np.log(model.cfg.tgt_vocab)  # 3 tokens + EOS
        loss = nmt_batch_loss(model, pad_batch([pair])).item()
        assert loss == pytest.approx(want, abs=1e-12)

    def test_batched_loss_equals_mean_of_singles(self):
        model = tiny_nmt(seed=8)
        pairs = [SentencePair([3, 4], [5]),
                 SentencePair([5], [3, 4, 3]),
                 SentencePair([6, 3, 4], [4, 4])]
        batched = nmt_batch_loss(model, pad_batch(pairs)).item()
        singles = [nmt_batch_loss(model, pad_batch([p])).item() for p in pairs]
        assert batched == pytest.approx(np.mean(singles), abs=1e-10)

    def test_full_gradient_check(self):
        model = tiny_nmt(hidden=4, embed=3, src_vocab=6, tgt_vocab=5, seed=1)
        jitter_params(model.params)
        pair = SentencePair([3, 4, 5], [3, 4])
        batch = pad_batch([pair])
        errors = finite_difference_check(lambda: nmt_batch_loss(model, batch),
                                         model.params)
        worst = max(errors.values())
        assert worst < 1e-4, f"max rel err {worst}"


# ---------------------------------------------------------------------------
# language model
# ---------------------------------------------------------------------------

class TestLanguageModel:
    def test_logprobs_normalized(self):
        lm = tiny_lm(seed=2)
        state = lm.initial_state()
        for y in (2, 3, 4):
            state, logp = lm_step(lm, state, y)
            assert abs(np.exp(logp.data).sum() - 1.0) < 1e-10

    def test_zero_weights_uniform(self):
        lm = tiny_lm()
        for p in lm.params:
            p.value.data[...] = 0.0
        _, logp = lm_step(lm, lm.initial_state(), 2)
        np.testing.assert_allclose(logp.data, -np.log(lm.cfg.vocab), atol=1e-12)

    def test_no_source_dependence_anywhere(self):
        lm = tiny_lm()
        assert all(p.id.startswith("lm.") for p in lm.params)

    def test_batch_loss_equals_stepwise(self):
        lm = tiny_lm(seed=6)
        sent = [3, 4, 5, 3]
        batched = lm_batch_loss(lm, pad_mono_batch([sent])).item()
        want = stepwise_nll(lambda state, prev: lm_step(lm, state, prev),
                            lm.initial_state(), sent)
        assert batched == pytest.approx(want, abs=1e-10)

    def test_gradient_check(self):
        lm = tiny_lm(vocab=5, embed=3, hidden=4, seed=3)
        batch = pad_mono_batch([[3, 4, 3]])
        errors = finite_difference_check(lambda: lm_batch_loss(lm, batch),
                                         lm.params)
        assert max(errors.values()) < 1e-4


# ---------------------------------------------------------------------------
# controller and fused model
# ---------------------------------------------------------------------------

class TestController:
    def test_initial_gate_value(self):
        params = ParameterSet()
        ctrl = Controller(4, params)
        g = controller_gate(ctrl, T.constant(RNG.standard_normal((3, 4))))
        np.testing.assert_allclose(g.data, 1.0 / (1.0 + np.e), atol=1e-12)
        np.testing.assert_allclose(g.data, 0.2689, atol=1e-4)

    def test_zero_bias_gate_half(self):
        params = ParameterSet()
        ctrl = Controller(4, params, bias_init=0.0)
        g = controller_gate(ctrl, T.constant(np.zeros((1, 4))))
        assert g.data[0, 0] == 0.5

    def test_output_in_open_interval(self):
        params = ParameterSet()
        ctrl = Controller(2, params)
        ctrl.v_g.value.data[...] = RNG.standard_normal((2, 1))
        g = controller_gate(ctrl, T.constant(RNG.standard_normal((100, 2)) * 10))
        assert (g.data > 0).all() and (g.data < 1).all()

    def test_state_width_checked(self):
        params = ParameterSet()
        ctrl = Controller(4, params)
        with pytest.raises(T.ShapeError):
            controller_gate(ctrl, T.constant(np.zeros((1, 5))))


class TestFusedModel:
    def make(self, seed=0):
        nmt = tiny_nmt(seed=seed)
        lm = tiny_lm(seed=seed + 1)
        return FusedModel(nmt, lm, np.random.default_rng(seed + 2))

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            FusedModel(tiny_nmt(tgt_vocab=6), tiny_lm(vocab=7),
                       np.random.default_rng(0))

    def test_only_output_and_controller_trainable(self):
        fm = self.make()
        trainable = sorted(p.id for p in fm.params.trainable())
        assert trainable == ["fuse.ctrl.b_g", "fuse.ctrl.v_g", "fuse.out.W_h",
                             "fuse.out.W_o", "fuse.out.b_h", "fuse.out.b_o"]

    def test_initially_reproduces_baseline(self):
        fm = self.make(seed=4)
        src = [3, 4, 5]
        ann = encode(fm.nmt, src)
        s = initial_state(fm.nmt, ann)
        lm_state = fm.lm.initial_state()
        s_b = initial_state(fm.nmt, ann)
        prev = 2
        for _ in range(4):
            s, lm_state, logp_f, _, g = fused_step(fm, s, lm_state, prev, ann)
            s_b, logp_b, _ = decode_step(fm.nmt, s_b, prev, ann)
            np.testing.assert_allclose(logp_f.data, logp_b.data, atol=1e-12)
            assert g.data[0, 0] == pytest.approx(1.0 / (1.0 + np.e), abs=1e-12)
            prev = int(np.argmax(logp_b.data[0]))

    def test_batch_loss_equals_stepwise(self):
        fm = self.make(seed=6)
        # make the LM block nonzero so the fused path actually differs
        fm.out.W_h.value.data[: fm.lm.cfg.hidden, :] = RNG.standard_normal(
            (fm.lm.cfg.hidden, fm.out.W_h.value.shape[1]))
        pair = SentencePair([3, 4, 5], [4, 3, 5])
        total = fused_batch_loss(fm, pad_batch([pair])).item()
        ann = encode(fm.nmt, pair.src)

        def step(state, prev):
            s, lm_state, logp, _, _ = fused_step(fm, *state, prev, ann)
            return (s, lm_state), logp

        state = (initial_state(fm.nmt, ann), fm.lm.initial_state())
        want = stepwise_nll(step, state, pair.tgt)
        assert total == pytest.approx(want, abs=1e-10)

    def test_fused_logprobs_normalized(self):
        fm = self.make(seed=9)
        # make the LM block nonzero so the fused path actually differs
        fm.out.W_h.value.data[: fm.lm.cfg.hidden, :] = RNG.standard_normal(
            (fm.lm.cfg.hidden, fm.out.W_h.value.shape[1]))
        ann = encode(fm.nmt, [3, 4])
        s = initial_state(fm.nmt, ann)
        _, _, logp, _, _ = fused_step(fm, s, fm.lm.initial_state(), 2, ann)
        assert abs(np.exp(logp.data).sum() - 1.0) < 1e-10

    def test_gradient_check_trainable_only(self):
        nmt = tiny_nmt(hidden=4, embed=3, src_vocab=6, tgt_vocab=5, seed=2)
        lm = tiny_lm(vocab=5, embed=3, hidden=4, seed=3)
        fm = FusedModel(nmt, lm, np.random.default_rng(4))
        jitter_params(fm.params)  # also activates the zeroed LM block
        batch = pad_batch([SentencePair([3, 4], [3, 4])])
        errors = finite_difference_check(lambda: fused_batch_loss(fm, batch),
                                         fm.params)
        assert set(errors) == {p.id for p in fm.params.trainable()}
        assert max(errors.values()) < 1e-4

    def test_frozen_gradients_stay_zero(self):
        fm = self.make(seed=5)
        batch = pad_batch([SentencePair([3, 4], [3])])
        fm.params.zero_grads()
        with Tape() as tape:
            loss = fused_batch_loss(fm, batch)
        tape.backward(loss, fm.params)
        for p in fm.params:
            if not p.trainable:
                np.testing.assert_array_equal(p.grad.data, 0.0)

    def test_gate_off_matches_zero_lm_state(self):
        fm = self.make(seed=7)
        fm.out.W_h.value.data[: fm.lm.cfg.hidden, :] = RNG.standard_normal(
            (fm.lm.cfg.hidden, fm.out.W_h.value.shape[1]))
        fm.controller.b_g.value.data[...] = -1e4  # gate -> 0
        ann = encode(fm.nmt, [3, 4])
        s = initial_state(fm.nmt, ann)
        _, _, logp, _, g = fused_step(fm, s, fm.lm.initial_state(), 2, ann)
        assert g.data[0, 0] < 1e-300 or g.data[0, 0] == 0.0
        s_b = initial_state(fm.nmt, ann)
        scores_b = decode_step(fm.nmt, s_b, 2, ann)
        # compare to the fused layer evaluated with an exactly-zero LM input
        from fusionmt.layers import deep_output
        y_emb = fm.nmt.tgt_emb.lookup([2])
        att, ctx = attend(fm.nmt, s_b, y_emb, ann)
        from fusionmt.models import gru_step
        s_new = gru_step(fm.nmt.decoder, s_b, T.concat([y_emb, ctx], axis=1))
        logits = deep_output(fm.out, s_new, y_emb, ctx,
                             s_lm_gated=T.constant(
                                 np.zeros((1, fm.lm.cfg.hidden))))
        np.testing.assert_allclose(logp.data, T.log_softmax(logits).data,
                                   atol=1e-15)
