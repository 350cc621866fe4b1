"""Encoder/attention/decoder, the LSTM language model, and the fused model.

Oracles: mirror-symmetry of a shared-weight bidirectional encoder on
palindromes, extended-precision softmax for attention weights, stepwise
recomputation of teacher-forced likelihoods, and finite differences for
end-to-end gradients.
"""

from pathlib import Path

import mpmath
import numpy as np
import pytest

from fusionmt import models, tensor as T
from fusionmt.checkpoint import build, load_checkpoint
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
from fusionmt.layers import deep_output, gru_step
from fusionmt.tensor import ParameterSet, Tape

from gradcheck import finite_difference_check, weighted_sum
from test_tensor import reference_attention as broadcast_attention

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
        state, logp = step(state, [prev])
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


def reference_attention(model, s, y_emb, h, mask):
    """Plain-NumPy additive attention, one source position at a time.

    Returns (masked energies, alpha, context) for (B, d) ``s``, (B, e)
    ``y_emb``, (B, T, 2d) annotations ``h`` and a (B, T) 0/1 mask."""
    a = {k: p.value.data for k, p in model.attn.items()}
    query = s @ a["W_a"] + y_emb @ a["V_a"] + a["b_a"]
    t_len = h.shape[1]
    e = np.stack([np.tanh(query + h[:, j] @ a["U_a"]) @ a["v_a"][:, 0]
                  for j in range(t_len)], axis=1)
    e = np.where(mask > 0, e, -1e9)
    alpha = np.exp(e - e.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    ctx = sum(alpha[:, j:j + 1] * h[:, j] for j in range(t_len))
    return e, alpha, ctx


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
        assert ann.h.shape == (1, 4, 8)  # appended end-of-sequence
        assert ann.proj.shape == (1, 4, 4)

    def test_single_token_no_eos(self):
        model = tiny_nmt()
        ann = encode(model, np.array([[3]]), np.ones((1, 1)))
        assert ann.h.shape == (1, 1, 2 * model.cfg.hidden)

    def test_single_source_needs_no_keep_mask(self, monkeypatch):
        model = tiny_nmt()
        keeps = []

        def spy(cell, s_prev, x, keep=None):
            keeps.append(keep)
            return gru_step(cell, s_prev, x, keep)

        monkeypatch.setattr(models, "gru_step", spy)
        ann = encode(model, [3, 4, 5])
        assert keeps == [None] * 8  # both directions over 3 tokens + EOS
        monkeypatch.undo()
        padded = encode(model, np.array([[3, 4, 5, EOS_ID]]), np.ones((1, 4)))
        for got, want in ((ann.h, padded.h), (ann.proj, padded.proj),
                          (ann.bwd_first, padded.bwd_first)):
            np.testing.assert_array_equal(got.data.view(np.uint64),
                                          want.data.view(np.uint64))
        np.testing.assert_array_equal(ann.mask, np.ones((1, 4)))

    def test_empty_source_rejected(self):
        with pytest.raises(T.DomainError):
            encode(tiny_nmt(), [])

    def test_zero_weights_zero_annotations(self):
        model = tiny_nmt()
        for p in model.params:
            p.value.data[...] = 0.0
        ann = encode(model, [3, 4])
        np.testing.assert_array_equal(ann.h.data, 0.0)

    def test_palindrome_mirror_symmetry(self):
        model = tiny_nmt()
        # share weights across directions so bwd(x) == fwd(reverse(x))
        for gate in ("z", "r", "h"):
            for kind in ("W", "U", "b"):
                src = model.params.get(f"nmt.enc_fwd.{kind}_{gate}").value.data
                model.params.get(
                    f"nmt.enc_bwd.{kind}_{gate}").value.data[...] = src
        ann = encode(model, np.array([[3, 4, 5, 4, 3]]), np.ones((1, 5)))
        d = model.cfg.hidden
        n = ann.h.shape[1]
        for j in range(n):
            mirrored = ann.h.data[:, n - 1 - j]
            swapped = np.concatenate([mirrored[:, d:], mirrored[:, :d]], axis=1)
            np.testing.assert_allclose(ann.h.data[:, j], swapped, atol=1e-12)

    def test_batched_matches_single(self):
        model = tiny_nmt()
        pairs = [SentencePair([3, 4], [3]), SentencePair([5], [3])]
        batch = pad_batch(pairs)
        ann = encode(model, batch.src, batch.src_mask)
        for i, p in enumerate(pairs):
            single = encode(model, p.src)
            n = len(p.src) + 1
            np.testing.assert_allclose(ann.h.data[i, :n], single.h.data[0],
                                       atol=1e-12)

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
        ann = encode(model, np.array([[3]]), np.ones((1, 1)))
        s = initial_state(model, ann)
        scores, ctx = attend(model, s, model.tgt_emb.lookup([2]), ann)
        assert scores.alpha.data[0, 0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(ctx.data, ann.h.data[:, 0], atol=1e-15)

    def test_zero_alignment_params_uniform(self):
        model = tiny_nmt()
        for pid in ("nmt.attn.W_a", "nmt.attn.U_a", "nmt.attn.V_a",
                    "nmt.attn.b_a", "nmt.attn.v_a"):
            model.params.get(pid).value.data[...] = 0.0
        ann = encode(model, [3, 4, 5])
        s = initial_state(model, ann)
        scores, ctx = attend(model, s, model.tgt_emb.lookup([2]), ann)
        np.testing.assert_allclose(scores.alpha.data, 0.25, atol=1e-15)
        mean = ann.h.data.mean(axis=1)
        np.testing.assert_allclose(ctx.data, mean, atol=1e-12)

    def test_alpha_is_softmax_of_energies(self):
        model = tiny_nmt(seed=5)
        ann = encode(model, [3, 4, 5, 3])
        s = initial_state(model, ann)
        y_emb = model.tgt_emb.lookup([4])
        scores, _ = attend(model, s, y_emb, ann)
        e = reference_attention(model, s.data, y_emb.data, ann.h.data,
                                ann.mask)[0][0]
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
            stack = ann.h.data[0]
            assert (ctx.data[0] <= stack.max(axis=0) + 1e-12).all()
            assert (ctx.data[0] >= stack.min(axis=0) - 1e-12).all()

    def test_padded_positions_get_no_mass(self):
        model = tiny_nmt()
        batch = pad_batch([SentencePair([3, 4, 5], [3]),
                           SentencePair([3], [3])])
        ann = encode(model, batch.src, batch.src_mask)
        s = initial_state(model, ann)
        scores, _ = attend(model, s, model.tgt_emb.lookup([2, 2]), ann)
        # second sentence: positions beyond its EOS are padding
        assert scores.alpha.data[1, 2:].max() < 1e-12
        np.testing.assert_allclose(scores.alpha.data.sum(axis=1), 1.0,
                                   atol=1e-10)

    def test_padded_batch_matches_per_position_reference(self):
        model = tiny_nmt(seed=8)
        jitter_params(model.params, std=0.5)
        srcs = [[3, 4, 5, 6, 3, 4], [5, 6], [4], [6, 5, 4, 3]]
        batch = pad_batch([SentencePair(src, [3]) for src in srcs])
        ann = encode(model, batch.src, batch.src_mask)
        assert ann.h.shape[:2] == (4, 7)
        s = T.constant(RNG.standard_normal((4, model.cfg.hidden)))
        y_emb = model.tgt_emb.lookup([2, 3, 4, 5])
        scores, ctx = attend(model, s, y_emb, ann)
        _, alpha, want_ctx = reference_attention(model, s.data, y_emb.data,
                                                 ann.h.data, ann.mask)
        np.testing.assert_allclose(scores.alpha.data, alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ctx.data, want_ctx, rtol=0, atol=1e-12)
        for i, src in enumerate(srcs):
            assert (scores.alpha.data[i, len(src) + 1:] < 1e-12).all()


# ---------------------------------------------------------------------------
# decoder and NMT losses
# ---------------------------------------------------------------------------

class TestDecoder:
    def test_logprobs_normalized(self):
        model = tiny_nmt(seed=3)
        ann = encode(model, [3, 4])
        s = initial_state(model, ann)
        _, logp, _ = decode_step(model, s, [2], ann)
        assert abs(np.exp(logp.data).sum() - 1.0) < 1e-10

    def test_zero_output_layer_uniform(self):
        model = tiny_nmt()
        for pid in ("nmt.out.W_h", "nmt.out.b_h", "nmt.out.W_o", "nmt.out.b_o"):
            model.params.get(pid).value.data[...] = 0.0
        ann = encode(model, [3])
        _, logp, _ = decode_step(model, initial_state(model, ann), [2], ann)
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
            state, logp = lm_step(lm, state, [y])
            assert abs(np.exp(logp.data).sum() - 1.0) < 1e-10

    def test_zero_weights_uniform(self):
        lm = tiny_lm()
        for p in lm.params:
            p.value.data[...] = 0.0
        _, logp = lm_step(lm, lm.initial_state(), [2])
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
        ctrl = Controller(4, params)
        ctrl.b_g.value.data[...] = 0.0
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

    def test_freezes_through_requires_grad_alone(self):
        nmt, lm = tiny_nmt(), tiny_lm()
        parts = list(nmt.params) + list(lm.params)
        assert all(p.value.requires_grad for p in parts)
        FusedModel(nmt, lm, np.random.default_rng(0))
        assert not any(p.value.requires_grad or p.trainable for p in parts)

    def test_initially_reproduces_baseline(self):
        fm = self.make(seed=4)
        src = [3, 4, 5]
        ann = encode(fm.nmt, src)
        s = initial_state(fm.nmt, ann)
        lm_state = fm.lm.initial_state()
        s_b = initial_state(fm.nmt, ann)
        prev = 2
        for _ in range(4):
            s, lm_state, logp_f, _, g = fused_step(fm, s, lm_state, [prev], ann)
            s_b, logp_b, _ = decode_step(fm.nmt, s_b, [prev], ann)
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
        _, _, logp, _, _ = fused_step(fm, s, fm.lm.initial_state(), [2], ann)
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
        _, _, logp, _, g = fused_step(fm, s, fm.lm.initial_state(), [2], ann)
        assert g.data[0, 0] < 1e-300 or g.data[0, 0] == 0.0
        s_b = initial_state(fm.nmt, ann)
        scores_b = decode_step(fm.nmt, s_b, [2], ann)
        # compare to the fused layer evaluated with an exactly-zero LM input
        y_emb = fm.nmt.tgt_emb.lookup([2])
        att, ctx = attend(fm.nmt, s_b, y_emb, ann)
        from fusionmt.models import gru_step
        s_new = gru_step(fm.nmt.decoder, s_b, T.concat([y_emb, ctx], axis=1))
        logits = deep_output(fm.out, s_new, y_emb, ctx,
                             s_lm_gated=T.constant(
                                 np.zeros((1, fm.lm.cfg.hidden))))
        np.testing.assert_allclose(logp.data, T.log_softmax(logits).data,
                                   atol=1e-15)


# ---------------------------------------------------------------------------
# two-pass teacher forcing against the stepwise loss
# ---------------------------------------------------------------------------

def reference_teacher_forced_nll(step, state, batch):
    """Test-only oracle: the stepwise teacher-forced loss, with the whole
    output head and log-softmax run at every target step, and each step's
    masked target log-probs scaled by -1/B and summed into the total.
    ``step(state, y_prev)`` returns (new state, (B, V) log-probs)."""
    b, t_len = batch.tgt_in.shape
    total = None
    for t in range(t_len):
        state, logp = step(state, batch.tgt_in[:, t])
        w = np.zeros(logp.shape)
        w[np.arange(b), batch.tgt_out[:, t]] = batch.tgt_mask[:, t] * (-1.0 / b)
        nll = weighted_sum(logp, w)
        total = nll if total is None else T.add(total, nll)
    return total


def reference_nmt_loss(model, batch, dropout_p, rng):
    ann = encode(model, batch.src, batch.src_mask)

    def step(s, y):
        s, y_emb, ctx, _ = models._recur(model, s, y, ann)
        return s, T.log_softmax(deep_output(model.out, s, y_emb, ctx,
                                            dropout_p=dropout_p, rng=rng))

    return reference_teacher_forced_nll(step, initial_state(model, ann), batch)


def reference_lm_loss(lm, batch):
    return reference_teacher_forced_nll(lambda st, y: lm_step(lm, st, y),
                                        lm.initial_state(batch.size), batch)


def reference_fused_loss(fm, batch, dropout_p, rng):
    ann = encode(fm.nmt, batch.src, batch.src_mask)

    def step(state, y):
        s, y_emb, ctx, _ = models._recur(fm.nmt, state[0], y, ann)
        lm_state = models._lm_recur(fm.lm, state[1], y)
        logits, _ = models._fused_logits(fm, lm_state[0], s, y_emb, ctx,
                                         dropout_p, rng)
        return (s, lm_state), T.log_softmax(logits)

    state = (initial_state(fm.nmt, ann), fm.lm.initial_state(batch.size))
    return reference_teacher_forced_nll(step, state, batch)


class TestTwoPassLoss:
    """Each loss runs its recurrence step by step, then its output head
    once over all T*B rows; the stepwise oracle runs the head per step."""

    PAIRS = [SentencePair(list(range(3, 3 + n % 4 + 1)),
                          [3 + (n * k) % 3 for k in range(n)])
             for n in (1, 7, 3, 5, 2, 6, 4, 1, 5)]  # B = 9, T from 2 to 8

    def models(self, kind):
        nmt = tiny_nmt(hidden=5, embed=4, seed=21)
        lm = tiny_lm(embed=3, hidden=4, seed=22)
        model = {"nmt": nmt, "lm": lm}.get(kind) or FusedModel(
            nmt, lm, np.random.default_rng(23))  # freezes nmt and lm
        jitter_params(model.params, std=0.3, seed=24)
        return model

    def run(self, model, loss_fn):
        """Loss value, gradients and the dropout generator's state after."""
        rng = np.random.default_rng(5)
        model.params.zero_grads()
        with Tape() as tape:
            loss = loss_fn(model, rng)
        tape.backward(loss, model.params)
        grads = {p.id: p.grad.data.copy() for p in model.params.trainable()}
        return loss.item(), grads, rng.bit_generator.state

    @pytest.mark.parametrize("kind, dropout_p", [
        ("nmt", 0.0), ("nmt", 0.3), ("lm", 0.0), ("fused", 0.0),
        ("fused", 0.56)])
    def test_matches_stepwise_reference(self, kind, dropout_p):
        model = self.models(kind)
        batch = (pad_mono_batch([p.tgt for p in self.PAIRS]) if kind == "lm"
                 else pad_batch(self.PAIRS))
        assert batch.size >= 8 and len(set(batch.tgt_mask.sum(axis=1))) > 3
        two_pass, reference = {
            "nmt": (lambda m, r: nmt_batch_loss(m, batch, dropout_p, r),
                    lambda m, r: reference_nmt_loss(m, batch, dropout_p, r)),
            "lm": (lambda m, r: lm_batch_loss(m, batch),
                   lambda m, r: reference_lm_loss(m, batch)),
            "fused": (lambda m, r: fused_batch_loss(m, batch, dropout_p, r),
                      lambda m, r: reference_fused_loss(m, batch, dropout_p, r)),
        }[kind]
        loss, grads, rng_state = self.run(model, two_pass)
        want_loss, want_grads, want_rng_state = self.run(model, reference)
        # one masked sum over T*B rows replaces T per-step sums
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        assert rng_state == want_rng_state
        assert set(grads) == set(want_grads)
        for pid, want in want_grads.items():
            big = np.abs(want) > 1e-12
            np.testing.assert_allclose(grads[pid][big], want[big], rtol=1e-12,
                                       atol=0, err_msg=pid)

    @pytest.mark.parametrize("kind", ["nmt", "fused"])
    def test_broadcast_attention_gives_the_same_bytes(self, kind, monkeypatch):
        # the attention op's einsum context against the broadcast-then-sum
        # oracle, on padded sources and with dropout; the op's annotation
        # gradients are summed over decoder steps in one batched product, so
        # the gradients that reach the encoder through h agree per parameter
        # within 1e-12 of their norm, and all others byte for byte
        model = self.models(kind)
        batch = pad_batch(self.PAIRS)
        loss_fn = {"nmt": nmt_batch_loss, "fused": fused_batch_loss}[kind]
        calls = []

        def oracle(*args):
            calls.append(1)
            return broadcast_attention(*args)

        loss, grads, _ = self.run(model, lambda m, r: loss_fn(m, batch, 0.3, r))
        monkeypatch.setattr(T, "attention", oracle)
        want_loss, want_grads, _ = self.run(
            model, lambda m, r: loss_fn(m, batch, 0.3, r))
        assert len(calls) == batch.tgt_in.shape[1]
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert set(grads) == set(want_grads)
        for pid, want in want_grads.items():
            if pid.startswith(("nmt.enc_", "nmt.src_emb.")) and kind == "nmt":
                assert (np.linalg.norm(grads[pid] - want)
                        <= 1e-12 * np.linalg.norm(want)), pid
            else:
                assert grads[pid].tobytes() == want.tobytes(), pid

    def test_fused_head_is_one_set_of_nodes(self):
        # the frozen recurrences record nothing, so the tape holds the head
        # alone: gate (3), gating (1), output layer with dropout (8) and the
        # NLL (1), whatever T is
        fm = self.models("fused")
        for pairs in (self.PAIRS[:1], self.PAIRS):
            with Tape() as tape:
                fused_batch_loss(fm, pad_batch(pairs), 0.5,
                                 np.random.default_rng(0))
            assert len(tape) == 13


def long_fixture_batch():
    """The first 32 pairs of the benchmark's long band (32 target steps) and
    the fixture NMT model."""
    fixtures = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
    src, tgt = ([[int(x) for x in line.split()] for line in
                 (fixtures / f"train_long.{side}").read_text().splitlines()]
                for side in ("src", "tgt"))
    batch = pad_batch([SentencePair(s, t) for s, t in zip(src, tgt)][:32])
    assert batch.tgt_in.shape == (32, 32)
    return batch, build(load_checkpoint(fixtures / "nmt.ckpt"), "nmt")


def test_long_fixture_loss_has_a_one_node_head():
    # no dropout: the recurrence and output layer record 345 nodes, and the
    # NLL one more, where the log-softmax, take, mask, sum and scale chain
    # recorded five (350 in all)
    batch, nmt = long_fixture_batch()
    with Tape() as tape:
        nmt_batch_loss(nmt, batch)
    assert len(tape) == 350 - 4


def test_long_fixture_backward_forms_annotation_gradient_once(monkeypatch):
    # the 32 decoder steps' attention gradients for h are summed by one
    # batched product, not as one (B, T, 2d) product per step
    batch, nmt = long_fixture_batch()
    formed, summed = [], T._summed

    def spy(dense, outers):
        if outers:
            formed.append(len(outers))
        return summed(dense, outers)

    monkeypatch.setattr(T, "_summed", spy)
    with Tape() as tape:
        loss = nmt_batch_loss(nmt, batch)
    tape.backward(loss, nmt.params)
    assert formed == [32]
