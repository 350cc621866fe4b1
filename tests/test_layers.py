"""Recurrent cells, embeddings, dropout/weight noise, and the maxout deep
output layer.

Cell correctness is pinned by scalar (d = 1) hand evaluations and by
finite-difference gradient checks; the deep output layer is compared to a
straight-line numpy reimplementation.
"""

import numpy as np
import pytest

from fusionmt import tensor as T
from fusionmt.layers import (
    DeepOutputLayer,
    Embedding,
    GruCell,
    LstmCell,
    NoiseConfig,
    deep_output,
    dropout_mask,
    gaussian,
    gru_step,
    lstm_step,
    orthonormal,
    perturb_parameters,
    restore_parameters,
)
from fusionmt.tensor import ParameterSet, Tape, finite_difference_check

RNG = np.random.default_rng(7)


def set_values(params, mapping):
    for pid, value in mapping.items():
        params.get(pid).value.data[...] = value


def zero_all(params):
    for p in params:
        p.value.data[...] = 0.0


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

class TestInitializers:
    def test_orthonormal_is_orthonormal(self):
        q = orthonormal(np.random.default_rng(0), 16)
        np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-10)

    def test_orthonormal_deterministic(self):
        a = orthonormal(np.random.default_rng(3), 8)
        b = orthonormal(np.random.default_rng(3), 8)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_scale(self):
        draw = gaussian(np.random.default_rng(0), (200, 200), std=0.01)
        assert abs(draw.std() - 0.01) < 0.001


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

class TestGru:
    def make(self, input_size=2, hidden=3):
        params = ParameterSet()
        cell = GruCell("gru", input_size, hidden, params, RNG)
        return cell, params

    def test_zero_fixed_point(self):
        cell, params = self.make()
        zero_all(params)
        s = gru_step(cell, T.constant(np.zeros((1, 3))),
                     T.constant(np.zeros((1, 2))))
        np.testing.assert_array_equal(s.data, 0.0)

    def test_saturated_update_gate_returns_candidate(self):
        cell, params = self.make()
        zero_all(params)
        params.get("gru.b_z").value.data[...] = 1e3  # z -> 1
        params.get("gru.W_h").value.data[...] = RNG.standard_normal((2, 3))
        x = np.ones((1, 2))
        s = gru_step(cell, T.constant(RNG.standard_normal((1, 3))),
                     T.constant(x))
        cand = np.tanh(x @ params.get("gru.W_h").value.data)
        np.testing.assert_allclose(s.data, cand, atol=1e-12)

    def test_scalar_hand_evaluation(self):
        cell, params = self.make(input_size=1, hidden=1)
        set_values(params, {
            "gru.W_z": [[0.5]], "gru.U_z": [[-0.3]], "gru.b_z": [0.1],
            "gru.W_r": [[-0.2]], "gru.U_r": [[0.4]], "gru.b_r": [0.0],
            "gru.W_h": [[0.7]], "gru.U_h": [[0.6]], "gru.b_h": [-0.1],
        })
        x, s_prev = 0.8, -0.5

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        z = sig(0.5 * x + (-0.3) * s_prev + 0.1)
        r = sig((-0.2) * x + 0.4 * s_prev + 0.0)
        cand = np.tanh(0.7 * x + 0.6 * (r * s_prev) + (-0.1))
        want = (1 - z) * s_prev + z * cand
        got = gru_step(cell, T.constant([[s_prev]]), T.constant([[x]]))
        assert got.data[0, 0] == pytest.approx(want, abs=1e-12)

    def test_gradients(self):
        cell, params = self.make()
        s0 = T.constant(RNG.standard_normal((2, 3)))
        x = T.constant(RNG.standard_normal((2, 2)))
        errors = finite_difference_check(
            lambda: T.sum_all(T.tanh(gru_step(cell, s0, x))), params)
        assert max(errors.values()) < 1e-6

    def test_shape_checks(self):
        cell, _ = self.make()
        with pytest.raises(T.ShapeError):
            gru_step(cell, T.constant(np.zeros((1, 4))),
                     T.constant(np.zeros((1, 2))))
        with pytest.raises(T.ShapeError):
            gru_step(cell, T.constant(np.zeros((1, 3))),
                     T.constant(np.zeros((1, 5))))

    def test_recurrent_matrices_not_noisy(self):
        _, params = self.make()
        for p in params:
            assert p.noisy == (not p.id.split(".")[-1].startswith("U_"))


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

class TestLstm:
    def make(self, input_size=2, hidden=3, forget_bias=1.0):
        params = ParameterSet()
        cell = LstmCell("lstm", input_size, hidden, params, RNG,
                        forget_bias=forget_bias)
        return cell, params

    def test_forget_bias_default_one(self):
        _, params = self.make()
        np.testing.assert_array_equal(params.get("lstm.b_f").value.data, 1.0)
        np.testing.assert_array_equal(params.get("lstm.b_i").value.data, 0.0)

    def test_zero_everything(self):
        cell, params = self.make(forget_bias=0.0)
        zero_all(params)
        z = T.constant(np.zeros((1, 3)))
        h, c = lstm_step(cell, (z, z), T.constant(np.zeros((1, 2))))
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_pure_memory(self):
        cell, params = self.make()
        zero_all(params)
        params.get("lstm.b_f").value.data[...] = 1e3   # forget -> 1
        params.get("lstm.b_i").value.data[...] = -1e3  # input -> 0
        c_prev = RNG.standard_normal((1, 3))
        h, c = lstm_step(cell, (T.constant(np.zeros((1, 3))),
                                T.constant(c_prev)),
                         T.constant(np.ones((1, 2))))
        np.testing.assert_allclose(c.data, c_prev, atol=1e-12)

    def test_scalar_hand_evaluation(self):
        cell, params = self.make(input_size=1, hidden=1, forget_bias=0.0)
        set_values(params, {
            "lstm.W_i": [[0.3]], "lstm.U_i": [[0.1]], "lstm.b_i": [0.0],
            "lstm.W_f": [[-0.4]], "lstm.U_f": [[0.2]], "lstm.b_f": [0.5],
            "lstm.W_o": [[0.6]], "lstm.U_o": [[-0.1]], "lstm.b_o": [0.0],
            "lstm.W_g": [[0.9]], "lstm.U_g": [[0.3]], "lstm.b_g": [-0.2],
        })
        x, h_prev, c_prev = 0.4, 0.2, -0.3

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        i = sig(0.3 * x + 0.1 * h_prev)
        f = sig(-0.4 * x + 0.2 * h_prev + 0.5)
        o = sig(0.6 * x - 0.1 * h_prev)
        g = np.tanh(0.9 * x + 0.3 * h_prev - 0.2)
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        got_h, got_c = lstm_step(
            cell, (T.constant([[h_prev]]), T.constant([[c_prev]])),
            T.constant([[x]]))
        assert got_h.data[0, 0] == pytest.approx(h, abs=1e-12)
        assert got_c.data[0, 0] == pytest.approx(c, abs=1e-12)

    def test_gradients(self):
        cell, params = self.make()
        z = T.constant(RNG.standard_normal((2, 3)))
        c0 = T.constant(RNG.standard_normal((2, 3)))
        x = T.constant(RNG.standard_normal((2, 2)))

        def loss():
            h, c = lstm_step(cell, (z, c0), x)
            return T.sum_all(T.add(h, T.tanh(c)))

        errors = finite_difference_check(loss, params)
        assert max(errors.values()) < 1e-6


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

class TestEmbedding:
    def test_lookup_and_gradient_scatter(self):
        params = ParameterSet()
        emb = Embedding("emb", 5, 3, params, RNG)
        out = emb.lookup([2, 2, 4])
        np.testing.assert_array_equal(out.data[0], out.data[1])
        params.zero_grads()
        with Tape() as tape:
            loss = T.sum_all(emb.lookup([2, 2, 4]))
        tape.backward(loss, params)
        grad = emb.table.grad.data
        np.testing.assert_array_equal(grad[2], 2.0)  # visited twice
        np.testing.assert_array_equal(grad[4], 1.0)
        np.testing.assert_array_equal(grad[[0, 1, 3]], 0.0)


# ---------------------------------------------------------------------------
# deep output layer
# ---------------------------------------------------------------------------

def straight_line_deep_output(layer, blocks):
    """Independent forward pass: concat, affine, pairwise max, affine."""
    x = np.concatenate([b for b in blocks], axis=1)
    pre = x @ layer.W_h.value.data + layer.b_h.value.data
    n, two_k = pre.shape
    hidden = pre.reshape(n, two_k // 2, 2).max(axis=2)
    return hidden @ layer.W_o.value.data.T + layer.b_o.value.data


class TestDeepOutput:
    def make(self, lm_state_size=None, vocab=5, pool=3):
        params = ParameterSet()
        layer = DeepOutputLayer("out", state_size=4, embed_size=2,
                                context_size=3, pool_width=pool,
                                vocab_size=vocab, params=params, rng=RNG,
                                lm_state_size=lm_state_size)
        return layer, params

    def inputs(self, batch=2, lm=None):
        s = T.constant(RNG.standard_normal((batch, 4)))
        y = T.constant(RNG.standard_normal((batch, 2)))
        c = T.constant(RNG.standard_normal((batch, 3)))
        if lm is None:
            return s, y, c
        return s, y, c, T.constant(RNG.standard_normal((batch, lm)))

    def test_zero_weights_uniform(self):
        layer, params = self.make()
        zero_all(params)
        s, y, c = self.inputs()
        logits = deep_output(layer, s, y, c)
        np.testing.assert_array_equal(logits.data, 0.0)
        np.testing.assert_allclose(T.softmax(logits).data, 0.2, atol=1e-15)

    def test_matches_straight_line_reimplementation(self):
        layer, _ = self.make()
        s, y, c = self.inputs()
        got = deep_output(layer, s, y, c).data
        want = straight_line_deep_output(layer, [s.data, y.data, c.data])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_fused_matches_straight_line(self):
        layer, _ = self.make(lm_state_size=3)
        s, y, c, lm = self.inputs(lm=3)
        got = deep_output(layer, s, y, c, s_lm_gated=lm).data
        want = straight_line_deep_output(layer, [lm.data, s.data, y.data, c.data])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gradients(self):
        layer, params = self.make()
        s, y, c = self.inputs()
        w = T.constant(RNG.standard_normal((2, 5)))
        errors = finite_difference_check(
            lambda: T.sum_all(T.mul(T.log_softmax(
                deep_output(layer, s, y, c)), w)),
            params)
        assert max(errors.values()) < 1e-4

    def test_arity_enforced(self):
        fused, _ = self.make(lm_state_size=3)
        plain, _ = self.make()
        s, y, c, lm = self.inputs(lm=3)
        with pytest.raises(ValueError):
            deep_output(fused, s, y, c)  # missing LM state
        with pytest.raises(ValueError):
            deep_output(plain, s, y, c, s_lm_gated=lm)

    def test_lm_block_is_leading_rows(self):
        layer, _ = self.make(lm_state_size=3)
        assert layer.W_h.value.shape[0] == 3 + 4 + 2 + 3
        s, y, c, lm = self.inputs(lm=3)
        # zero the LM rows: output must equal a decode that never saw the LM
        layer.W_h.value.data[:3, :] = 0.0
        with_lm = deep_output(layer, s, y, c, s_lm_gated=lm).data
        zero_lm = deep_output(layer, s, y, c,
                              s_lm_gated=T.constant(np.zeros((2, 3)))).data
        np.testing.assert_allclose(with_lm, zero_lm, atol=1e-15)


# ---------------------------------------------------------------------------
# dropout and weight noise
# ---------------------------------------------------------------------------

class TestNoise:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(dropout_p=1.0)
        with pytest.raises(ValueError):
            NoiseConfig(weight_noise_std=-0.1)

    def test_inverted_dropout_preserves_mean(self):
        mask = dropout_mask(np.random.default_rng(0), (100_000,), 0.5)
        assert abs(mask.mean() - 1.0) < 0.01
        assert set(np.unique(mask)) == {0.0, 2.0}

    def test_zero_probability_identity(self):
        mask = dropout_mask(np.random.default_rng(0), (100,), 0.0)
        np.testing.assert_array_equal(mask, 1.0)

    def test_perturb_restore_roundtrip(self):
        params = ParameterSet()
        GruCell("g", 2, 3, params, RNG)
        before = {p.id: p.value.data.copy() for p in params}
        saved = perturb_parameters(params, 0.1, np.random.default_rng(0))
        changed = [pid for pid in before
                   if not np.array_equal(params.get(pid).value.data,
                                         before[pid])]
        assert changed == sorted(p.id for p in params if p.noisy)
        restore_parameters(params, saved)
        for pid, clean in before.items():
            np.testing.assert_array_equal(params.get(pid).value.data, clean)

    def test_zero_std_is_noop(self):
        params = ParameterSet()
        GruCell("g", 2, 3, params, RNG)
        assert perturb_parameters(params, 0.0, np.random.default_rng(0)) == {}
