"""Recurrent cells, embeddings, dropout/weight noise, and the maxout deep
output layer.

Cell correctness is pinned by scalar (d = 1) hand evaluations, by
plain-NumPy reference cells and by finite-difference gradient checks; the
deep output layer is compared to a straight-line numpy reimplementation.
"""

import numpy as np
import pytest

from fusionmt import tensor as T
from fusionmt.layers import (
    DeepOutputLayer,
    Embedding,
    GruCell,
    LstmCell,
    deep_output,
    dropout_mask,
    gaussian,
    gru_step,
    lstm_step,
    orthonormal,
    perturb_parameters,
    restore_parameters,
)
from fusionmt.tensor import ParameterSet, Tape

from gradcheck import add, finite_difference_check, weighted_sum

RNG = np.random.default_rng(7)


def gate_block(params, name):
    """The column block of a cell's joined W, U or b that holds one gate:
    "gru.b_z" is the z block of parameter "gru.b"."""
    pid, _, gate = name.rpartition("_")
    p = params.get(pid)
    d = p.value.shape[-1] // len(p.gates)
    k = p.gates.index(gate)
    return p.value.data[..., k * d:(k + 1) * d]


def per_gate(cell):
    """Each gate's (W, U, b), in the cell's block order, as contiguous
    copies of the column blocks of its joined arrays."""
    return split_gates([t.data for t in cell.weights], cell.weights[1].shape[0])


def split_gates(joined, d):
    """Joined (W, U, b) arrays, or their gradients, as each gate's (W, U,
    b) in block order."""
    return [np.ascontiguousarray(a[..., k * d:(k + 1) * d])
            for k in range(joined[2].shape[0] // d) for a in joined]


def set_values(params, mapping):
    for name, value in mapping.items():
        gate_block(params, name)[...] = value


def zero_all(params):
    for p in params:
        p.value.data[...] = 0.0


def gru_once(cell, s, x, keep=None):
    """One GRU step of a (B, e) ``x`` and a (B, 1) ``keep``, run by
    ``gru_step`` as a T = 1 sequence: the new state."""
    _, new = gru_step(cell, s, T.reshape(x, (1, *x.shape)),
                      None if keep is None else keep[None])
    return new


def lstm_once(cell, state, x):
    """One LSTM step of a (B, e) ``x``, run by ``lstm_step`` as a T = 1
    sequence: the new (h, c)."""
    return lstm_step(cell, state, T.reshape(x, (1, *x.shape)))


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
        draw = gaussian(np.random.default_rng(0), (200, 200))
        assert abs(draw.std() - 0.01) < 0.001


# ---------------------------------------------------------------------------
# plain-NumPy reference cells for the fused tensor.gru / tensor.lstm ops
# ---------------------------------------------------------------------------

def sig(v):
    return 1.0 / (1.0 + np.exp(-v))


def reference_gru(weights, s, x, keep=None):
    """A GRU step written gate by gate; ``keep`` blends in the old state."""
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = weights
    z = sig(x @ W_z + s @ U_z + b_z)
    r = sig(x @ W_r + s @ U_r + b_r)
    cand = np.tanh(x @ W_h + (r * s) @ U_h + b_h)
    new = (1.0 - z) * s + z * cand
    return new if keep is None else keep * new + (1.0 - keep) * s


def reference_lstm(weights, h, c, x):
    """An LSTM step written gate by gate; returns (h, c)."""
    W_o, U_o, b_o, W_i, U_i, b_i, W_f, U_f, b_f, W_g, U_g, b_g = weights
    i = sig(x @ W_i + h @ U_i + b_i)
    f = sig(x @ W_f + h @ U_f + b_f)
    o = sig(x @ W_o + h @ U_o + b_o)
    g = np.tanh(x @ W_g + h @ U_g + b_g)
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def affine_grads(da, x, s, w, u):
    """Gradients of x @ w + s @ u + b for x, s, w, u and b."""
    return da @ w.T, da @ u.T, x.T @ da, s.T @ da, da.sum(axis=0)


def per_gate_gru(w, s, x, keep, g):
    """The GRU step and its backward written gate by gate, one product per
    gate and operand with the op's own sigmoid.  ``w`` is (W, U, b) for each
    of z, r and h.  Returns the new state and the gradients of s, x and each
    of ``w`` for the upstream gradient ``g``."""
    z = T._sigmoid(x @ w[0] + s @ w[1] + w[2])
    r = T._sigmoid(x @ w[3] + s @ w[4] + w[5])
    rs = r * s
    h = np.tanh(x @ w[6] + rs @ w[7] + w[8])
    new = (1.0 - z) * s + z * h
    out = new if keep is None else np.where(keep != 0, new, s)
    g_new, g_carry = (g, 0.0) if keep is None else (g * keep, g * (1.0 - keep))
    da_z = g_new * (h - s) * z * (1.0 - z)
    da_h = g_new * z * (1.0 - h * h)
    dx_h, d_rs, *dw_h = affine_grads(da_h, x, rs, w[6], w[7])
    da_r = d_rs * s * r * (1.0 - r)
    dx_z, ds_z, *dw_z = affine_grads(da_z, x, s, w[0], w[1])
    dx_r, ds_r, *dw_r = affine_grads(da_r, x, s, w[3], w[4])
    ds = g_new * (1.0 - z) + d_rs * r + ds_z + ds_r + g_carry
    return out, (ds, dx_z + dx_r + dx_h, *dw_z, *dw_r, *dw_h)


def per_gate_lstm(w, h, c, x, gh, gc):
    """The LSTM step and its backward written gate by gate, as
    ``per_gate_gru``; ``w`` is (W, U, b) for each of o, i, f and g.  Returns
    h, c and the gradients of h, c, x and each of ``w`` for the upstream
    gradients ``gh`` and ``gc``."""
    o, i, f = (T._sigmoid(x @ w[k] + h @ w[k + 1] + w[k + 2])
               for k in (0, 3, 6))
    g = np.tanh(x @ w[9] + h @ w[10] + w[11])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    gc = gc + gh * o * (1.0 - tc * tc)
    da = (gh * tc * o * (1.0 - o), gc * g * i * (1.0 - i),
          gc * c * f * (1.0 - f), gc * i * (1.0 - g * g))
    per_gate = [affine_grads(da_k, x, h, w[3 * k], w[3 * k + 1])
                for k, da_k in enumerate(da)]
    dx, dh = (sum(grads[k] for grads in per_gate) for k in range(2))
    return o * tc, c_new, (dh, gc * f, dx,
                           *(dw for grads in per_gate for dw in grads[2:]))


def bits(x):
    """The exact bits of a float64 array, as an array of uint64."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_close_grads(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape, k
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), k


class TestJoinedGatesMatchPerGate:
    """The ops on joined gate weights against the per-gate form they
    replace: the forward bit for bit, every gradient within 1e-12
    relative (the joined products sum the gates' terms inside one GEMM),
    the weight gradients compared per gate block."""

    def inputs(self, cell, b, d, input_size, seed):
        rng = np.random.default_rng(seed)
        for k, a in enumerate(cell.weights):  # away from the initial draws
            a.data[...] = rng.standard_normal(a.shape) * (0.3 if k < 2 else 1.0)
        return rng, per_gate(cell), *(
            T.constant(rng.standard_normal(shape))
            for shape in ((b, d), (b, d), (b, input_size)))

    @pytest.mark.parametrize("b", [1, 4, 32])
    @pytest.mark.parametrize("input_size", [24, 120])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gru(self, b, input_size, masked):
        cell = GruCell("g", input_size, 48, ParameterSet(), RNG)
        rng, w, s, _, x = self.inputs(cell, b, 48, input_size, b + input_size)
        keep = (rng.random((b, 1)) < 0.6).astype(float) if masked else None
        g = rng.standard_normal((b, 48))
        with Tape() as tape:
            out = gru_once(cell, s, x, keep)
        want, want_grads = per_gate_gru(w, s.data, x.data, keep, g)
        np.testing.assert_array_equal(bits(out.data), bits(want))
        ds, dx, *joined = tape._nodes[-1].backward_fn(None, g)
        assert_close_grads([ds, dx[0], *split_gates(joined, 48)], want_grads)

    @pytest.mark.parametrize("b", [1, 4, 32])
    def test_lstm(self, b):
        cell = LstmCell("l", 24, 48, ParameterSet(), RNG)
        rng, w, h0, c0, x = self.inputs(cell, b, 48, 24, b)
        gh, gc = (rng.standard_normal((b, 48)) for _ in range(2))
        with Tape() as tape:
            h, c = lstm_once(cell, (h0, c0), x)
        want_h, want_c, want_grads = per_gate_lstm(
            w, h0.data, c0.data, x.data, gh, gc)
        np.testing.assert_array_equal(bits(h.data), bits(want_h))
        np.testing.assert_array_equal(bits(c.data), bits(want_c))
        # the lstm node, the tape's only one
        dh, dc, dx, *joined = tape._nodes[0].backward_fn(gh, gc)
        assert_close_grads([dh, dc, dx[0], *split_gates(joined, 48)],
                           want_grads)


def stepwise_gru(cell, s0, xs, keep, reverse):
    """The test-only reference for a sequence call: one ``gru_step`` node
    per position of the per-step inputs ``xs``, each a T = 1 sequence.
    Returns every position's state and the state the run ends on."""
    states, s = [None] * len(xs), s0
    for t in range(len(xs) - 1, -1, -1) if reverse else range(len(xs)):
        s = states[t] = gru_once(cell, s, xs[t],
                                 None if keep is None else keep[t])
    return states, s


def stepwise_lstm(cell, state, xs):
    """As ``stepwise_gru``, one ``lstm_step`` node per step, each a T = 1
    sequence: every step's h and the last c."""
    hs = []
    for x in xs:
        state = lstm_once(cell, state, x)
        hs.append(state[0])
    return hs, state[1]


def sequence_call(kind, cell, states, xs, keep, reverse):
    """The per-step inputs ``xs`` as one (T, B, e) tensor through one call:
    every step's output, (T, B, d) for a GRU and (T*B, d) rows for an LSTM,
    and the last state."""
    x = T.reshape(T.concat(xs), (len(xs), *xs[0].shape))
    if kind == "gru":
        return gru_step(cell, states[0], x, keep, reverse)
    return lstm_step(cell, tuple(states), x)


SEQUENCE_CASES = [("gru", False, False), ("gru", True, False),
                  ("gru", False, True), ("gru", True, True),
                  ("lstm", False, False)]


class TestSequenceMatchesSteps:
    """A (T, B, e) call, one tape node, against T one-step calls: the
    forward bit for bit and every gradient within 1e-12 norm-relative (the
    sequence node forms each weight and input gradient as one product over
    all T*B rows, where the tape summed T products)."""

    def make(self, kind, b, n, masked, seed, e=5, d=6):
        """A cell, its parameters (the initial state and per-step inputs
        among them), the inputs, a keep mask and the loss weights."""
        rng = np.random.default_rng(seed)
        params = ParameterSet()
        cell = (GruCell if kind == "gru" else LstmCell)("c", e, d, params, rng)
        for k, a in enumerate(cell.weights):  # away from the initial draws
            a.data[...] = rng.standard_normal(a.shape) * (0.3 if k < 2 else 1.0)
        names = ["s0"] if kind == "gru" else ["h0", "c0"]
        states = [params.add(T.Parameter(name, rng.standard_normal((b, d))))
                  .value for name in names]
        xs = [params.add(T.Parameter(f"x{t}", rng.standard_normal((b, e))))
              .value for t in range(n)]
        keep = (rng.random((n, b, 1)) < 0.6).astype(float) if masked else None
        ws = rng.standard_normal((n, b, d)), rng.standard_normal((b, d))
        return cell, params, states, xs, keep, ws

    def grads(self, params, loss_fn):
        params.zero_grads()
        with Tape() as tape:
            out, loss = loss_fn()
        tape.backward(loss, params)
        return out, {p.id: p.grad.data.copy() for p in params}, len(tape)

    @pytest.mark.parametrize("b", [1, 4, 32])
    @pytest.mark.parametrize("kind, masked, reverse", SEQUENCE_CASES)
    def test_matches_steps(self, kind, masked, reverse, b):
        cell, params, states, xs, keep, (w_all, w_end) = self.make(
            kind, b, 7, masked, b)

        def sequence():  # the outputs as (T, B, d), with no node for it
            every, end = sequence_call(kind, cell, states, xs, keep, reverse)
            return ((every.data.reshape(w_all.shape), end.data),
                    add(weighted_sum(every, w_all.reshape(every.shape)),
                        weighted_sum(end, w_end)))

        def steps():
            every, end = (stepwise_gru(cell, states[0], xs, keep, reverse)
                          if kind == "gru" else
                          stepwise_lstm(cell, tuple(states), xs))
            loss = weighted_sum(end, w_end)
            for t, s in enumerate(every):
                loss = add(loss, weighted_sum(s, w_all[t]))
            return (np.stack([s.data for s in every]), end.data), loss

        (got, got_grads, nodes), (want, want_grads, _) = (
            self.grads(params, f) for f in (sequence, steps))
        for a, w in zip(got, want):
            np.testing.assert_array_equal(bits(a), bits(w))
        for pid, w in want_grads.items():
            assert (np.linalg.norm(got_grads[pid] - w)
                    <= 1e-12 * np.linalg.norm(w)), pid
        assert nodes == 6  # the inputs' concat and reshape, the call, loss (3)

    @pytest.mark.parametrize("kind, masked, reverse", SEQUENCE_CASES)
    def test_finite_differences(self, kind, masked, reverse):
        cell, params, states, xs, keep, (w_all, w_end) = self.make(
            kind, 4, 3, masked, 11, e=2, d=3)

        def loss():
            every, end = sequence_call(kind, cell, states, xs, keep, reverse)
            return add(weighted_sum(every, w_all.reshape(every.shape)),
                       weighted_sum(end, w_end))

        errors = finite_difference_check(loss, params)
        assert max(errors.values()) < 1e-4, errors

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_no_steps_rejected(self, kind):
        cell, _, states, *_ = self.make(kind, 2, 1, False, 0)
        x = T.constant(np.zeros((0, 2, 5)))  # T = 0 steps of B = 2 rows
        with pytest.raises(T.DomainError):
            (gru_step(cell, *states, x) if kind == "gru"
             else lstm_step(cell, tuple(states), x))


KEEP = np.array([[1.0], [0.0], [1.0], [0.0]])  # rows 1 and 3 are padding


def trainable_inputs(params, *states):
    """The named (4, 3) states and a (4, 2) input as parameters next to the
    cell's weights, so gradient checks cover every input of the op."""
    shapes = [(name, (4, 3)) for name in states] + [("x", (4, 2))]
    return [params.add(T.Parameter(name, RNG.standard_normal(shape))).value
            for name, shape in shapes]


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
        s = gru_once(cell, T.constant(np.zeros((1, 3))),
                     T.constant(np.zeros((1, 2))))
        np.testing.assert_array_equal(s.data, 0.0)

    def test_saturated_update_gate_returns_candidate(self):
        cell, params = self.make()
        zero_all(params)
        gate_block(params, "gru.b_z")[...] = 1e3  # z -> 1
        gate_block(params, "gru.W_h")[...] = RNG.standard_normal((2, 3))
        x = np.ones((1, 2))
        s = gru_once(cell, T.constant(RNG.standard_normal((1, 3))),
                     T.constant(x))
        cand = np.tanh(x @ gate_block(params, "gru.W_h"))
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
        got = gru_once(cell, T.constant([[s_prev]]), T.constant([[x]]))
        assert got.data[0, 0] == pytest.approx(want, abs=1e-12)

    def test_gradients(self):
        cell, params = self.make()
        s0 = T.constant(RNG.standard_normal((2, 3)))
        x = T.constant(RNG.standard_normal((2, 2)))
        errors = finite_difference_check(
            lambda: weighted_sum(T.tanh(gru_once(cell, s0, x))), params)
        assert max(errors.values()) < 1e-6

    def test_shape_checks(self):
        cell, _ = self.make()
        with pytest.raises(T.ShapeError):
            gru_once(cell, T.constant(np.zeros((1, 4))),
                     T.constant(np.zeros((1, 2))))
        with pytest.raises(T.ShapeError):
            gru_once(cell, T.constant(np.zeros((1, 3))),
                     T.constant(np.zeros((1, 5))))
        with pytest.raises(T.ShapeError):  # a (B, e) input is not a sequence
            gru_step(cell, T.constant(np.zeros((1, 3))),
                     T.constant(np.zeros((1, 2))))
        for steps in (2, 5):  # a (B, 1) keep, with T <= B and with T > B
            with pytest.raises(T.ShapeError, match=r"keep \(4, 1\)"):
                gru_step(cell, T.constant(np.zeros((4, 3))),
                         T.constant(np.zeros((steps, 4, 2))), KEEP)

    @pytest.mark.parametrize("keep", [None, KEEP])
    def test_matches_reference(self, keep):
        cell, _ = self.make()
        s, x = RNG.standard_normal((4, 3)), RNG.standard_normal((4, 2))
        got = gru_once(cell, T.constant(s), T.constant(x), keep).data
        want = reference_gru(per_gate(cell), s, x, keep)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if keep is not None:
            np.testing.assert_array_equal(got[[1, 3]], s[[1, 3]])

    def test_gradients_of_every_input(self):
        cell, params = self.make()
        s, x = trainable_inputs(params, "s_prev")
        w = RNG.standard_normal((4, 3))
        errors = finite_difference_check(
            lambda: weighted_sum(gru_once(cell, s, x, KEEP), w), params)
        assert max(errors.values()) < 1e-4, errors

    def test_one_tape_node_per_step(self):
        cell, _ = self.make()
        with Tape() as tape:
            gru_once(cell, T.constant(np.zeros((4, 3))),
                     T.constant(np.ones((4, 2))), KEEP)
        assert len(tape) == 1

    def test_recurrent_matrices_not_noisy(self):
        _, params = self.make()
        assert [(p.id, p.noisy) for p in params] == [
            ("gru.U", False), ("gru.W", True), ("gru.b", True)]


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

class TestLstm:
    def make(self, input_size=2, hidden=3):
        params = ParameterSet()
        cell = LstmCell("lstm", input_size, hidden, params, RNG)
        return cell, params

    def test_forget_bias_default_one(self):
        _, params = self.make()
        np.testing.assert_array_equal(gate_block(params, "lstm.b_f"), 1.0)
        for gate in "oig":
            np.testing.assert_array_equal(
                gate_block(params, f"lstm.b_{gate}"), 0.0)

    def test_zero_everything(self):
        cell, params = self.make()
        zero_all(params)
        z = T.constant(np.zeros((1, 3)))
        h, c = lstm_once(cell, (z, z), T.constant(np.zeros((1, 2))))
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_pure_memory(self):
        cell, params = self.make()
        zero_all(params)
        gate_block(params, "lstm.b_f")[...] = 1e3   # forget -> 1
        gate_block(params, "lstm.b_i")[...] = -1e3  # input -> 0
        c_prev = RNG.standard_normal((1, 3))
        h, c = lstm_once(cell, (T.constant(np.zeros((1, 3))),
                                T.constant(c_prev)),
                         T.constant(np.ones((1, 2))))
        np.testing.assert_allclose(c.data, c_prev, atol=1e-12)

    def test_scalar_hand_evaluation(self):
        cell, params = self.make(input_size=1, hidden=1)
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
        got_h, got_c = lstm_once(
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
            h, c = lstm_once(cell, (z, c0), x)
            return weighted_sum(add(h, T.tanh(c)))

        errors = finite_difference_check(loss, params)
        assert max(errors.values()) < 1e-6

    def test_matches_reference(self):
        cell, _ = self.make()
        h, c, x = (RNG.standard_normal(shape) for shape in
                   ((4, 3), (4, 3), (4, 2)))
        got = lstm_once(cell, (T.constant(h), T.constant(c)), T.constant(x))
        for g, want in zip(got, reference_lstm(per_gate(cell), h, c, x)):
            np.testing.assert_allclose(g.data, want, rtol=0, atol=1e-12)

    def test_gradients_of_every_input(self):
        cell, params = self.make()
        h0, c0, x = trainable_inputs(params, "h_prev", "c_prev")
        w_h, w_c = (RNG.standard_normal((4, 3)) for _ in range(2))

        def loss():
            h, c = lstm_once(cell, (h0, c0), x)
            return add(weighted_sum(h, w_h), weighted_sum(c, w_c))

        errors = finite_difference_check(loss, params)
        assert max(errors.values()) < 1e-4, errors

    def test_one_tape_node_per_step(self):
        cell, _ = self.make()
        with Tape() as tape:
            lstm_step(cell, (T.constant(np.zeros((4, 3))),) * 2,
                      T.constant(np.ones((1, 4, 2))))
        assert len(tape) == 1

    @pytest.mark.parametrize("x_shape, h_width, c_width", [
        ((1, 1, 5), 3, 3), ((1, 1, 2), 4, 3), ((1, 1, 2), 3, 4),
        ((1, 2), 3, 3)],  # a (B, e) input is not a sequence
        ids=["5-3-3", "2-4-3", "2-3-4", "B-e-input"])
    def test_shape_checks(self, x_shape, h_width, c_width):
        cell, _ = self.make()
        state = (T.constant(np.zeros((1, h_width))),
                 T.constant(np.zeros((1, c_width))))
        with pytest.raises(T.ShapeError):
            lstm_step(cell, state, T.constant(np.zeros(x_shape)))


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
            loss = weighted_sum(emb.lookup([2, 2, 4]))
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
        np.testing.assert_allclose(np.exp(T.log_softmax(logits).data), 0.2,
                                   atol=1e-15)

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
        w = RNG.standard_normal((2, 5))
        errors = finite_difference_check(
            lambda: weighted_sum(T.log_softmax(deep_output(layer, s, y, c)), w),
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
