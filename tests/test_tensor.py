"""Tensor-operation and tape tests.

Gradient correctness is established two ways: against independent forward
reimplementations (naive triple-loop matmul, extended-precision softmax)
and against central finite differences on random small inputs.
"""

import mpmath
import numpy as np
import pytest

from fusionmt import tensor as T
from fusionmt.layers import GruCell
from fusionmt.tensor import (
    Parameter,
    ParameterSet,
    Tape,
    Tensor,
)

from gradcheck import add, finite_difference_check, weighted_sum

RNG = np.random.default_rng(12345)


def make_param(pid, shape, rng=RNG):
    return Parameter(pid, rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

class TestMatmulForward:
    def test_identity(self):
        a = T.constant([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, T.constant(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_orthogonal_rows(self):
        a = T.constant([[1.0, 0.0]])
        b = T.constant([[0.0], [1.0]])
        assert T.matmul(a, b).data.item() == pytest.approx(0.0)

    def test_against_naive_triple_loop(self):
        a = RNG.standard_normal((2, 3))
        b = RNG.standard_normal((3, 2))
        want = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    want[i, j] += a[i, k] * b[k, j]
        got = T.matmul(T.constant(a), T.constant(b)).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))

    def test_batched_rows(self):
        a = RNG.standard_normal((2, 3, 4))
        b = RNG.standard_normal((4, 5))
        got = T.matmul(T.constant(a), T.constant(b)).data
        for i in range(2):
            np.testing.assert_allclose(got[i], a[i] @ b, atol=1e-12)
        with pytest.raises(T.ShapeError):
            T.matmul(T.constant(a), T.constant(np.zeros((3, 5))))


def softmax(x):
    """Softmax values, read through the fused log_softmax op."""
    return np.exp(T.log_softmax(T.constant(x)).data)


class TestSoftmaxForward:
    def test_uniform(self):
        out = softmax([0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0.25] * 4, atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        small = softmax([3.0, 3.0])
        big = softmax([1003.0, 1003.0])
        np.testing.assert_allclose(small, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(big, [0.5, 0.5], atol=1e-15)

    def test_against_extended_precision(self):
        x = [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            es = [mpmath.exp(v) for v in x]
            s = mpmath.fsum(es)
            want = np.array([float(e / s) for e in es])
        np.testing.assert_allclose(softmax(x), want, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(T.DomainError):
            softmax(np.zeros(0))

    def test_rows_sum_to_one(self):
        x = RNG.standard_normal((5, 7)) * 10
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0, atol=1e-12)


class TestSigmoidForward:
    def test_symmetry_point(self):
        assert T.sigmoid(T.constant([0.0])).data[0] == 0.5

    def test_minus_one(self):
        got = T.sigmoid(T.constant([-1.0])).data[0]
        assert got == pytest.approx(1.0 / (1.0 + np.exp(1.0)), abs=1e-15)
        assert got == pytest.approx(0.2689, abs=5e-5)

    def test_complement(self):
        x = RNG.standard_normal(20) * 5
        s = T.sigmoid(T.constant(x)).data + T.sigmoid(T.constant(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_extreme_inputs_finite(self):
        out = T.sigmoid(T.constant([-1e4, 1e4])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-300)

    def test_bits_equal_piecewise_form(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.concatenate([
            [0.0, -0.0, 1e4, -1e4, np.inf, -np.inf, np.nan, -np.nan,
             tiny, -tiny, 1e-310, -1e-310],
            np.random.default_rng(0).standard_normal(10_000) * 50])
        got = T.sigmoid(T.constant(x)).data
        np.testing.assert_array_equal(got.view(np.uint64),
                                      piecewise_sigmoid(x).view(np.uint64))


def piecewise_sigmoid(x):
    """The boolean-indexed form ``tensor._sigmoid`` replaced: each branch
    calls exp only on inputs where it cannot overflow."""
    pos = x >= 0
    y = np.empty_like(x)
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


class TestStructuralOps:
    def test_concat_1d(self):
        out = T.concat([T.constant([1.0, 2.0]), T.constant([3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_tanh_zero(self):
        assert T.tanh(T.constant([0.0])).data[0] == 0.0

    def test_rows_gather(self):
        table = T.constant(np.arange(8.0).reshape(4, 2))
        out = T.rows(table, [3, 0, 3])
        np.testing.assert_array_equal(out.data, [[6, 7], [0, 1], [6, 7]])
        with pytest.raises(T.DomainError):
            T.rows(table, [4])

    def test_maxout2_values(self):
        a = T.constant([[1.0, 3.0, -2.0, -5.0]])
        np.testing.assert_array_equal(T.maxout2(a).data, [[3.0, -2.0]])
        with pytest.raises(T.ShapeError):
            T.maxout2(T.constant(np.zeros((2, 3))))

    def test_add_rowvec(self):
        m = T.constant(np.zeros((2, 3)))
        v = T.constant([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(T.add_rowvec(m, v).data,
                                      [[1, 2, 3], [1, 2, 3]])

    def test_mul_colvec(self):
        m = T.constant(np.ones((2, 3)))
        col = T.constant([[2.0], [3.0]])
        np.testing.assert_array_equal(T.mul_colvec(m, col).data,
                                      [[2, 2, 2], [3, 3, 3]])

    def test_same_shape_enforced(self):
        with pytest.raises(T.ShapeError):
            T.mul(T.constant(np.zeros(2)), T.constant(np.zeros(3)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def check_op(build_loss, params, tol=1e-6):
    errors = finite_difference_check(build_loss, params)
    for pid, err in errors.items():
        assert err < tol, f"{pid}: rel err {err}"


def test_gradcheck_moves_a_column_view_parameter():
    # a parameter whose value is a column view of a larger array: the check
    # must perturb it in place, not a reshaped copy
    joined = RNG.standard_normal((3, 6))
    clean = joined.copy()
    params = ParameterSet([Parameter("v", joined[:, 2:4])])
    assert not params.get("v").value.data.flags.c_contiguous
    w = RNG.standard_normal((3, 2))
    errors = finite_difference_check(
        lambda: weighted_sum(T.tanh(params.get("v").value), w), params)
    assert errors["v"] < 1e-8
    np.testing.assert_array_equal(joined, clean)  # every step was undone


class TestOpGradients:
    """Finite-difference checks on random 2x3 inputs, one op at a time."""

    def unary(self, fn, data=None):
        params = ParameterSet()
        a = params.add(Parameter("a", RNG.standard_normal((2, 3))
                                 if data is None else data))
        check_op(lambda: weighted_sum(fn(a.value)), params)

    def test_tanh(self):
        self.unary(T.tanh)

    def test_sigmoid(self):
        self.unary(T.sigmoid)

    def test_log_softmax(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        w = RNG.standard_normal((2, 3))
        check_op(lambda: weighted_sum(T.log_softmax(a.value), w), params)

    def test_add_sub_mul(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        b = params.add(make_param("b", (2, 3)))
        w, minus = RNG.standard_normal((2, 3)), T.constant(-np.ones((2, 3)))
        scale = T.constant(RNG.standard_normal((2, 3)))
        check_op(lambda: weighted_sum(
            add(add(a.value, T.mul(b.value, minus)),
                T.mul(T.tanh(a.value), scale)), w),
            params)

    def test_matmul(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        b = params.add(make_param("b", (3, 2)))
        check_op(lambda: weighted_sum(T.matmul(a.value, b.value)), params)

    def test_add_rowvec(self):
        params = ParameterSet()
        m = params.add(make_param("m", (2, 3)))
        v = params.add(make_param("v", 3))
        w = RNG.standard_normal((2, 3))
        check_op(lambda: weighted_sum(T.add_rowvec(m.value, v.value), w),
                 params)

    def test_mul_colvec(self):
        params = ParameterSet()
        m = params.add(make_param("m", (2, 3)))
        col = params.add(make_param("col", (2, 1)))
        check_op(lambda: weighted_sum(T.mul_colvec(m.value, col.value)), params)

    def test_transpose(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        w = RNG.standard_normal((3, 2))
        check_op(lambda: weighted_sum(T.transpose(a.value), w), params)

    def test_transpose_3d_swaps_the_first_two_axes(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3, 4)))
        w = RNG.standard_normal((3, 2, 4))
        out = T.transpose(a.value)
        np.testing.assert_array_equal(out.data, a.value.data.transpose(1, 0, 2))
        assert out.data.flags.c_contiguous
        check_op(lambda: weighted_sum(T.transpose(a.value), w), params)

    def test_reshape(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3, 4)))
        w = RNG.standard_normal((6, 4))
        check_op(lambda: weighted_sum(T.reshape(a.value, (-1, 4)), w), params)

    def test_concat_narrow(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        b = params.add(make_param("b", (2, 2)))
        # the loss reads only columns 1..3 of the concatenation
        w = RNG.standard_normal((2, 5)) * [0, 1, 1, 1, 0]

        def loss():
            cat = T.concat([a.value, b.value], axis=1)
            return weighted_sum(cat, w)

        check_op(loss, params)

    def test_rows(self):
        params = ParameterSet()
        table = params.add(make_param("t", (4, 3)))
        w = RNG.standard_normal((3, 3))
        # repeated index exercises the scatter-add path
        check_op(lambda: weighted_sum(T.rows(table.value, [1, 3, 1]), w),
                 params)

    def test_maxout2(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 6)))
        w = RNG.standard_normal((2, 3))
        check_op(lambda: weighted_sum(T.maxout2(a.value), w), params)

    def test_matmul_batched(self):
        params = ParameterSet()
        a = params.add(make_param("a", (3, 5, 4)))
        b = params.add(make_param("b", (4, 2)))
        w = RNG.standard_normal((3, 5, 2))
        check_op(lambda: weighted_sum(T.matmul(a.value, b.value), w), params)


def composed_nll(x, t, w, c):
    """Test-only oracle: the loss and the logits gradient of the five-op
    chain that ``T.nll`` replaced (log-softmax, take one entry per row,
    weight, sum, scale), each forward and backward step as that chain ran
    it, the log-softmax's backward with its row sum included."""
    s = x - x.max(axis=1, keepdims=True)
    y = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
    ar = np.arange(len(t))
    loss = np.asarray((y[ar, t] * w).sum()) * c
    g = np.broadcast_to(np.ones(()) * c, t.shape).copy() * w
    full = np.zeros_like(y)
    full[ar, t] = g
    return loss, full - np.exp(y) * full.sum(axis=1, keepdims=True)


class TestNll:
    """The weighted NLL op against the chain it replaced, finite
    differences and its shape checks."""

    @pytest.mark.parametrize("n, v", [(1, 2), (7, 5), (96, 48)])
    def test_bits_equal_composed_form(self, n, v):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, v)) * 4
        t = rng.integers(0, v, n)
        w = (rng.random(n) < 0.7) * 1.0  # a loss mask, zero rows included
        c = -1.0 / 9  # not a power of two, so every product rounds
        logits = Parameter("logits", x)
        params = ParameterSet([logits])
        params.zero_grads()
        with Tape() as tape:
            loss = T.nll(logits.value, t, w, c)
        assert len(tape) == 1
        tape.backward(loss, params)
        want_loss, want_grad = composed_nll(x, t, w, c)
        assert bits(loss.data) == bits(want_loss)
        # the op scales each row by its weight, where the chain summed the
        # row: a zero-weight row's target entry is +0.0 here and -0.0 there;
        # the parameter gradient sums it into +0.0 either way
        np.testing.assert_array_equal(bits(logits.grad.data),
                                      bits(0.0 + want_grad))

    def test_finite_differences(self):
        params = ParameterSet()
        a = params.add(make_param("a", (5, 4)))
        w = np.array([1.0, 0.0, 2.5, 0.0, 1.0])
        check_op(lambda: T.nll(a.value, [0, 3, 2, 1, 3], w, -0.5), params,
                 tol=1e-4)
        np.testing.assert_array_equal(a.grad.data[[1, 3]], 0.0)

    @pytest.mark.parametrize("logits, targets, weights", [
        ((6,), (6,), (6,)), ((6, 4), (5,), (6,)), ((6, 4), (6,), (6, 1)),
        ((2, 3, 4), (2,), (2,))])
    def test_shape_checked(self, logits, targets, weights):
        with pytest.raises(T.ShapeError):
            T.nll(T.constant(np.zeros(logits)), np.zeros(targets, dtype=int),
                  np.ones(weights), -1.0)


def decoder_case(rng, b, n, t_len, steps, views=False, e=5, d=4, k=6):
    """Parameters for ``T.attention_gru``: the initial state, one (B, e)
    input per step, (n, T, d) projected annotations and (n, T, k)
    annotations (stride-0 views of one sentence's if ``views``), the
    attention weights (W_a, V_a, b_a, v_a) and a GRU on [y; c] moved off its
    initial draw."""
    params = ParameterSet()
    cell = GruCell("dec", e + k, d, params, rng)
    for i, a in enumerate(cell.weights):
        a.data[...] = rng.standard_normal(a.shape) * (0.5 if i < 2 else 1.0)

    def new(name, shape, rows=None):
        x = rng.standard_normal(shape)
        if rows is not None:
            x = np.broadcast_to(x, (rows, *shape[1:]))
        return params.add(Parameter(name, x)).value

    s0, ys = new("s0", (b, d)), [new(f"y{t}", (b, e)) for t in range(steps)]
    proj, h = (new(name, (1 if views else n, t_len, w), n if views else None)
               for name, w in (("proj", d), ("h", k)))
    attn = [new(name, shape) for name, shape in (
        ("W_a", (d, d)), ("V_a", (e, d)), ("b_a", (d,)), ("v_a", (d, 1)))]
    return params, s0, ys, proj, h, attn, cell


def padded_mask(n, t_len):
    """Every other row padded after 1 + i % T of its positions."""
    mask = np.ones((n, t_len))
    for i in range(1, n, 2):
        mask[i, 1 + i % t_len:] = 0.0
    return mask


def run_attention_gru(case, mask):
    """The op over every step of ``case`` as one (T, B, e) input; returns
    its (alpha, c, s) as step-major (T*B, .) rows."""
    _, s0, ys, proj, h, attn, cell = case
    y = T.reshape(T.concat(ys), (len(ys), *ys[0].shape))
    return T.attention_gru(s0, y, proj, h, mask, attn, cell.weights)


def as_steps(x, steps):
    """Step-major (T*B, .) rows back as (T, B, .)."""
    return T.reshape(x, (steps, -1, x.shape[1]))


def attention_once(s, y, proj, h, mask, attn, cell):
    """One step of a (B, e) ``y``, run by ``T.attention_gru`` as a T = 1
    sequence: its (alpha, c, s), each (B, .)."""
    return T.attention_gru(s, T.reshape(y, (1, *y.shape)), proj, h, mask,
                           attn, cell)


def stepwise_attention_gru(s, ys, proj, h, mask, attn, cell):
    """Test-only reference for ``T.attention_gru``: per (B, e) input of
    ``ys``, the query from its own matmul, add and add_rowvec nodes,
    ``reference_attention``, and ``T.gru`` over [y; c] as a T = 1 sequence.
    Returns each step's (alpha, c, s)."""
    w_a, v_y, b_a, v_a = attn
    steps = []
    for y in ys:
        query = T.add_rowvec(add(T.matmul(s, w_a), T.matmul(y, v_y)), b_a)
        alpha, ctx = reference_attention(query, proj, h, v_a, mask)
        yc = T.concat([y, ctx], axis=1)
        _, s = T.gru(s, T.reshape(yc, (1, *yc.shape)), cell)
        steps.append((alpha, ctx, s))
    return steps


class TestAttentionOp:
    """Finite differences through the attention decoder op, B=3, three
    steps and T=6 source positions, with every input trainable; the
    annotation batch is the mask's."""

    def check(self, mask):
        rng = np.random.default_rng(int(mask.sum()))
        case = decoder_case(rng, 3, mask.shape[0], 6, 3, e=2, d=3, k=4)
        w_c, w_s = rng.standard_normal((3, 3, 4)), rng.standard_normal((3, 3, 3))

        def loss():
            _, ctx, s = (as_steps(x, 3) for x in run_attention_gru(case, mask))
            return add(weighted_sum(ctx, w_c), weighted_sum(s, w_s))

        check_op(loss, case[0], tol=1e-4)

    def test_unmasked(self):
        self.check(np.ones((3, 6)))

    def test_padded_rows(self):
        mask = np.ones((3, 6))
        mask[1, 4:] = 0.0
        mask[2, 1:] = 0.0
        self.check(mask)

    def test_one_sentence_for_every_row(self):
        # (1, T) annotations serve all B rows, with a masked position
        mask = np.ones((1, 6))
        mask[0, 4] = 0.0
        self.check(mask)

    def test_alpha_normalized_and_masked(self):
        mask = np.ones((3, 6))
        mask[2, 2:] = 0.0
        case = decoder_case(RNG, 3, 3, 6, 4)
        alpha = as_steps(run_attention_gru(case, mask)[0], 4)
        assert alpha.shape == (4, 3, 6)  # source positions on the last axis
        np.testing.assert_allclose(alpha.data.sum(axis=2), 1.0, atol=1e-12)
        assert alpha.data[:, 2, 2:].max() < 1e-12

    def test_shapes_checked(self):
        _, s0, ys, proj, h, attn, cell = decoder_case(RNG, 2, 2, 3, 1)
        y = T.reshape(ys[0], (1, *ys[0].shape))  # a T = 1 sequence
        with pytest.raises(T.ShapeError):  # a (B, e) input is not a sequence
            T.attention_gru(s0, ys[0], proj, h, np.ones((2, 3)), attn,
                            cell.weights)
        with pytest.raises(T.ShapeError):  # a v_a of the wrong width
            T.attention_gru(s0, y, proj, h, np.ones((2, 3)),
                            attn[:3] + [T.constant(np.zeros((3, 1)))],
                            cell.weights)
        with pytest.raises(T.ShapeError):  # a GRU input not [y; c] wide
            T.attention_gru(s0, y, proj, T.constant(np.zeros((2, 3, 5))),
                            np.ones((2, 3)), attn, cell.weights)
        with pytest.raises(T.DomainError):
            T.attention_gru(s0, y, *(T.constant(np.zeros((2, 0, w)))
                                     for w in (4, 6)),
                            np.ones((2, 0)), attn, cell.weights)

    @pytest.mark.parametrize("n_proj, n_h, n_mask", [
        (2, 2, 2), (1, 3, 3), (3, 1, 3), (3, 3, 1), (1, 1, 3), (4, 4, 4)])
    def test_annotation_batch_is_one_or_b(self, n_proj, n_h, n_mask):
        # B = 3 rows: proj, h and mask share one batch, 1 or 3
        _, s0, ys, _, _, attn, cell = decoder_case(RNG, 3, 3, 5, 1)
        with pytest.raises(T.ShapeError):
            T.attention_gru(s0, T.reshape(ys[0], (1, 3, 5)),
                            T.constant(np.zeros((n_proj, 5, 4))),
                            T.constant(np.zeros((n_h, 5, 6))),
                            np.ones((n_mask, 5)), attn, cell.weights)


def reference_attention(query, proj, h, v_a, mask):
    """Test-only oracle: additive attention with its sums over source
    positions taken the broadcast way, a (B, T, k) product summed over axis
    1 for the context and a (B, T, k) outer product for the annotation
    gradient, summed over rows when one sentence's annotations serve all."""
    d = proj.shape[2]
    u = np.tanh(query.data[:, None, :] + proj.data)
    e = (u @ v_a.data)[:, :, 0] + (mask - 1.0) * 1e9
    ex = np.exp(e - e.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    ctx = Tensor((alpha[:, :, None] * h.data).sum(axis=1))

    def backward(g):
        g_alpha = h.data @ g[:, :, None]
        g_e = alpha[:, :, None] * (g_alpha - alpha[:, None, :] @ g_alpha)
        g_pre = g_e * v_a.data[:, 0] * (1.0 - u * u)
        g_ann = [g_pre, alpha[:, :, None] * g[:, None, :]]
        if proj.shape[0] < len(alpha):
            g_ann = [x.sum(axis=0, keepdims=True) for x in g_ann]
        return (g_pre.sum(axis=1), *g_ann,
                u.reshape(-1, d).T @ g_e.reshape(-1, 1))

    return Tensor(alpha), T._record((query, proj, h, v_a), ctx, backward)


def bits(x):
    """The exact bits of a float64 array, as an array of uint64."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_close_gradients(got, want, tol=1e-12):
    assert set(got) == set(want)
    for pid, w in want.items():
        assert np.linalg.norm(got[pid] - w) <= tol * np.linalg.norm(w), pid


class TestAttentionMatchesReference:
    """The op against the stepwise reference: alpha, the context and the
    state of every step bit for bit, and every gradient within 1e-12
    norm-relative (the op forms each weight's and the annotations' gradient
    once over all steps, where the reference's tape adds one per step)."""

    def outputs(self, case, mask, stepwise):
        """Every step's (alpha, c, s) stacked, and the parameter gradients
        of a weighted sum over every step's c and s."""
        params, s0, ys, proj, h, attn, cell = case
        rng = np.random.default_rng(len(ys))
        (b, d), k = s0.shape, h.shape[2]
        w_c, w_s = (rng.standard_normal((len(ys), b, m)) for m in (k, d))
        params.zero_grads()
        with Tape() as tape:
            if stepwise:
                steps = stepwise_attention_gru(s0, ys, proj, h, mask, attn,
                                               cell.weights)
                out = [np.stack([x[i].data for x in steps]) for i in range(3)]
                loss = None
                for t, (_, c, s) in enumerate(steps):
                    term = add(weighted_sum(c, w_c[t]), weighted_sum(s, w_s[t]))
                    loss = term if loss is None else add(loss, term)
            else:  # the rows back as (T, B, .), with no node for it
                alpha, c, s = run_attention_gru(case, mask)
                out = [x.data.reshape(len(ys), b, -1) for x in (alpha, c, s)]
                loss = add(weighted_sum(c, w_c.reshape(c.shape)),
                           weighted_sum(s, w_s.reshape(s.shape)))
        tape.backward(loss, params)
        return out, {p.id: p.grad.data.copy() for p in params}, len(tape)

    def assert_matches(self, case, mask):
        got, got_grads, nodes = self.outputs(case, mask, False)
        want, want_grads, _ = self.outputs(case, mask, True)
        for name, x, y in zip(("alpha", "c", "s"), got, want):
            np.testing.assert_array_equal(bits(x), bits(y), err_msg=name)
        assert_close_gradients(got_grads, want_grads)
        # the op after the inputs' concat and reshape, and the loss (3)
        assert nodes == 6

    @pytest.mark.parametrize("b", [1, 3, 32])
    @pytest.mark.parametrize("t_len", [1, 6, 25])
    def test_padded_batches(self, b, t_len):
        # one step, a T = 1 sequence, as a decode step runs it
        case = decoder_case(np.random.default_rng(100 * b + t_len), b, b,
                            t_len, 1, e=8, d=8, k=10)
        self.assert_matches(case, padded_mask(b, t_len))

    @pytest.mark.parametrize("b", [1, 4, 32])
    @pytest.mark.parametrize("shared", [False, True])
    def test_steps_match_stepwise_reference(self, b, shared):
        # five steps over padded sources, or over one sentence's
        # annotations (a masked position among them) read by all B rows
        n, t_len = (1, 7) if shared else (b, 9)
        case = decoder_case(np.random.default_rng(b), b, n, t_len, 5)
        mask = np.ones((1, t_len)) if shared else padded_mask(b, t_len)
        mask[0, 5] = 0.0
        self.assert_matches(case, mask)

    @pytest.mark.parametrize("n", [1, 10])
    def test_broadcast_annotations(self, n):
        # beam decoding repeats one sentence's annotations for n hypotheses;
        # here as stride-0 views
        case = decoder_case(np.random.default_rng(n), n, n, 7, 3, views=True)
        assert case[3].data.strides[0] == case[4].data.strides[0] == 0
        self.assert_matches(case, np.broadcast_to(np.ones((1, 7)), (n, 7)))

    @pytest.mark.parametrize("b", [1, 3, 10])
    def test_one_sentence_equals_its_broadcast_views(self, b):
        # (1, T) annotations give the bits of the same annotations broadcast
        # to B rows, and their gradients are the broadcast ones summed over
        # rows, within 1e-12 of their norm
        mask = np.ones((1, 9))
        mask[0, 5] = 0.0
        one = decoder_case(np.random.default_rng(b), b, 1, 9, 3)
        wide = decoder_case(np.random.default_rng(b), b, b, 9, 3, views=True)
        got, got_grads, _ = self.outputs(one, mask, False)
        want, want_grads, _ = self.outputs(
            wide, np.broadcast_to(mask, (b, 9)), False)
        for x, y in zip(got, want):
            np.testing.assert_array_equal(bits(x), bits(y))
        for pid in ("proj", "h"):
            want_grads[pid] = want_grads[pid].sum(axis=0, keepdims=True)
        assert_close_gradients(got_grads, want_grads)


class TestDeferredAnnotationGradient:
    """The op returns its annotation gradient summed over its steps; the
    tape adds it to any other terms for the same annotations, in whatever
    order they arrive, and to the terms of other calls."""

    B, T_LEN, D, K = 3, 5, 4, 6

    def mask(self):
        mask = np.ones((self.B, self.T_LEN))
        mask[1, 3:] = 0.0
        mask[2, 1:] = 0.0
        return mask

    def gradients(self, stepwise, arrivals, leaf):
        """Parameter gradients of a loss whose h feeds one-step op calls
        ("att") and dense matmuls ("dense"), listed in the order their
        gradients reach h; h is a parameter (``leaf``) or a tanh node."""
        rng = np.random.default_rng(7)
        params, s0, ys, proj, a, attn, cell = decoder_case(
            rng, self.B, self.B, self.T_LEN, 1, d=self.D, k=self.K)
        w = params.add(make_param("W", (self.K, 2), rng)).value
        consts = [(rng.standard_normal(s0.shape),
                   rng.standard_normal((self.B, self.K)),
                   rng.standard_normal((self.B, self.T_LEN, 2)))
                  for _ in arrivals]
        params.zero_grads()
        with Tape() as tape:
            h = a if leaf else T.tanh(a)
            loss = None
            # the tape runs backward, so the last use recorded arrives first
            for use, (offset, w_att, w_dense) in zip(reversed(arrivals), consts):
                if use == "att":
                    s = add(s0, T.constant(offset))
                    ctx = (stepwise_attention_gru(
                        s, ys, proj, h, self.mask(), attn, cell.weights)[0][1]
                        if stepwise else attention_once(
                            s, ys[0], proj, h, self.mask(), attn,
                            cell.weights)[1])
                    term = weighted_sum(ctx, w_att)
                else:
                    term = weighted_sum(T.matmul(h, w), w_dense)
                loss = term if loss is None else add(loss, term)
        tape.backward(loss, params)
        return {x.id: x.grad.data.copy() for x in params}

    @pytest.mark.parametrize("leaf", [False, True])
    @pytest.mark.parametrize("arrivals", [
        ("att", "att", "dense"),  # two op terms, then a dense one
        ("dense", "att"),  # a closure's array, then an op term
        ("dense", "dense", "att", "att"),  # a dense sum, then op terms
        ("att", "dense", "att", "dense"),
    ])
    def test_orders_match_dense_reference(self, arrivals, leaf):
        assert_close_gradients(self.gradients(False, arrivals, leaf),
                               self.gradients(True, arrivals, leaf))

    def test_finite_differences_over_steps(self):
        # three one-step calls attend over one h with padded rows; each
        # call's state reads the last call's context
        rng = np.random.default_rng(8)
        params, s0, ys, _, a, attn, cell = decoder_case(
            rng, self.B, self.B, self.T_LEN, 1, e=2, d=3, k=self.K)
        u, w = (params.add(make_param(n, s, rng)).value
                for n, s in (("U", (self.K, 3)), ("W", (self.K, 3))))
        ws = rng.standard_normal((3, self.B, self.K))

        def loss():
            h = T.tanh(a)
            proj, s, total = T.matmul(h, u), s0, None
            for wt in ws:
                _, ctx, _ = attention_once(s, ys[0], proj, h, self.mask(),
                                           attn, cell.weights)
                term = weighted_sum(ctx, wt)
                total = term if total is None else add(total, term)
                s = T.tanh(T.matmul(ctx, w))
            return total

        check_op(loss, params, tol=1e-4)


class TestMaxoutTieRule:
    def test_gradient_goes_to_first_of_tied_pair(self):
        params = ParameterSet()
        a = params.add(Parameter("a", np.array([[2.0, 2.0]])))
        params.zero_grads()
        with Tape() as tape:
            loss = weighted_sum(T.maxout2(a.value))
        tape.backward(loss, params)
        np.testing.assert_array_equal(a.grad.data, [[1.0, 0.0]])


class TestLinearCases:
    def test_linear_loss_gradient_is_input(self):
        # loss = sum(W x): dL/dW = 1 x' (outer product with the all-ones row)
        params = ParameterSet()
        w = params.add(make_param("W", (3, 2)))
        x = RNG.standard_normal((2, 4))
        params.zero_grads()
        with Tape() as tape:
            loss = weighted_sum(T.matmul(w.value, T.constant(x)))
        tape.backward(loss, params)
        np.testing.assert_allclose(w.grad.data,
                                   np.outer(np.ones(3), x.sum(axis=1)),
                                   atol=1e-12)

    def test_uniform_logits_cross_entropy_gradient(self):
        # -log softmax at class k with equal logits: grad_i = 1/n - [i == k]
        n, k = 5, 2
        params = ParameterSet()
        logits = params.add(Parameter("logits", np.zeros((1, n))))
        params.zero_grads()
        with Tape() as tape:
            loss = T.nll(logits.value, [k], [1.0], -1.0)
        tape.backward(loss, params)
        want = np.full(n, 1.0 / n)
        want[k] -= 1.0
        np.testing.assert_allclose(logits.grad.data[0], want, atol=1e-12)


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------

class TestTape:
    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(T.TapeError):
                with Tape():
                    pass

    def test_backward_without_recording(self):
        params = ParameterSet([make_param("a", (2, 2))])
        with pytest.raises(T.TapeError):
            Tape().backward(T.constant(0.0), params)

    def test_loss_from_other_tape_rejected(self):
        params = ParameterSet([make_param("a", (2, 2))])
        with Tape() as t1:
            loss = weighted_sum(params.get("a").value)
        with Tape() as t2:
            weighted_sum(params.get("a").value)
        with pytest.raises(T.TapeError):
            t2.backward(loss, params)

    def test_constant_loss_on_recorded_tape_rejected(self):
        params = ParameterSet([make_param("a", (2, 2))])
        with Tape() as tape:
            weighted_sum(params.get("a").value)
        with pytest.raises(T.TapeError, match="not recorded under this tape"):
            tape.backward(T.constant(0.0), params)

    def test_non_scalar_loss_rejected(self):
        params = ParameterSet([make_param("a", (2, 2))])
        with Tape() as tape:
            out = T.tanh(params.get("a").value)
        with pytest.raises(T.ShapeError):
            tape.backward(out, params)

    def test_gradient_accumulates_across_backwards(self):
        params = ParameterSet([make_param("a", 3)])
        a = params.get("a")
        params.zero_grads()
        for _ in range(2):
            with Tape() as tape:
                loss = weighted_sum(a.value)
            tape.backward(loss, params)
        np.testing.assert_array_equal(a.grad.data, [2.0, 2.0, 2.0])

    def test_shared_subexpression(self):
        params = ParameterSet([make_param("a", (2, 2))])
        a = params.get("a")
        params.zero_grads()
        with Tape() as tape:
            h = T.tanh(a.value)
            loss = weighted_sum(add(h, h))
        tape.backward(loss, params)
        np.testing.assert_allclose(a.grad.data,
                                   2.0 * (1 - np.tanh(a.value.data) ** 2),
                                   atol=1e-12)

    def test_sums_of_many_terms_match_reference_and_spare_closure_arrays(self):
        # add(s, s) returns one array for both inputs, transpose and concat
        # return views, and a and w feed every step
        params = ParameterSet([make_param("a", (2, 3)),
                               make_param("w", (9, 3))])
        a, w = params.get("a").value, params.get("w").value
        params.zero_grads()
        with Tape() as tape:
            s = a
            for _ in range(3):
                y = T.transpose(T.transpose(add(s, s)))
                s = T.tanh(T.matmul(T.concat([y, s, a], axis=1), w))
            loss = weighted_sum(add(s, s))
        returned = []
        for node in tape._nodes:
            def spy(g, fn=node.backward_fn):
                grads = fn(g)
                returned.extend((x, x.copy()) for x in grads if x is not None)
                return grads
            node.backward_fn = spy
        tape.backward(loss, params)
        for arr, snapshot in returned:
            np.testing.assert_array_equal(arr, snapshot)
        want = out_of_place_backward(tape, loss)
        for p in params:
            np.testing.assert_allclose(p.grad.data, want[id(p.value)],
                                       rtol=0, atol=1e-15)

    def test_constant_subgraphs_not_recorded(self):
        params = ParameterSet([make_param("a", (2, 2))])
        a = params.get("a")
        with Tape() as tape:
            T.tanh(T.constant(np.ones((4, 4))))  # no parameter involved
            n_const = len(tape)
            loss = weighted_sum(a.value)
        assert n_const == 0
        assert len(tape) == 1
        tape.backward(loss, params)

    def test_frozen_parameter_not_recorded_or_touched(self):
        frozen = Parameter("f", np.ones((2, 2)))
        frozen.value.requires_grad = False
        live = make_param("a", (2, 2))
        params = ParameterSet([frozen, live])
        params.zero_grads()
        with Tape() as tape:
            loss = weighted_sum(add(T.tanh(frozen.value), live.value))
        tape.backward(loss, params)
        np.testing.assert_array_equal(frozen.grad.data, 0.0)
        np.testing.assert_array_equal(live.grad.data, 1.0)

    def test_constant_inputs_keep_no_gradient(self):
        # the mask feeds two nodes; its gradients come back as objects that
        # refuse to be summed, so a backward that keeps them fails
        class Unsummable:
            def __add__(self, other):
                raise AssertionError("a constant's gradient was summed")
            __radd__ = __iadd__ = __add__

        params = ParameterSet([make_param("a", (2, 2))])
        a = params.get("a").value
        mask = T.constant(np.array([[1.0, 0.0], [2.0, 1.0]]))
        params.zero_grads()
        with Tape() as tape:
            loss = weighted_sum(add(T.mul(a, mask), T.mul(T.tanh(a), mask)))
        returned = []
        for node in tape._nodes:
            def spy(g, fn=node.backward_fn, inputs=node.inputs):
                grads = fn(g)
                returned.extend(x for t, x in zip(inputs, grads) if t is mask)
                return [Unsummable() if t is mask else x
                        for t, x in zip(inputs, grads)]
            node.backward_fn = spy
        tape.backward(loss, params)
        # mul computes no gradient for its constant operand
        assert [x is None for x in returned] == [True, True]
        np.testing.assert_allclose(
            params.get("a").grad.data,
            mask.data * (2.0 - np.tanh(a.data) ** 2), rtol=0, atol=1e-15)

    def test_forward_works_without_tape(self):
        out = T.tanh(T.constant([1.0]))
        assert np.isfinite(out.data).all()


def out_of_place_backward(tape, loss):
    """Reference gradient sums: every extra contribution makes a new array."""
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        (out,) = node.outs  # every op this reference runs on has one output
        g_out = grads.pop(id(out), None)
        if g_out is None:
            continue
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is not None:
                grads[id(t)] = g if id(t) not in grads else grads[id(t)] + g
    return grads


class TestParameterSet:
    def test_sorted_iteration_and_duplicates(self):
        params = ParameterSet([make_param("b", 2), make_param("a", 2)])
        assert [p.id for p in params] == ["a", "b"]
        assert "a" in params and len(params) == 2
        with pytest.raises(ValueError):
            params.add(make_param("a", 2))

    def test_trainable_filter(self):
        params = ParameterSet([make_param("x", 2), make_param("y", 2)])
        params.get("x").value.requires_grad = False
        assert [p.id for p in params.trainable()] == ["y"]

    def test_trainable_is_the_value_flag(self):
        p = Parameter("x", np.zeros(2))
        assert p.trainable is True and p.value.requires_grad is True
        p.value.requires_grad = False
        assert p.trainable is False
        p.value.requires_grad = True
        assert p.trainable is True
        with pytest.raises(AttributeError):
            p.trainable = False  # read-only: requires_grad is the one flag


class TestFiniteDifferenceChecker:
    def test_catches_a_wrong_gradient(self):
        params = ParameterSet([make_param("a", 3)])
        a = params.get("a")

        def bad_square(t):
            out = Tensor(t.data ** 2)
            return T._record((t,), out, lambda g: (g * t.data,))  # missing 2x

        errors = finite_difference_check(
            lambda: weighted_sum(bad_square(a.value)), params)
        assert errors["a"] > 1e-2
