"""Tensor-operation and tape tests.

Gradient correctness is established two ways: against independent forward
reimplementations (naive triple-loop matmul, extended-precision softmax)
and against central finite differences on random small inputs.
"""

import mpmath
import numpy as np
import pytest

from fusionmt import tensor as T
from fusionmt.tensor import (
    Parameter,
    ParameterSet,
    Tape,
    Tensor,
)

from gradcheck import finite_difference_check, weighted_sum

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

    def test_concat_of_row_lists_is_the_nested_concat(self):
        # [G | S | Y]: G whole, S and Y given as their per-step rows
        g = T.constant(RNG.standard_normal((6, 2)))
        s = [T.constant(RNG.standard_normal((2, 3))) for _ in range(3)]
        y = [T.constant(RNG.standard_normal((2, 1))) for _ in range(3)]
        want = np.concatenate([g.data, np.concatenate([t.data for t in s]),
                               np.concatenate([t.data for t in y])], axis=1)
        np.testing.assert_array_equal(T.concat([g, s, y], axis=1).data, want)

    def test_tanh_zero(self):
        assert T.tanh(T.constant([0.0])).data[0] == 0.0

    def test_stack(self):
        out = T.stack([T.constant([[1.0, 2.0]]), T.constant([[3.0, 4.0]])],
                      axis=1)
        np.testing.assert_array_equal(out.data, [[[1, 2], [3, 4]]])
        with pytest.raises(T.DomainError):
            T.stack([])

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
            T.add(T.constant(np.zeros(2)), T.constant(np.zeros(3)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def check_op(build_loss, params, tol=1e-6):
    errors = finite_difference_check(build_loss, params)
    for pid, err in errors.items():
        assert err < tol, f"{pid}: rel err {err}"


def test_gradcheck_moves_a_column_view_parameter():
    # a gate's parameter is a column block of its cell's joined weights;
    # the check must perturb it in place, not a reshaped copy
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
        check_op(lambda: weighted_sum(
            T.add(T.add(a.value, T.mul(b.value, minus)),
                  T.mul(a.value, b.value)), w),
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

    def test_concat_of_row_lists(self):
        params = ParameterSet()
        g = params.add(make_param("g", (6, 2)))
        s = [params.add(make_param(f"s{t}", (2, 3))) for t in range(3)]
        y = [params.add(make_param(f"y{t}", (2, 1))) for t in range(3)]
        w = RNG.standard_normal((6, 6))

        def loss():
            cat = T.concat([g.value, [p.value for p in s], [p.value for p in y]],
                           axis=1)
            return weighted_sum(cat, w)

        check_op(loss, params)
        with Tape() as tape:  # one node whose inputs are every listed tensor
            T.concat([g.value, [p.value for p in s]], axis=1)
        assert len(tape) == 1

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

    def test_stack(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        b = params.add(make_param("b", (2, 3)))
        w = RNG.standard_normal((2, 2, 3))
        check_op(lambda: weighted_sum(T.stack([a.value, b.value], axis=1), w),
                 params)

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


class TestAttentionOp:
    """Finite differences through the fused additive-attention op, B=3 and
    T=6, with every input trainable; the annotation batch is the mask's."""

    def check(self, mask):
        b, t_len, d, k = 3, 6, 4, 5
        n = mask.shape[0]
        params = ParameterSet()
        query = params.add(make_param("query", (b, d)))
        proj = params.add(make_param("proj", (n, t_len, d)))
        h = params.add(make_param("h", (n, t_len, k)))
        v_a = params.add(make_param("v_a", (d, 1)))
        w = RNG.standard_normal((b, k))

        def loss():
            _, ctx = T.attention(query.value, proj.value, h.value, v_a.value,
                                 mask)
            return weighted_sum(ctx, w)

        check_op(loss, params, tol=1e-4)

    def test_unmasked(self):
        self.check(np.ones((3, 6)))

    def test_padded_rows(self):
        mask = np.ones((3, 6))
        mask[1, 4:] = 0.0
        mask[2, 1:] = 0.0
        self.check(mask)

    def test_one_sentence_for_every_row(self):
        # (1, T) annotations serve all B query rows, with a masked position
        mask = np.ones((1, 6))
        mask[0, 4] = 0.0
        self.check(mask)

    def test_alpha_normalized_and_masked(self):
        mask = np.ones((3, 6))
        mask[2, 2:] = 0.0
        alpha, _ = T.attention(T.constant(RNG.standard_normal((3, 4))),
                               T.constant(RNG.standard_normal((3, 6, 4))),
                               T.constant(RNG.standard_normal((3, 6, 5))),
                               T.constant(RNG.standard_normal((4, 1))), mask)
        np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-12)
        assert alpha.data[2, 2:].max() < 1e-12

    def test_shapes_checked(self):
        with pytest.raises(T.ShapeError):
            T.attention(T.constant(np.zeros((2, 4))),
                        T.constant(np.zeros((2, 3, 4))),
                        T.constant(np.zeros((2, 3, 5))),
                        T.constant(np.zeros((3, 1))), np.ones((2, 3)))

    @pytest.mark.parametrize("n_proj, n_h, n_mask", [
        (2, 2, 2), (1, 3, 3), (3, 1, 3), (3, 3, 1), (1, 1, 3), (4, 4, 4)])
    def test_annotation_batch_is_one_or_b(self, n_proj, n_h, n_mask):
        # B = 3 query rows: proj, h and mask share one batch, 1 or 3
        with pytest.raises(T.ShapeError):
            T.attention(T.constant(np.zeros((3, 4))),
                        T.constant(np.zeros((n_proj, 5, 4))),
                        T.constant(np.zeros((n_h, 5, 6))),
                        T.constant(np.zeros((4, 1))), np.ones((n_mask, 5)))


def reference_attention(query, proj, h, v_a, mask):
    """Test-only oracle: ``T.attention`` with its sums over source positions
    taken the broadcast way, a (B, T, k) product summed over axis 1 for the
    context and a (B, T, k) outer product for the annotation gradient."""
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
        return (g_pre.sum(axis=1), g_pre, alpha[:, :, None] * g[:, None, :],
                u.reshape(-1, d).T @ g_e.reshape(-1, 1))

    return Tensor(alpha), T._record((query, proj, h, v_a), ctx, backward)


def bits(x):
    """The exact bits of a float64 array, as an array of uint64."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_same_outputs(got, want):
    """alpha, the context and the query, proj and v_a gradients bit for bit;
    the annotation gradient value for value: the tape forms it as a batched
    product, which may turn a -0 into +0 at a padded position."""
    for name, x, y in zip(("alpha", "ctx", "d_query", "d_proj", "d_h",
                           "d_v_a"), got, want):
        assert x.shape == y.shape, name
        if name == "d_h":
            np.testing.assert_array_equal(x, y, err_msg=name)
        else:
            np.testing.assert_array_equal(bits(x), bits(y), err_msg=name)


class TestAttentionMatchesReference:
    """The op, with its context summed by einsum and its annotation gradient
    deferred to the tape, matches the broadcast reference: alpha, the
    context and all four input gradients."""

    def outputs(self, op, query, proj, h, v_a, mask, g):
        with Tape() as tape:
            alpha, ctx = op(query, proj, h, v_a, mask)
        # a deferred gradient is formed the way the tape forms it
        return (alpha.data, ctx.data, *(
            T._summed(None, [x]) if isinstance(x, T._Outer) else x
            for x in tape._nodes[-1].backward_fn(g)))

    def assert_same_bits(self, query, proj, h, v_a, mask, rng):
        g = rng.standard_normal((proj.shape[0], h.shape[2]))
        assert_same_outputs(
            self.outputs(T.attention, query, proj, h, v_a, mask, g),
            self.outputs(reference_attention, query, proj, h, v_a, mask, g))

    @pytest.mark.parametrize("b", [1, 3, 32])
    @pytest.mark.parametrize("t_len", [1, 6, 25])
    def test_padded_batches(self, b, t_len):
        rng = np.random.default_rng(100 * b + t_len)
        d, k = 8, 10
        query, proj, h, v_a = (make_param(n, s, rng).value for n, s in (
            ("query", (b, d)), ("proj", (b, t_len, d)), ("h", (b, t_len, k)),
            ("v_a", (d, 1))))
        mask = np.ones((b, t_len))
        for i in range(1, b, 2):  # every other row is padded after 1..T
            mask[i, 1 + i % t_len:] = 0.0
        self.assert_same_bits(query, proj, h, v_a, mask, rng)

    @pytest.mark.parametrize("n", [1, 10])
    def test_broadcast_annotations(self, n):
        # beam decoding repeats one sentence's annotations for n hypotheses
        # as stride-0 views
        rng = np.random.default_rng(n)
        t_len, d, k = 7, 8, 10
        query = make_param("query", (n, d), rng).value
        v_a = make_param("v_a", (d, 1), rng).value
        proj, h = (Tensor(np.broadcast_to(rng.standard_normal((1, t_len, w)),
                                          (n, t_len, w))) for w in (d, k))
        for x in (proj, h):
            x.requires_grad = True
            assert x.data.strides[0] == 0
        mask = np.broadcast_to(np.ones((1, t_len)), (n, t_len))
        self.assert_same_bits(query, proj, h, v_a, mask, rng)

    @pytest.mark.parametrize("b", [1, 3, 10])
    def test_one_sentence_equals_its_broadcast_views(self, b):
        # (1, T) annotations give the bits of the same annotations broadcast
        # to B rows; for B > 1 their gradients are the broadcast ones summed
        # over rows (at B = 1 a sum would turn -0 into +0, and none is taken)
        rng = np.random.default_rng(b)
        t_len, d, k = 9, 8, 10
        query = make_param("query", (b, d), rng).value
        v_a = make_param("v_a", (d, 1), rng).value
        mask = np.ones((1, t_len))
        mask[0, 5] = 0.0
        one = [make_param(n, (1, t_len, w), rng).value
               for n, w in (("proj", d), ("h", k))]
        wide = [Tensor(np.broadcast_to(x.data, (b, t_len, x.shape[2])))
                for x in one]
        for x in wide:
            x.requires_grad = True
        g = rng.standard_normal((b, k))
        got = self.outputs(T.attention, query, *one, v_a, mask, g)
        want = list(self.outputs(T.attention, query, *wide, v_a,
                                 np.broadcast_to(mask, (b, t_len)), g))
        if b > 1:
            want[3:5] = (x.sum(axis=0, keepdims=True) for x in want[3:5])
        assert_same_outputs(got, want)


class TestDeferredAnnotationGradient:
    """The attention returns its annotation gradient as factors; the tape
    forms their sum, with any dense terms for the same tensor, once, when it
    reaches the annotations' node or parameter."""

    B, T_LEN, D, K = 3, 5, 4, 6

    def mask(self):
        mask = np.ones((self.B, self.T_LEN))
        mask[1, 3:] = 0.0
        mask[2, 1:] = 0.0
        return mask

    def gradients(self, op, arrivals, leaf):
        """Parameter gradients of a loss whose h feeds attention calls
        ("att") and dense matmuls ("dense"), listed in the order their
        gradients reach h; h is a parameter (``leaf``) or a tanh node."""
        rng = np.random.default_rng(7)
        b, t_len, d, k = self.B, self.T_LEN, self.D, self.K
        params = ParameterSet([make_param(n, s, rng) for n, s in (
            ("a", (b, t_len, k)), ("proj", (b, t_len, d)), ("q", (b, d)),
            ("v_a", (d, 1)), ("W", (k, 2)))])
        p = {x.id: x.value for x in params}
        consts = [(rng.standard_normal((b, d)), rng.standard_normal((b, k)),
                   rng.standard_normal((b, t_len, 2))) for _ in arrivals]
        mask = self.mask()
        params.zero_grads()
        with Tape() as tape:
            h = p["a"] if leaf else T.tanh(p["a"])
            loss = None
            # the tape runs backward, so the last use recorded arrives first
            for use, (offset, w_att, w_dense) in zip(reversed(arrivals), consts):
                if use == "att":
                    _, ctx = op(T.add(p["q"], T.constant(offset)), p["proj"],
                                h, p["v_a"], mask)
                    term = weighted_sum(ctx, w_att)
                else:
                    term = weighted_sum(T.matmul(h, p["W"]), w_dense)
                loss = term if loss is None else T.add(loss, term)
        tape.backward(loss, params)
        return {x.id: x.grad.data.copy() for x in params}

    @pytest.mark.parametrize("leaf", [False, True])
    @pytest.mark.parametrize("arrivals", [
        ("att", "att", "dense"),  # a new sum of two deferred, then in place
        ("dense", "att"),  # a closure's array, then a deferred term
        ("dense", "dense", "att", "att"),  # an owned array, then deferred
        ("att", "dense", "att", "dense"),
    ])
    def test_orders_match_dense_reference(self, arrivals, leaf, monkeypatch):
        formed, summed = [], T._summed

        def spy(dense, outers):
            if outers:
                formed.append(len(outers))
            return summed(dense, outers)

        monkeypatch.setattr(T, "_summed", spy)
        got = self.gradients(T.attention, arrivals, leaf)
        assert formed == [arrivals.count("att")]
        want = self.gradients(reference_attention, arrivals, leaf)
        assert len(formed) == 1  # the reference defers nothing
        for pid, g in want.items():
            assert (np.linalg.norm(got[pid] - g)
                    <= 1e-12 * np.linalg.norm(g)), pid

    def test_finite_differences_over_steps(self):
        # three steps attend over one h with padded rows; each step's query
        # reads the last step's context
        rng = np.random.default_rng(8)
        b, t_len, d, k = self.B, self.T_LEN, self.D, self.K
        params = ParameterSet([make_param(n, s, rng) for n, s in (
            ("a", (b, t_len, k)), ("U", (k, d)), ("W", (k, d)), ("q", (b, d)),
            ("v_a", (d, 1)))])
        p = {x.id: x.value for x in params}
        ws, mask = rng.standard_normal((3, b, k)), self.mask()

        def loss():
            h = T.tanh(p["a"])
            proj = T.matmul(h, p["U"])
            query, total = p["q"], None
            for w in ws:
                _, ctx = T.attention(query, proj, h, p["v_a"], mask)
                term = weighted_sum(ctx, w)
                total = term if total is None else T.add(total, term)
                query = T.tanh(T.matmul(ctx, p["W"]))
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
            loss = weighted_sum(T.add(h, h))
        tape.backward(loss, params)
        np.testing.assert_allclose(a.grad.data,
                                   2.0 * (1 - np.tanh(a.value.data) ** 2),
                                   atol=1e-12)

    def test_in_place_sums_match_out_of_place_and_spare_closure_arrays(self):
        # add(s, s) returns one array for both inputs, transpose and concat
        # return views, and a and w feed every step
        params = ParameterSet([make_param("a", (2, 3)),
                               make_param("w", (9, 3))])
        a, w = params.get("a").value, params.get("w").value
        params.zero_grads()
        with Tape() as tape:
            s = a
            for _ in range(3):
                y = T.transpose(T.transpose(T.add(s, s)))
                s = T.tanh(T.matmul(T.concat([y, s, a], axis=1), w))
            loss = weighted_sum(T.add(s, s))
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
        frozen = Parameter("f", np.ones((2, 2)), trainable=False)
        live = make_param("a", (2, 2))
        params = ParameterSet([frozen, live])
        params.zero_grads()
        with Tape() as tape:
            loss = weighted_sum(T.add(T.tanh(frozen.value), live.value))
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
            loss = weighted_sum(T.add(T.mul(a, mask), T.mul(T.tanh(a), mask)))
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
        g_out = grads.pop(id(node.out), None)
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
        params = ParameterSet([
            Parameter("x", np.zeros(2), trainable=False),
            make_param("y", 2),
        ])
        assert [p.id for p in params.trainable()] == ["y"]

    def test_trainable_is_the_value_flag(self):
        p = Parameter("x", np.zeros(2), trainable=False)
        assert p.trainable is False and p.value.requires_grad is False
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
