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
    finite_difference_check,
)

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


class TestSoftmaxForward:
    def test_uniform(self):
        out = T.softmax(T.constant([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        small = T.softmax(T.constant([3.0, 3.0])).data
        big = T.softmax(T.constant([1003.0, 1003.0])).data
        np.testing.assert_allclose(small, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(big, [0.5, 0.5], atol=1e-15)

    def test_against_extended_precision(self):
        x = [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            es = [mpmath.exp(v) for v in x]
            s = mpmath.fsum(es)
            want = np.array([float(e / s) for e in es])
        got = T.softmax(T.constant(x)).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(T.DomainError):
            T.softmax(T.constant(np.zeros(0)))

    def test_rows_sum_to_one(self):
        x = T.constant(RNG.standard_normal((5, 7)) * 10)
        np.testing.assert_allclose(T.softmax(x).data.sum(axis=-1), 1.0,
                                   atol=1e-12)


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


class TestStructuralOps:
    def test_concat_1d(self):
        out = T.concat([T.constant([1.0, 2.0]), T.constant([3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_tanh_zero(self):
        assert T.tanh(T.constant([0.0])).data[0] == 0.0

    def test_narrow(self):
        a = T.constant(np.arange(12.0).reshape(3, 4))
        out = T.narrow(a, 1, 1, 2)
        np.testing.assert_array_equal(out.data, [[1, 2], [5, 6], [9, 10]])
        with pytest.raises(T.ShapeError):
            T.narrow(a, 1, 3, 2)

    def test_rows_gather(self):
        table = T.constant(np.arange(8.0).reshape(4, 2))
        out = T.rows(table, [3, 0, 3])
        np.testing.assert_array_equal(out.data, [[6, 7], [0, 1], [6, 7]])
        with pytest.raises(T.DomainError):
            T.rows(table, [4])

    def test_take_per_row(self):
        m = T.constant(np.arange(6.0).reshape(2, 3))
        out = T.take_per_row(m, [2, 0])
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

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


class TestOpGradients:
    """Finite-difference checks on random 2x3 inputs, one op at a time."""

    def unary(self, fn, data=None):
        params = ParameterSet()
        a = params.add(Parameter("a", RNG.standard_normal((2, 3))
                                 if data is None else data))
        check_op(lambda: T.sum_all(fn(a.value)), params)

    def test_tanh(self):
        self.unary(T.tanh)

    def test_sigmoid(self):
        self.unary(T.sigmoid)

    def test_softmax(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        w = T.constant(RNG.standard_normal((2, 3)))
        check_op(lambda: T.sum_all(T.mul(T.softmax(a.value), w)), params)

    def test_log_softmax(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        w = T.constant(RNG.standard_normal((2, 3)))
        check_op(lambda: T.sum_all(T.mul(T.log_softmax(a.value), w)), params)

    def test_add_sub_mul(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        b = params.add(make_param("b", (2, 3)))
        w = T.constant(RNG.standard_normal((2, 3)))
        check_op(lambda: T.sum_all(
            T.mul(T.add(T.add(a.value, T.scale(b.value, -1.0)),
                        T.mul(a.value, b.value)), w)),
            params)

    def test_matmul(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        b = params.add(make_param("b", (3, 2)))
        check_op(lambda: T.sum_all(T.matmul(a.value, b.value)), params)

    def test_scale_add_scalar(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        check_op(lambda: T.sum_all(T.add_scalar(T.scale(a.value, -2.5), 0.7)),
                 params)

    def test_add_rowvec(self):
        params = ParameterSet()
        m = params.add(make_param("m", (2, 3)))
        v = params.add(make_param("v", 3))
        w = T.constant(RNG.standard_normal((2, 3)))
        check_op(lambda: T.sum_all(T.mul(T.add_rowvec(m.value, v.value), w)),
                 params)

    def test_mul_colvec(self):
        params = ParameterSet()
        m = params.add(make_param("m", (2, 3)))
        col = params.add(make_param("col", (2, 1)))
        check_op(lambda: T.sum_all(T.mul_colvec(m.value, col.value)), params)

    def test_transpose(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        w = T.constant(RNG.standard_normal((3, 2)))
        check_op(lambda: T.sum_all(T.mul(T.transpose(a.value), w)), params)

    def test_concat_narrow(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 3)))
        b = params.add(make_param("b", (2, 2)))
        w = T.constant(RNG.standard_normal((2, 3)))

        def loss():
            cat = T.concat([a.value, b.value], axis=1)
            return T.sum_all(T.mul(T.narrow(cat, 1, 1, 3), w))

        check_op(loss, params)

    def test_rows(self):
        params = ParameterSet()
        table = params.add(make_param("t", (4, 3)))
        w = T.constant(RNG.standard_normal((3, 3)))
        # repeated index exercises the scatter-add path
        check_op(lambda: T.sum_all(T.mul(T.rows(table.value, [1, 3, 1]), w)),
                 params)

    def test_take_per_row(self):
        params = ParameterSet()
        m = params.add(make_param("m", (3, 4)))
        check_op(lambda: T.sum_all(T.take_per_row(m.value, [0, 3, 2])), params)

    def test_maxout2(self):
        params = ParameterSet()
        a = params.add(make_param("a", (2, 6)))
        w = T.constant(RNG.standard_normal((2, 3)))
        check_op(lambda: T.sum_all(T.mul(T.maxout2(a.value), w)), params)


class TestMaxoutTieRule:
    def test_gradient_goes_to_first_of_tied_pair(self):
        params = ParameterSet()
        a = params.add(Parameter("a", np.array([[2.0, 2.0]])))
        params.zero_grads()
        with Tape() as tape:
            loss = T.sum_all(T.maxout2(a.value))
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
            loss = T.sum_all(T.matmul(w.value, T.constant(x)))
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
            loss = T.scale(T.take_per_row(T.log_softmax(logits.value), [k]), -1.0)
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
            loss = T.sum_all(params.get("a").value)
        with Tape() as t2:
            T.sum_all(params.get("a").value)
        with pytest.raises(T.TapeError):
            t2.backward(loss, params)

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
                loss = T.sum_all(a.value)
            tape.backward(loss, params)
        np.testing.assert_array_equal(a.grad.data, [2.0, 2.0, 2.0])

    def test_shared_subexpression(self):
        params = ParameterSet([make_param("a", (2, 2))])
        a = params.get("a")
        params.zero_grads()
        with Tape() as tape:
            h = T.tanh(a.value)
            loss = T.sum_all(T.add(h, h))
        tape.backward(loss, params)
        np.testing.assert_allclose(a.grad.data,
                                   2.0 * (1 - np.tanh(a.value.data) ** 2),
                                   atol=1e-12)

    def test_constant_subgraphs_not_recorded(self):
        params = ParameterSet([make_param("a", (2, 2))])
        a = params.get("a")
        with Tape() as tape:
            T.tanh(T.constant(np.ones((4, 4))))  # no parameter involved
            n_const = len(tape)
            loss = T.sum_all(a.value)
        assert n_const == 0
        assert len(tape) == 1
        tape.backward(loss, params)

    def test_frozen_parameter_not_recorded_or_touched(self):
        frozen = Parameter("f", np.ones((2, 2)), trainable=False)
        live = make_param("a", (2, 2))
        params = ParameterSet([frozen, live])
        params.zero_grads()
        with Tape() as tape:
            loss = T.sum_all(T.add(T.tanh(frozen.value), live.value))
        tape.backward(loss, params)
        np.testing.assert_array_equal(frozen.grad.data, 0.0)
        np.testing.assert_array_equal(live.grad.data, 1.0)

    def test_forward_works_without_tape(self):
        out = T.tanh(T.constant([1.0]))
        assert np.isfinite(out.data).all()


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


class TestFiniteDifferenceChecker:
    def test_catches_a_wrong_gradient(self):
        params = ParameterSet([make_param("a", 3)])
        a = params.get("a")

        def bad_square(t):
            out = Tensor(t.data ** 2)
            return T._record((t,), out, lambda g: (g * t.data,))  # missing 2x

        errors = finite_difference_check(
            lambda: T.sum_all(bad_square(a.value)), params)
        assert errors["a"] > 1e-2
