"""Central-difference gradient checking for losses built on the tape."""

from typing import Callable

import numpy as np

from fusionmt.tensor import ParameterSet, Tape, Tensor, _record


def finite_difference_check(
    loss_fn: Callable[[], float],
    params: ParameterSet,
    step: float = 1e-5,
    floor: float = 1e-3,
) -> dict[str, float]:
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must recompute the loss from the current parameter values
    (forward only).  Returns the max relative error per trainable
    parameter id.  ``floor`` bounds the denominator from below: central
    differences carry O(eps / step) roundoff, so gradients far below the
    floor can only be compared absolutely.
    """
    params.zero_grads()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss if isinstance(loss, Tensor) else Tensor(loss), params)

    errors: dict[str, float] = {}
    for p in params.trainable():
        # perturb by index: a reshape of a non-contiguous value (a view)
        # would be a copy
        value, analytic = p.value.data, p.grad.data
        worst = 0.0
        for i in np.ndindex(value.shape):
            orig = value[i]
            value[i] = orig + step
            f_plus = _as_float(loss_fn())
            value[i] = orig - step
            f_minus = _as_float(loss_fn())
            value[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(analytic[i]), abs(numeric), floor)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
        errors[p.id] = worst
    return errors


def _as_float(x) -> float:
    return x.item() if isinstance(x, Tensor) else float(x)


def weighted_sum(x: Tensor, w=1.0) -> Tensor:
    """sum(x * w) for constant weights ``w`` (an array of x's shape, or a
    scalar), recorded on the tape as one node.  The tests' scalar loss:
    w = 1 sums ``x``, a scalar scales that sum, and one-hot rows of ``w``
    pick one entry per row."""
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), x.shape)
    return _record((x,), Tensor((x.data * w).sum()), lambda g: (g * w,))


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for same-shape tensors, recorded on the tape as one node; the
    tests' way to sum two losses or terms (the package has no such op)."""
    assert a.shape == b.shape, (a.shape, b.shape)
    return _record((a, b), Tensor(a.data + b.data), lambda g: (g, g))
