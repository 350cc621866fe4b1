"""Dense float64 tensors with reverse-mode differentiation on a tape.

Everything downstream (recurrent cells, attention, output layers) is built
from the operations in this module.  Forward evaluation always works; when a
``Tape`` is active, every operation also records a backward closure so that
``Tape.backward`` can fill parameter gradients.  No implicit broadcasting
beyond scalars: row/column-vector promotion goes through the explicit
``add_rowvec`` / ``mul_colvec`` ops.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input is outside the operation's domain (e.g. empty softmax)."""


class TapeError(RuntimeError):
    """Backward requested without a valid recording."""


class Tensor:
    """An immutable dense array of float64 values.

    ``requires_grad`` marks tensors whose subgraph must be recorded; it is
    set on parameter leaves and propagates through operations, so tapes skip
    subgraphs that cannot reach a trainable parameter."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def constant(data) -> Tensor:
    """Wrap raw data as a non-differentiable leaf."""
    return Tensor(data)


class Parameter:
    """A named, trainable tensor with an attached gradient slot."""

    __slots__ = ("id", "value", "grad", "trainable", "noisy")

    def __init__(self, pid: str, value, trainable: bool = True, noisy: bool = True):
        self.id = pid
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.value.requires_grad = trainable
        self.grad = Tensor(np.zeros_like(self.value.data))
        self.trainable = trainable
        # noisy marks non-recurrent parameters eligible for training-time
        # additive weight noise; recurrent matrices opt out.
        self.noisy = noisy

    def zero_grad(self) -> None:
        self.grad.data[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.id!r}, shape={self.value.shape})"


class ParameterSet:
    """Ordered collection of parameters, iterated in sorted-id order."""

    def __init__(self, params: Iterable[Parameter] = ()):
        self._by_id: dict[str, Parameter] = {}
        for p in params:
            self.add(p)

    def add(self, param: Parameter) -> Parameter:
        if param.id in self._by_id:
            raise ValueError(f"duplicate parameter id {param.id!r}")
        self._by_id[param.id] = param
        return param

    def get(self, pid: str) -> Parameter:
        return self._by_id[pid]

    def __contains__(self, pid: str) -> bool:
        return pid in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Parameter]:
        for pid in sorted(self._by_id):
            yield self._by_id[pid]

    def trainable(self) -> Iterator[Parameter]:
        return (p for p in self if p.trainable)

    def zero_grads(self) -> None:
        for p in self:
            p.zero_grad()


class _Node:
    __slots__ = ("inputs", "out", "backward_fn")

    def __init__(self, inputs, out, backward_fn):
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn


_ACTIVE_TAPE: Optional["Tape"] = None


class Tape:
    """Records operations (in topological order) for one backward pass."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._known: set[int] = set()

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already recording")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, inputs, out, backward_fn) -> None:
        self._nodes.append(_Node(inputs, out, backward_fn))
        self._known.add(id(out))

    def backward(self, loss: Tensor, params: ParameterSet) -> None:
        """Accumulate d(loss)/d(param) into each trainable parameter's grad."""
        if not self._nodes:
            raise TapeError("backward called on an empty tape")
        if id(loss) not in self._known:
            raise TapeError(
                "loss was not recorded under this tape (not computed here, "
                "or it does not depend on any trainable parameter)")
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g_out = grads.pop(id(node.out), None)
            if g_out is None:
                continue
            in_grads = node.backward_fn(g_out)
            for t, g in zip(node.inputs, in_grads):
                if g is None:
                    continue
                acc = grads.get(id(t))
                grads[id(t)] = g if acc is None else acc + g
        for p in params:
            if not p.trainable:
                continue
            g = grads.get(id(p.value))
            if g is not None:
                p.grad.data += g


def _record(inputs: Sequence[Tensor], out: Tensor, backward_fn: Callable) -> Tensor:
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE._record(tuple(inputs), out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural operations
# ---------------------------------------------------------------------------

def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    return _record((a, b), out, lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    return _record((a, b), out, lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    return _record((a,), out, lambda g: (g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data + c)
    return _record((a,), out, lambda g: (g,))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-d vector to every row of an (n, d) matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {m.shape} and {v.shape}")
    out = Tensor(m.data + v.data[None, :])
    return _record((m, v), out, lambda g: (g, g.sum(axis=0)))


def mul_colvec(m: Tensor, col: Tensor) -> Tensor:
    """Scale each row of an (n, d) matrix by the matching (n, 1) entry."""
    if m.data.ndim != 2 or col.shape != (m.shape[0], 1):
        raise ShapeError(f"mul_colvec: shapes {m.shape} and {col.shape}")
    out = Tensor(m.data * col.data)
    return _record(
        (m, col), out,
        lambda g: (g * col.data, (g * m.data).sum(axis=1, keepdims=True)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = Tensor(a.data @ b.data)
    return _record((a, b), out, lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected matrix, got shape {a.shape}")
    out = Tensor(a.data.T.copy())
    return _record((a,), out, lambda g: (g.T,))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    return _record((a,), out, lambda g: (g * (1.0 - y * y),))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)
    return _record((a,), out, lambda g: (g * y * (1.0 - y),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |x|
    pos = x >= 0
    y = np.empty_like(x)
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    if a.size == 0:
        raise DomainError("softmax of an empty tensor")
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record((a,), out, backward)


def log_softmax(a: Tensor) -> Tensor:
    """Fused, numerically stable log(softmax(x)) over the last axis."""
    if a.size == 0:
        raise DomainError("log_softmax of an empty tensor")
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    s = x - m
    lse = np.log(np.exp(s).sum(axis=-1, keepdims=True))
    y = s - lse
    out = Tensor(y)
    sm = np.exp(y)

    def backward(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _record((a,), out, backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise DomainError("concat of no tensors")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(tuple(tensors), out, backward)


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    if not (0 <= start and start + size <= a.shape[axis]):
        raise ShapeError(
            f"narrow: [{start}:{start + size}) out of range for axis {axis} "
            f"of shape {a.shape}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + size)
    index = tuple(index)
    out = Tensor(a.data[index].copy())

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _record((a,), out, backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    return _record((a,), out, lambda g: (np.broadcast_to(g, a.shape).copy(),))


def rows(table: Tensor, idx) -> Tensor:
    """Gather rows of a (V, d) matrix; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"rows: expected matrix, got shape {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DomainError(
            f"rows: index out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[idx])

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _record((table,), out, backward)


def take_per_row(m: Tensor, idx) -> Tensor:
    """Select one entry per row of an (n, d) matrix; returns shape (n,)."""
    idx = np.asarray(idx, dtype=np.intp)
    if m.data.ndim != 2 or idx.shape != (m.shape[0],):
        raise ShapeError(f"take_per_row: shapes {m.shape} and {idx.shape}")
    ar = np.arange(m.shape[0])
    out = Tensor(m.data[ar, idx])

    def backward(g):
        full = np.zeros_like(m.data)
        full[ar, idx] = g
        return (full,)

    return _record((m,), out, backward)


def maxout2(a: Tensor) -> Tensor:
    """Max over adjacent column pairs of an (n, 2k) matrix.

    Ties send the gradient to the first element of the pair.
    """
    if a.data.ndim != 2 or a.shape[1] % 2 != 0:
        raise ShapeError(f"maxout2: needs an even column count, got {a.shape}")
    n, two_k = a.shape
    pairs = a.data.reshape(n, two_k // 2, 2)
    which = pairs.argmax(axis=2)  # argmax picks the first of a tied pair
    out = Tensor(pairs.max(axis=2))

    def backward(g):
        gp = np.zeros_like(pairs)
        np.put_along_axis(gp, which[:, :, None], g[:, :, None], axis=2)
        return (gp.reshape(n, two_k),)

    return _record((a,), out, backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

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
        flat = p.value.data.reshape(-1)
        analytic = p.grad.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = _as_float(loss_fn())
            flat[i] = orig - step
            f_minus = _as_float(loss_fn())
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(analytic[i]), abs(numeric), floor)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
        errors[p.id] = worst
    return errors


def _as_float(x) -> float:
    return x.item() if isinstance(x, Tensor) else float(x)
