"""Dense float64 tensors with reverse-mode differentiation on a tape.

Everything downstream (recurrent cells, attention, output layers) is built
from the operations in this module.  Forward evaluation always works; when a
``Tape`` is active, every operation also records a backward closure so that
``Tape.backward`` can fill parameter gradients.  No implicit broadcasting
beyond scalars: row/column-vector promotion goes through the explicit
``add_rowvec`` / ``mul_colvec`` ops.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input is outside the operation's domain (e.g. an empty log_softmax)."""


class NumericError(RuntimeError):
    """NaN/Inf encountered in a loss, a gradient or a decoding score."""


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

    __slots__ = ("id", "value", "grad", "noisy")

    def __init__(self, pid: str, value, trainable: bool = True, noisy: bool = True):
        self.id = pid
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.value.requires_grad = trainable
        self.grad = Tensor(np.zeros_like(self.value.data))
        # noisy marks non-recurrent parameters eligible for training-time
        # additive weight noise; recurrent matrices opt out.
        self.noisy = noisy

    @property
    def trainable(self) -> bool:
        """Frozen is ``value.requires_grad = False``: no tape records it."""
        return self.value.requires_grad

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

    def backward(self, loss: Tensor, params: ParameterSet) -> None:
        """Accumulate d(loss)/d(param) into each trainable parameter's grad."""
        if not self._nodes:
            raise TapeError("backward called on an empty tape")
        if not any(node.out is loss for node in reversed(self._nodes)):
            raise TapeError(
                "loss was not recorded under this tape (not computed here, "
                "or it does not depend on any trainable parameter)")
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        outers: dict[int, list] = {}  # each key's deferred _Outer terms
        owned: set[int] = set()  # keys whose sum buffer backward allocated
        for node in reversed(self._nodes):
            key = id(node.out)
            g_out = _summed(grads.pop(key, None), outers.pop(key, ()))
            if g_out is None:
                continue
            for t, g in zip(node.inputs, node.backward_fn(g_out)):
                # a constant or frozen input: its gradient reaches no parameter
                if g is None or not t.requires_grad:
                    continue
                key, acc = id(t), grads.get(id(t))
                if isinstance(g, _Outer):
                    outers.setdefault(key, []).append(g)
                elif acc is None:
                    grads[key] = g
                elif key in owned:
                    acc += g
                else:  # acc may be a closure's own array: sum into a new one
                    grads[key] = acc + g
                    owned.add(key)
        for p in params:  # a frozen value is never an input that gets a term
            key = id(p.value)
            g = _summed(grads.get(key), outers.get(key, ()))
            if g is not None:
                p.grad.data += g


class _Outer(NamedTuple):
    """An attention call's annotation gradient as the factors of its (B, T, k)
    outer product alpha[:, :, None] * g[:, None, :]."""

    alpha: np.ndarray
    g: np.ndarray


def _summed(dense, outers):
    """``dense`` (or None) plus the ``outers`` terms, formed as one batched
    (B, T, n) @ (B, n, k) product over the n terms."""
    if not outers:
        return dense
    alphas, gs = zip(*outers)
    product = np.stack(alphas, axis=2) @ np.stack(gs, axis=1)
    return product if dense is None else product + dense


def _record(inputs: Sequence[Tensor], out: Tensor, backward_fn: Callable) -> Tensor:
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE._nodes.append(_Node(tuple(inputs), out, backward_fn))
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
    # a constant operand (a dropout mask) gets no gradient
    return _record((a, b), out, lambda g: (
        g * b.data if a.requires_grad else None,
        g * a.data if b.requires_grad else None))


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
    """(n, k) @ (k, m), or (B, T, k) @ (k, m) applied to each of the B*T rows."""
    if a.data.ndim not in (2, 3) or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = Tensor(a.data @ b.data)  # a 2-D reshape below is a same-shape view
    return _record((a, b), out, lambda g: (g @ b.data.T, a.data.reshape(
        -1, b.shape[0]).T @ g.reshape(-1, b.shape[1])))


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
    # exp of -|x| cannot overflow; min(x, -x) is -|x| that keeps a NaN's sign
    e = np.exp(np.minimum(x, -x))
    p = 1.0 + e
    return np.where(x >= 0, 1.0 / p, e / p)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    s = x - x.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def log_softmax(a: Tensor) -> Tensor:
    """Fused, numerically stable log(softmax(x)) over the last axis."""
    if a.size == 0:
        raise DomainError("log_softmax of an empty tensor")
    y = _log_softmax(a.data)
    sm = np.exp(y)
    return _record((a,), Tensor(y), lambda g: (
        g - sm * g.sum(axis=-1, keepdims=True),))


def nll(logits: Tensor, targets, weights, c: float) -> Tensor:
    """c * sum_i w_i log softmax(logits_i)[t_i] over the rows of (n, V)
    ``logits``, for (n,) ``targets`` t and constant ``weights`` w."""
    t, w = np.asarray(targets, dtype=np.intp), np.asarray(weights, dtype=float)
    if logits.data.ndim != 2 or {t.shape, w.shape} != {logits.shape[:1]}:
        raise ShapeError(f"nll: logits {logits.shape}, targets {t.shape} "
                         f"and weights {w.shape}")
    y, ar = _log_softmax(logits.data), np.arange(len(t))

    def backward(g):
        gw = g * c * w
        full = np.zeros_like(y)
        full[ar, t] = gw
        return (full - np.exp(y) * gw[:, None],)

    return _record((logits,), Tensor((y[ar, t] * w).sum() * c), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Join tensors along ``axis``.  An entry may instead be a list of
    tensors, the rows of one block step by step: it is joined along axis 0
    into that block, and only the joined output is kept."""
    if not tensors:
        raise DomainError("concat of no tensors")
    groups = [t if isinstance(t, list) else [t] for t in tensors]
    blocks = [grp[0].data if len(grp) == 1
              else np.concatenate([t.data for t in grp]) for grp in groups]
    out = Tensor(np.concatenate(blocks, axis=axis))
    splits = np.cumsum([b.shape[axis] for b in blocks])[:-1]

    def backward(g):
        grads = []
        for part, grp in zip(np.split(g, splits, axis=axis), groups):
            grads += [part] if len(grp) == 1 else np.split(
                part, np.cumsum([t.shape[0] for t in grp[:-1]]))
        return grads

    return _record([t for grp in groups for t in grp], out, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join equal-shape tensors along a new axis."""
    if not tensors:
        raise DomainError("stack of no tensors")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))
    return _record(tuple(tensors), out, lambda g: tuple(np.moveaxis(g, axis, 0)))


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


def attention(query: Tensor, proj: Tensor, h: Tensor, v_a: Tensor,
              mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Additive attention (Bahdanau et al.) over all T positions at once.

    Energies e = tanh(proj + query) . v_a for a (B, d) query and (n, T, d)
    projected annotations, -1e9 where the (n, T) 0/1 ``mask`` is 0, then
    alpha = softmax over T and context = sum_j alpha_j h_j for (n, T, k)
    annotations ``h``.  The annotation batch n is B, or 1 for one sentence's
    annotations serving every query row.  Returns (alpha, context); only the
    context is differentiable."""
    n, t_len, d = proj.shape
    b = query.shape[0] if query.data.ndim == 2 else -1
    if (n not in (1, b) or query.shape != (b, d) or h.data.ndim != 3
            or h.shape[:2] != (n, t_len) or v_a.shape != (d, 1)
            or mask.shape != (n, t_len)):
        raise ShapeError(f"attention: shapes {query.shape}, {proj.shape}, "
                         f"{h.shape}, {v_a.shape} and mask {mask.shape}")
    if t_len == 0:
        raise DomainError("attention over no positions")
    u = np.add(query.data[:, None, :], proj.data)
    np.tanh(u, out=u)
    e = (u @ v_a.data)[:, :, 0] + (mask - 1.0) * 1e9
    ex = np.exp(e - e.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    # for k > 1 and a contiguous last axis of h, of B rows or of one row read
    # by all B, einsum sums over T in the order of a (B, T, k) product summed
    # over axis 1, without the product; BLAS would reorder it
    ctx = Tensor(np.einsum("bt,btk->bk", alpha, h.data))

    def backward(g):
        g_alpha = h.data @ g[:, :, None]  # (B, T, 1)
        g_e = alpha[:, :, None] * (g_alpha - alpha[:, None, :] @ g_alpha)
        g_pre, du = g_e * v_a.data[:, 0], u * u  # (B, T, d)
        np.subtract(1.0, du, out=du)
        g_pre *= du
        g_query, g_h = g_pre.sum(axis=1), _Outer(alpha, g)
        if n < b:  # each query row read the one sentence's annotations
            g_pre, g_h = (x.sum(axis=0, keepdims=True) for x in (
                g_pre, alpha[:, :, None] * g[:, None, :]))
        return (g_query, g_pre, g_h, u.reshape(-1, d).T @ g_e.reshape(-1, 1))

    return Tensor(alpha), _record((query, proj, h, v_a), ctx, backward)


def _check_cell(op: str, x: Tensor, states: Sequence[Tensor],
                w_in: Tensor) -> None:
    b = x.shape[0] if x.data.ndim == 2 else -1
    shapes = [t.shape for t in (x, *states)]
    if shapes != [(b, w_in.shape[0])] + [(b, w_in.shape[1])] * len(states):
        raise ShapeError(f"{op}: input and states {shapes}, W {w_in.shape}")


def _gate_grads(da: np.ndarray, x: np.ndarray, s: np.ndarray, n: int) -> list:
    """(dW, dU, db) of x @ W + s @ U + b for each of the n gates whose column
    blocks ``da`` joins, each a contiguous block of one product over all n
    gates; ``s`` may be an (n, B, d) stack, one input per gate."""
    da = da.reshape(len(da), n, -1).transpose(1, 0, 2)
    grads = (x.T @ da, np.swapaxes(s, -1, -2) @ da, da.sum(axis=1))
    return [a[k] for k in range(n) for a in grads]


def gru(s_prev: Tensor, x: Tensor, joined: Sequence[np.ndarray],
        weights: Sequence[Tensor], keep: Optional[np.ndarray] = None) -> Tensor:
    """One GRU step as one tape node: s = (1 - z) s_prev + z h, with gates
    z, r = sigmoid(x W + s_prev U + b), h = tanh(x W_h + (r s_prev) U_h + b_h)
    from ``joined`` (W, U, b) in blocks z|r|h, whose per-gate views are
    ``weights``.  Rows where (B, 1) 0/1 ``keep`` is 0 carry ``s_prev``."""
    _check_cell("gru", x, (s_prev,), weights[0])
    xs, s = x.data, s_prev.data
    w, u, b = joined
    d, d2 = s.shape[1], 2 * s.shape[1]
    xw = xs @ w
    zr = _sigmoid(xw[:, :d2] + s @ u[:, :d2] + b[:d2])
    # contiguous gates: elementwise ops on a strided block run row by row
    z, r = np.ascontiguousarray(zr[:, :d]), np.ascontiguousarray(zr[:, d:])
    rs = r * s
    h = np.tanh(xw[:, d2:] + rs @ u[:, d2:] + b[d2:])
    new = (1.0 - z) * s + z * h
    out = Tensor(new if keep is None else np.where(keep != 0, new, s))

    def backward(g):
        g_new, g_carry = (g, 0.0) if keep is None else (g * keep,
                                                        g * (1.0 - keep))
        da_h = g_new * z * (1.0 - h * h)
        d_rs = da_h @ u[:, d2:].T
        da = np.concatenate((g_new * (h - s) * z * (1.0 - z),
                             d_rs * s * r * (1.0 - r), da_h), axis=1)
        ds = g_new * (1.0 - z) + d_rs * r + da[:, :d2] @ u[:, :d2].T + g_carry
        return (ds, da @ w.T, *_gate_grads(da, xs, np.stack((s, s, rs)), 3))

    return _record((s_prev, x, *weights), out, backward)


def lstm(h_prev: Tensor, c_prev: Tensor, x: Tensor, joined: Sequence[np.ndarray],
         weights: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM step, c = f c_prev + i g and h = o tanh(c), with gates o, i,
    f = sigmoid(x W + h_prev U + b) and g = tanh(x W_g + h_prev U_g + b_g);
    ``joined`` is (W, U, b) with column blocks o|i|f|g (h's gate, then c's),
    ``weights`` their per-gate views.  Returns (h, c), one tape node each."""
    _check_cell("lstm", x, (h_prev, c_prev), weights[0])
    xs, hp, cp = x.data, h_prev.data, c_prev.data
    w, u, b = joined
    d = hp.shape[1]
    pre = xs @ w + hp @ u + b
    sg = _sigmoid(pre[:, :3 * d])
    o, i, f = (np.ascontiguousarray(sg[:, k * d:(k + 1) * d]) for k in range(3))
    g = np.tanh(pre[:, 3 * d:])
    c = Tensor(f * cp + i * g)
    tc = np.tanh(c.data)

    def c_backward(gc):
        da = np.concatenate((gc * g * i * (1.0 - i), gc * cp * f * (1.0 - f),
                             gc * i * (1.0 - g * g)), axis=1)
        return (da @ u[:, d:].T, gc * f, da @ w[:, d:].T,
                *_gate_grads(da, xs, hp, 3))

    def h_backward(gh):
        da = gh * tc * o * (1.0 - o)
        return (gh * o * (1.0 - tc * tc), da @ u[:, :d].T, da @ w[:, :d].T,
                *_gate_grads(da, xs, hp, 1))

    c = _record((h_prev, c_prev, x, *weights[3:]), c, c_backward)
    h = _record((c, h_prev, x, *weights[:3]), Tensor(o * tc), h_backward)
    return h, c
