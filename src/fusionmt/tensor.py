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
    """A named, trainable tensor made from an array, with a gradient slot."""

    __slots__ = ("id", "value", "grad", "noisy", "gates")

    def __init__(self, pid: str, value, noisy: bool = True, gates: str = ""):
        self.id = pid
        self.value = Tensor(value)
        self.value.requires_grad = True
        self.grad = Tensor(np.zeros_like(self.value.data))
        # noisy marks parameters eligible for training-time additive weight
        # noise (recurrent matrices opt out); gates names a cell's column blocks
        self.noisy, self.gates = noisy, gates

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
    __slots__ = ("inputs", "outs", "backward_fn")

    def __init__(self, inputs, outs, backward_fn):
        self.inputs = inputs
        self.outs = outs
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
        if not any(loss in node.outs for node in reversed(self._nodes)):
            raise TapeError(
                "loss was not recorded under this tape (not computed here, "
                "or it does not depend on any trainable parameter)")
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g_outs = [grads.pop(id(t), None) for t in node.outs]
            if all(g is None for g in g_outs):
                continue
            for t, g in zip(node.inputs, node.backward_fn(*g_outs)):
                # a constant or frozen input: its gradient reaches no parameter
                if g is None or not t.requires_grad:
                    continue
                # a new array: a closure may return an array it keeps, or a view
                acc = grads.get(id(t))
                grads[id(t)] = g if acc is None else acc + g
        for p in params:  # a frozen value is never an input that gets a term
            g = grads.get(id(p.value))
            if g is not None:
                p.grad.data += g


def _recording(inputs: Sequence[Tensor]) -> bool:
    """A tape is active and some input can reach a trainable parameter."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _record(inputs: Sequence[Tensor], out, backward_fn: Callable):
    """Record ``out``, a tensor or a tuple of them; a tuple's ``backward_fn``
    takes one gradient per output, None for one that got none."""
    if _recording(inputs):
        outs = out if isinstance(out, tuple) else (out,)
        for t in outs:
            t.requires_grad = True
        _ACTIVE_TAPE._nodes.append(_Node(tuple(inputs), outs, backward_fn))
    return out


# ---------------------------------------------------------------------------
# elementwise / structural operations
# ---------------------------------------------------------------------------

def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b for a constant ``b`` (a dropout mask), which gets
    no gradient."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data * b.data)
    return _record((a, b), out, lambda g: (g * b.data, None))


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
    """Swap the first two axes of a matrix or a 3-D tensor."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected 2 or 3 axes, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, 0, 1).copy())
    return _record((a,), out, lambda g: (np.swapaxes(g, 0, 1),))


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record((a,), out, lambda g: (g.reshape(a.shape),))


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
    return _record((a,), Tensor(y), lambda g: (
        g - np.exp(y) * g.sum(axis=-1, keepdims=True),))


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


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along ``axis``."""
    if not tensors:
        raise DomainError("concat of no tensors")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _record(tensors, out, lambda g: np.split(g, splits, axis=axis))


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


def _steps(op: str, x: Tensor, states: Sequence[Tensor], e: int, d: int):
    """A cell's (T, B, e) input steps, checked against its (B, d) states."""
    b = x.shape[1] if x.data.ndim == 3 else -1  # no other rank matches
    shapes = [t.shape for t in states]
    if [x.shape[1:]] + shapes != [(b, e)] + [(b, d)] * len(states):
        raise ShapeError(f"{op}: input {x.shape} and states {shapes}, weights "
                         f"for (T, B, {e}) inputs and (B, {d}) states")
    if len(x.data) == 0:
        raise DomainError(f"{op} over no steps")
    return x.data


def _gru_cell(xw: np.ndarray, s: np.ndarray, u: np.ndarray, bias: np.ndarray,
              rs: np.ndarray):
    """One GRU step from its input product ``xw`` = x W, writing r s into
    ``rs``: the new state and what its backward reads, (s, z, r, r s, h)."""
    d = s.shape[1]
    zr = _sigmoid(xw[:, :2 * d] + s @ u[:, :2 * d] + bias[:2 * d])
    # contiguous gates: elementwise ops on a strided block run row by row
    z, r = np.ascontiguousarray(zr[:, :d]), np.ascontiguousarray(zr[:, d:])
    np.multiply(r, s, out=rs)
    h = np.tanh(xw[:, 2 * d:] + rs @ u[:, 2 * d:] + bias[2 * d:])
    return (1.0 - z) * s + z * h, (s, z, r, rs, h)


def _gru_cell_back(g: np.ndarray, saved, u: np.ndarray, da: np.ndarray):
    """``_gru_cell``'s backward for the new state's gradient ``g``: writes
    the gates' pre-activation gradients into ``da``; returns s's gradient."""
    s, z, r, rs, h = saved
    d2 = 2 * s.shape[1]
    da_h = g * z * (1.0 - h * h)
    d_rs = da_h @ u[:, d2:].T
    np.concatenate((g * (h - s) * z * (1.0 - z), d_rs * s * r * (1.0 - r),
                    da_h), axis=1, out=da)
    return g * (1.0 - z) + d_rs * r + da[:, :d2] @ u[:, :d2].T


def _gru_grads(da, inputs, prev, rs):
    """(dW, dU, db) from a GRU's (T, B, 3d) pre-activation gradients ``da``:
    W reads the ``inputs`` joined, z and r the states ``prev``, h r s."""
    da, prev, rs = (a.reshape(-1, a.shape[-1]) for a in (da, prev, rs))
    d2 = 2 * prev.shape[1]
    return (np.concatenate([x.reshape(len(da), -1).T @ da for x in inputs]),
            np.hstack((prev.T @ da[:, :d2], rs.T @ da[:, d2:])), da.sum(axis=0))


def gru(s_prev: Tensor, x: Tensor, cell: Sequence[Tensor],
        keep: Optional[np.ndarray] = None, reverse: bool = False):
    """GRU steps as one tape node: s = (1 - z) s_prev + z h, with gates
    z, r = sigmoid(x W + s_prev U + b), h = tanh(x W_h + (r s_prev) U_h + b_h)
    from ``cell``, the joined (W, U, b) in column blocks z|r|h.  The
    (T, B, e) ``x`` runs all T positions, from the last if ``reverse``; rows
    where the (T, B, 1) 0/1 ``keep`` is 0 carry the previous state.  Returns
    every position's state, (T, B, d), and the state the run ends on."""
    w, u, bias = (t.data for t in cell)
    xs = _steps("gru", x, (s_prev,), w.shape[0], u.shape[0])
    (n, b, e), d = xs.shape, u.shape[0]
    if keep is not None and keep.shape != (n, b, 1):
        raise ShapeError(f"gru: keep {keep.shape} for inputs {x.shape}; "
                         f"expected ({n}, {b}, 1)")
    order = range(n - 1, -1, -1) if reverse else range(n)
    run = np.empty((n + 1, b, d))  # s_prev and each step's state, in order
    states, prev = (run[:n], run[1:]) if reverse else (run[1:], run[:n])
    prev[order[0]], saved, rs = s_prev.data, [None] * n, np.empty((n, b, d))
    for t in order:  # step t reads prev[t] and writes states[t]
        new, saved[t] = _gru_cell(xs[t] @ w, prev[t], u, bias, rs[t])
        states[t] = new if keep is None else np.where(keep[t], new, prev[t])

    def backward(g, g_end=None):
        gs = np.zeros((n, b, d)) if g is None else g.reshape(n, b, d)
        ds, da = g_end, np.empty((n, b, 3 * d))
        for t in reversed(order):
            g_s = gs[t] if ds is None else gs[t] + ds
            g_new, g_carry = (g_s, 0.0) if keep is None else (
                g_s * keep[t], g_s * (1.0 - keep[t]))
            ds = _gru_cell_back(g_new, saved[t], u, da[t]) + g_carry
        return (ds, (da.reshape(-1, 3 * d) @ w.T).reshape(x.shape),
                *_gru_grads(da, (xs,), prev, rs))

    return _record((s_prev, x, *cell),
                   (Tensor(states), Tensor(states[order[-1]])), backward)


def attention_gru(s_prev: Tensor, y: Tensor, proj: Tensor, h: Tensor,
                  mask: np.ndarray, attn: Sequence[Tensor],
                  cell: Sequence[Tensor]):
    """Attention decoder steps as one tape node (Bahdanau et al.): a step
    queries with q = (s_prev W_a + y V_a) + b_a for ``attn`` (W_a, V_a, b_a,
    v_a), takes alpha = softmax over T of tanh(proj + q) . v_a (-1e9 where
    the (n, T) 0/1 ``mask`` is 0) and c = sum_j alpha_j h_j, and advances the
    GRU ``cell`` as in ``gru`` on [y; c]; n is B, or 1 for one sentence read
    by every row.  The (T, B, e) ``y`` runs all T steps, a decode step's
    T = 1, and returns every step's (alpha, c, s) as step-major (T*B, .)
    rows.  Only c and s are differentiable."""
    ys = _steps("attention_gru", y, (s_prev,), *attn[1].shape)
    (steps, b, e), (n, t_len, d), k = ys.shape, proj.shape, h.shape[-1]
    w_a, v_y, b_a, v_a, w, u, bias = (t.data for t in (*attn, *cell))
    if (n not in (1, b) or h.data.ndim != 3 or h.shape[:2] != (n, t_len)
            or mask.shape != (n, t_len) or v_a.shape != (d, 1)
            or w.shape != (e + k, 3 * d)):
        raise ShapeError(f"attention_gru: shapes {proj.shape}, {h.shape}, "
                         f"{v_a.shape}, W {w.shape} and mask {mask.shape}")
    if t_len == 0:
        raise DomainError("attention over no positions")
    inputs = (s_prev, y, proj, h, *attn, *cell)
    record, neg = _recording(inputs), (mask - 1.0) * 1e9
    alphas, ctxs, rs = (np.empty((steps, b, m)) for m in (t_len, k, d))
    run = np.empty((steps + 1, b, d))  # s_prev and each step's state, in order
    run[0], prev, states = s_prev.data, run[:-1], run[1:]
    # a recorded node keeps each step's pre-activations; others reuse one
    saved, buf = [], None if record else np.empty((b, t_len, d))
    for t, s in enumerate(prev):  # prev[t] is written by step t - 1
        pre = np.add(((s @ w_a + ys[t] @ v_y) + b_a)[:, None, :], proj.data,
                     out=buf)
        np.tanh(pre, out=pre)
        en = (pre @ v_a)[:, :, 0] + neg
        ex = np.exp(en - en.max(axis=1, keepdims=True))
        np.divide(ex, ex.sum(axis=1, keepdims=True), out=alphas[t])
        # for k > 1 and a contiguous h, einsum sums over T in the order of a
        # (B, T, k) product summed over axis 1, without it; BLAS would not
        np.einsum("bt,btk->bk", alphas[t], h.data, out=ctxs[t])
        states[t], step = _gru_cell(
            np.concatenate((ys[t], ctxs[t]), axis=1) @ w, s, u, bias, rs[t])
        if record:
            saved.append((pre, step))

    def backward(g_ctx, g_s):
        gc, gs = (np.zeros((steps, b, m)) if g is None else g.reshape(
            steps, b, m) for g, m in ((g_ctx, k), (g_s, d)))
        da, gq, dctx = (np.empty((steps, b, m)) for m in (3 * d, d, k))
        d_proj, du = np.zeros((b, t_len, d)), np.empty((b, t_len, d))
        dv_a, ds = np.zeros((d, 1)), 0.0
        for t in reversed(range(steps)):
            pre, step = saved.pop()  # a step's arrays go once it has run
            ds = _gru_cell_back(gs[t] + ds, step, u, da[t])
            np.add(gc[t], da[t] @ w[e:].T, out=dctx[t])
            g_alpha = h.data @ dctx[t][:, :, None]  # (B, T, 1)
            a = alphas[t]
            g_e = a[:, :, None] * (g_alpha - a[:, None, :] @ g_alpha)
            dv_a += pre.reshape(-1, d).T @ g_e.reshape(-1, 1)
            np.subtract(1.0, np.multiply(pre, pre, out=du), out=du)
            du *= g_e
            du *= v_a[:, 0]  # the pre-activations' gradient
            np.sum(du, axis=1, out=gq[t])
            d_proj += du
            ds += gq[t] @ w_a.T
        # each weight's gradient once over all steps; [y; c] is not kept
        d_ann = [x.sum(axis=0, keepdims=True) if n < b else x for x in (
            d_proj, alphas.transpose(1, 2, 0) @ dctx.transpose(1, 0, 2))]
        da2, gq, y2 = da.reshape(-1, 3 * d), gq.reshape(-1, d), ys.reshape(-1, e)
        return (ds, (da2 @ w[:e].T + gq @ v_y.T).reshape(y.shape), *d_ann,
                prev.reshape(-1, d).T @ gq, y2.T @ gq, gq.sum(axis=0), dv_a,
                *_gru_grads(da, (ys, ctxs), prev, rs))

    return (Tensor(alphas.reshape(-1, t_len)), *_record(inputs, (  # views
        Tensor(ctxs.reshape(-1, k)), Tensor(states.reshape(-1, d))), backward))


def lstm(h_prev: Tensor, c_prev: Tensor, x: Tensor,
         cell: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """LSTM steps as one tape node: c = f c_prev + i g and h = o tanh(c),
    with gates o, i, f = sigmoid(x W + h_prev U + b) and g = tanh(x W_g +
    h_prev U_g + b_g) from ``cell``, the joined (W, U, b) in column blocks
    o|i|f|g.  The (T, B, e) ``x`` runs all T steps, a decode step's T = 1,
    and returns every step's h as step-major (T*B, d) rows and the last c."""
    w, u, bias = (t.data for t in cell)
    xs = _steps("lstm", x, (h_prev, c_prev), w.shape[0], u.shape[0])
    (n, b, e), d = xs.shape, u.shape[0]
    run = np.empty((n + 1, b, d))  # h_prev, then each step's h
    run[0], saved, cp = h_prev.data, [], c_prev.data
    for t in range(n):
        pre = xs[t] @ w + run[t] @ u + bias
        sg = _sigmoid(pre[:, :3 * d])
        o, i, f = map(np.ascontiguousarray, np.split(sg, 3, axis=1))
        g = np.tanh(pre[:, 3 * d:])
        c = f * cp + i * g
        tc = np.tanh(c)
        saved.append((cp, o, i, f, g, tc))
        run[t + 1], cp = o * tc, c

    def backward(gh, gc=None):
        ghs = np.zeros((n, b, d)) if gh is None else gh.reshape(n, b, d)
        dh, dc, da = 0.0, (0.0 if gc is None else gc), np.empty((n, b, 4 * d))
        for t in reversed(range(n)):
            cp, o, i, f, g, tc = saved[t]
            gh_t = ghs[t] + dh
            gc_t = dc + gh_t * o * (1.0 - tc * tc)
            np.concatenate((gh_t * tc * o * (1.0 - o), gc_t * g * i * (1.0 - i),
                            gc_t * cp * f * (1.0 - f), gc_t * i * (1.0 - g * g)),
                           axis=1, out=da[t])
            dh, dc = da[t] @ u.T, gc_t * f
        da = da.reshape(-1, 4 * d)
        return (dh, dc, (da @ w.T).reshape(x.shape), xs.reshape(-1, e).T @ da,
                run[:n].reshape(-1, d).T @ da, da.sum(axis=0))

    return _record((h_prev, c_prev, x, *cell),
                   (Tensor(run[1:].reshape(-1, d)), Tensor(cp)), backward)
