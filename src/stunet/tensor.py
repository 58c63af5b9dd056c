"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Each thread records its differentiable operations on its own tape, in creation
order, so threads may run recorded forwards through the same parameters at
once; ``no_grad`` turns recording off for the calling thread alone. The tape
keeps only what the pullbacks read: a node holds the pullback, whose closure
saves the arrays it needs, a handle for its output (tape id, shape and a weak
reference) and one entry per parent (its handle, the leaf tensor, or a
no-gradient marker). It never holds an op output, so an output that no
pullback reads is freed as soon as the forward drops it.

``backward`` consumes the calling thread's tape: it walks it in reverse,
drops each node once its pullback has run, and returns the gradients of the
leaf tensors (parameters) the loss reaches. No tensor keeps a gradient, and
the gradient of an op output is freed as soon as its pullback has run. A
pullback may give a parent's gradient as an ``(index, part)`` pair, nonzero
only at ``parent[index]``; a block of a long sequence then costs its own size.
A tensor recorded on another thread's tape, or on a tape since reset or
consumed, is no longer on this tape: recording an op on it is a UsageError.

Binary elementwise operations require exactly equal shapes; the only broadcast
entry points are ``scale`` (scalar factor) and the explicit ``add_bias``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DimensionError, NumericError, PartitionError, UsageError


class Tensor:
    """Row-major float64 array, optionally tracked on the active tape."""

    __slots__ = ("data", "requires_grad", "tape_id", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.tape_id: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return hadamard(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def sum(self) -> "Tensor":
        return _reduce_sum(self)

    def mean(self) -> "Tensor":
        return _reduce_mean(self)

    def abs(self) -> "Tensor":
        return _abs(self)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Out:
    """What a tape node keeps of its op output: the tape id, the shape, and a
    weak reference that only tells whether a tensor is this output."""

    __slots__ = ("tape_id", "shape", "ref")
    requires_grad = True

    def __init__(self, out: Tensor):
        self.tape_id = out.tape_id
        self.shape = out.data.shape
        self.ref = weakref.ref(out)

    @property
    def data(self) -> np.ndarray:
        """A stand-in with the output's shape and byte count, holding one zero."""
        return np.broadcast_to(_ZERO, self.shape)


class _NoGrad:
    """Tape entry for a parent that takes no gradient."""

    __slots__ = ()
    requires_grad = False
    tape_id = None


_ZERO = np.zeros(())
_NO_GRAD = _NoGrad()


@dataclass
class _Node:
    out: _Out
    parents: tuple  # per parent: its _Out, the leaf Tensor, or _NO_GRAD
    pullback: object  # callable(grad_out) -> tuple of parent grads (or None)


@dataclass
class Tape:
    """Recorded operations in creation order (which is a topological order)."""

    nodes: list[_Node] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)


class _ThreadState(threading.local):
    """The calling thread's tape, and whether it records (off under no_grad)."""

    def __init__(self):
        self.tape = Tape()
        self.grad_enabled = True


_STATE = _ThreadState()


def __getattr__(name):
    # T._GRAD_ENABLED, which the benchmark's tracer and the tests read, is
    # the calling thread's flag
    if name == "_GRAD_ENABLED":
        return _STATE.grad_enabled
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def tape() -> Tape:
    """The calling thread's tape."""
    return _STATE.tape


def reset_tape() -> None:
    """Drop the operations the calling thread recorded, freeing what their
    pullbacks saved. The tensors they output are then off the tape: an op
    recorded on one of them raises UsageError."""
    _STATE.tape.nodes.clear()


class no_grad:
    """Context manager that disables tape recording (evaluation mode) on the
    calling thread."""

    def __enter__(self):
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


def apply_op(data: np.ndarray, parents: tuple[Tensor, ...], pullback) -> Tensor:
    """Wrap an op result, recording it on the tape when the calling thread
    records and some parent takes a gradient.

    ``pullback`` maps the output gradient to one gradient (or None) per parent,
    each a full-shape array or an ``(index, part)`` pair for ``parent[index]``.
    A recorded parent must be on the calling thread's tape (UsageError naming
    the op otherwise). Other modules use this hook to define custom
    differentiable operations.
    """
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{_op_name(pullback)}: forward operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.tape_id = None
    out.requires_grad = _STATE.grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        nodes = _STATE.tape.nodes
        kept = tuple(_tape_entry(p, nodes, pullback) for p in parents)
        out.tape_id = len(nodes)
        nodes.append(_Node(_Out(out), kept, pullback))
    return out


def _tape_entry(parent: Tensor, nodes: list, pullback):
    """What a node keeps of a parent: the _Out of a recorded parent, which
    must be on this tape, the leaf itself, or the no-gradient marker."""
    if not parent.requires_grad:
        return _NO_GRAD
    tid = parent.tape_id
    if tid is None:
        return parent
    if tid < len(nodes) and nodes[tid].out.ref() is parent:
        return nodes[tid].out
    raise UsageError(
        f"{_op_name(pullback)}: an input was recorded on another thread's tape, "
        "or on a tape since reset or consumed by backward"
    )


def _op_name(pullback) -> str:
    """The op a pullback belongs to: the function that defines it."""
    return getattr(pullback, "__qualname__", "op").split(".<locals>")[0]


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(leaf) for every leaf tensor (no tape_id) the loss reaches, by
    a reverse walk of the calling thread's tape, which must hold the loss.
    Consumes that tape, dropping each node once its pullback has run. Writes
    nothing, so threads may take the gradients of their own losses through
    the same parameters at once."""
    if loss.data.size != 1:
        raise UsageError("backward requires a scalar loss")
    tape = _STATE.tape
    nodes = tape.nodes
    tid = loss.tape_id
    if tid is None or tid >= len(nodes) or nodes[tid].out.ref() is not loss:
        raise UsageError("loss is not recorded on this thread's tape")
    tape.nodes = []
    del nodes[tid + 1 :]  # recorded after the loss, which does not reach them
    # op outputs leave as their pullbacks run, so the leaves' gradients remain
    grads: dict = {nodes[tid].out: np.ones_like(loss.data)}
    # entries whose gradient array was allocated here, so partial gradients
    # may update it in place; any other array may be shared with a
    # pullback's other outputs
    owned: set = set()
    while nodes:
        node = nodes.pop()
        g = grads.pop(node.out, None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.pullback(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(parent)
            if type(pg) is tuple:
                index, part = pg
                if acc is None:
                    acc = np.zeros(parent.shape)
                elif parent not in owned:
                    acc = acc.copy()
                acc[index] += part
            elif acc is not None:
                acc = acc + pg
            elif parent.tape_id is None:
                acc = pg.copy()  # a leaf's gradient goes to the caller, unshared
            else:
                grads[parent] = pg
                continue
            owned.add(parent)
            grads[parent] = acc
    return grads


def grads(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """d(loss)/d(p) for each of ``params``, zeros where the loss does not
    reach p."""
    got = backward(loss)  # looked up by name, so a wrapper around it sees every call
    return [got[p] if p in got else np.zeros_like(p.data) for p in params]


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return apply_op(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return apply_op(a.data - b.data, (a, b), lambda g: (g, -g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "hadamard")
    ad, bd = a.data, b.data
    return apply_op(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return apply_op(a.data * factor, (a,), lambda g: (g * factor,))


def mul_const(x: Tensor, const: np.ndarray) -> Tensor:
    """Elementwise product with a non-differentiated constant array.

    The constant may broadcast against ``x`` but must not expand its shape.
    """
    c = np.asarray(const, dtype=np.float64)
    try:
        out = x.data * c
    except ValueError:
        out = None
    if out is None or out.shape != x.data.shape:
        raise DimensionError(
            f"mul_const: constant {c.shape} does not broadcast to input {x.data.shape}"
        )
    return apply_op(out, (x,), lambda g: (g * c,))


def sigmoid_array(xd: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of an array as 0.5 * tanh(x / 2) + 0.5, written into
    ``out`` (which may be ``xd``) or a new array. No branch and no temporary;
    finite input gives output in [0, 1], exactly 0 below about -38."""
    y = np.multiply(xd, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(x: Tensor) -> Tensor:
    y = sigmoid_array(x.data)
    return apply_op(y, (x,), lambda g: (g * y * (1.0 - y),))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return apply_op(y, (x,), lambda g: (g * (1.0 - y * y),))


def flat_matmul(ad: np.ndarray, bd: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ad (..., m, k) @ bd (k, n) as one flattened product, written into
    ``out`` when given (a strided view is written through, never copied),
    else into a new array."""
    if out is None:
        out = np.empty(ad.shape[:-1] + bd.shape[-1:])
    np.matmul(ad.reshape(-1, ad.shape[-1]), bd, out=_rows_of(out))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of ``a`` (..., m, k) with the matrix ``b`` (k, n), computed as
    one product over the flattened leading axes of ``a``."""
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul needs a rank >= 2 left and a rank-2 right operand, got "
            f"ranks {a.data.ndim} and {b.data.ndim}"
        )
    if a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner extents {a.data.shape[-1]} and {b.data.shape[0]} differ"
        )
    ad, bd = a.data, b.data

    def pull(g):
        ga = flat_matmul(g, bd.T)
        gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, gb

    return apply_op(flat_matmul(ad, bd), (a, b), pull)


def _check_out(out: np.ndarray | None, shape: tuple, op: str) -> None:
    if out is not None and out.shape != shape:
        raise DimensionError(f"{op}: out has shape {out.shape}, the result {shape}")


def _rows_of(out: np.ndarray) -> np.ndarray:
    """``out`` (..., c) read as (rows, c) in place: a block of channels of a
    C-contiguous array always can be, and any other is refused."""
    rows = out.reshape(-1, out.shape[-1])
    if rows.size and not np.may_share_memory(rows, out):
        raise DimensionError(f"out of strides {out.strides} cannot be read as rows in place")
    return rows


def concat_channels(*xs: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Concatenate along the last (channel) axis; leading extents must agree.
    ``out`` as in ``_concat``."""
    return _concat(xs, -1, out)


def concat_steps(blocks: list[Tensor], out: np.ndarray | None = None) -> Tensor:
    """Join blocks of steps end to end along the leading (time) axis;
    trailing extents must agree. ``out`` as in ``_concat``."""
    return _concat(tuple(blocks), 0, out)


def _concat(xs: tuple, axis: int, out: np.ndarray | None) -> Tensor:
    """Join ``xs`` along ``axis`` (0 or -1), whose other extents must agree.

    ``out``, when given, is the joined array whose consecutive blocks along
    ``axis`` the parts already are; it is returned as is, without a copy.
    """
    op = "concat_steps" if axis == 0 else "concat_channels"
    rest = [x.data.shape[:axis] + x.data.shape[axis:][1:] for x in xs]
    if len(set(rest)) != 1:
        raise DimensionError(f"{op}: extents {rest} off the joined axis differ")
    ends = list(accumulate(x.data.shape[axis] for x in xs))
    if out is None:
        out = np.concatenate([x.data for x in xs], axis=axis)
    joined = list(xs[0].data.shape)
    joined[axis] = ends[-1]
    _check_out(out, tuple(joined), op)
    return apply_op(out, xs, lambda g: tuple(np.split(g, ends[:-1], axis=axis)))


def move_into(x: Tensor, out: np.ndarray) -> None:
    """Copy ``x`` into ``out`` and make ``out`` its data, so the array it held
    is freed once nothing else holds it (under no_grad, nothing does). The
    tape keeps no op output, only its shape, so to the tape ``x`` stays the
    same tensor."""
    _check_out(out, x.data.shape, "move_into")
    out[...] = x.data
    x.data = out


def select_step(x: Tensor, t: int | slice) -> Tensor:
    """Pick index ``t`` (one time step) or the slice ``t`` (a block of steps)
    along the leading axis."""
    if not isinstance(t, (int, np.integer, slice)) or isinstance(t, bool):
        raise DimensionError(f"select_step: index {t!r} is neither an integer nor a slice")
    n = x.data.shape[0] if x.data.ndim else 0
    if not (len(range(n)[t]) if isinstance(t, slice) else 0 <= t < n):
        raise DimensionError(f"select_step: index {t} out of range")

    return apply_op(np.ascontiguousarray(x.data[t]), (x,), lambda g: ((t, g),))


def stack_steps(steps: list[Tensor]) -> Tensor:
    """Stack equally shaped tensors along a new leading (time) axis."""
    if not steps:
        raise UsageError("stack_steps needs at least one step")
    shapes = [s.data.shape for s in steps]
    if len(set(shapes)) != 1:
        raise DimensionError(f"stack_steps: step shapes {shapes} differ")
    out = np.stack([s.data for s in steps], axis=0)
    return apply_op(out, tuple(steps), lambda g: tuple(g))


# gathers take blocks of leading rows of about this many elements (512 KB), so
# each block is still in cache when it is copied out (np.take buffers a whole
# strided ``out``) or, in the sparse Laplacian product, reduced
_GATHER_ELEMS = 1 << 16


def gather_rows(x: Tensor, index: np.ndarray, out: np.ndarray | None = None,
                table=None) -> Tensor:
    """Gather rows along the node axis (second to last), into ``out`` when
    given, else into a new array. The backward folds each source row's
    gradient rows in gather order, as ``segment_reduce`` folds members; a
    source row never gathered gets a zero gradient. ``table`` is the
    ``gather_table`` of ``index`` when the caller has built it."""
    index = np.asarray(index, dtype=np.int64)
    if x.data.ndim < 2:
        raise DimensionError("gather_rows requires rank >= 2 input")
    shape = x.data.shape
    if index.ndim != 1 or index.size and not 0 <= index.min() <= index.max() < shape[-2]:
        raise DimensionError(f"gather_rows: index {index} is not a vector in 0..{shape[-2] - 1}")
    out = gather_rows_array(x.data, index, out)

    def pull(g):
        return (gather_rows_pull(g, shape, table or gather_table(index)),)

    return apply_op(out, (x,), pull)


def gather_rows_array(xd: np.ndarray, index: np.ndarray, out: np.ndarray | None = None):
    """The forward of ``gather_rows`` on an array (rank >= 2, int64 index)."""
    shape = xd.shape
    result = shape[:-2] + (index.size, shape[-1])
    if out is None:
        out = np.empty(result)
    _check_out(out, result, "gather_rows")
    lead = (int(np.prod(shape[:-2])),)
    src = xd.reshape(lead + shape[-2:])
    dst = _rows_of(out).reshape(lead + result[-2:])
    step = max(1, _GATHER_ELEMS // max(1, index.size * shape[-1]))
    for b in range(0, src.shape[0], step):
        dst[b : b + step] = np.take(src[b : b + step], index, axis=1)
    return out


def gather_table(index: np.ndarray):
    """What a gather's backward folds with: the source rows ``index`` reads,
    and the ``member_table`` of ``index`` over them."""
    used, group = np.unique(index, return_inverse=True)
    return (used,) + member_table(group, index.size)


def gather_rows_pull(g: np.ndarray, shape: tuple, table) -> np.ndarray:
    """The gradient of a gather from source shape ``shape``, from its output
    gradient ``g`` and the ``gather_table`` of its index."""
    used, members, counts = table
    z = np.zeros(shape)
    z[..., used, :] = _fold_members(g, members, counts, np.add, 0.0)
    return z


def member_table(parent, n: int, n_super: int | None = None):
    """Membership of a parent map over ``n`` nodes, as two arrays.

    ``table`` has shape (supernodes, width) and lists each supernode's members
    in node order, short rows padded with their own first member; ``counts``
    holds the member count of each supernode. ``n_super`` defaults to the
    largest parent id plus one.
    """
    parent = np.asarray(parent, dtype=np.int64)
    if parent.shape != (n,):
        raise DimensionError(f"segment map length {parent.shape} != node count {n}")
    if n_super is None:
        n_super = int(parent.max()) + 1 if n else 0
    bad = (parent < 0) | (parent >= n_super)
    if bad.any():
        raise PartitionError(f"parent id {parent[np.argmax(bad)]} out of range")
    counts = np.bincount(parent, minlength=n_super)
    if n_super and counts.min() == 0:
        raise PartitionError(f"supernode {np.argmin(counts)} has no members")
    order = np.argsort(parent, kind="stable")
    starts = np.cumsum(counts) - counts
    table = np.repeat(order[starts, None], counts.max(initial=0), axis=1)
    table[parent[order], np.arange(n) - np.repeat(starts, counts)] = order
    return table, counts


def _fold_members(xd: np.ndarray, table, counts, fold, identity: float) -> np.ndarray:
    """Fold the members of each ``member_table`` row of ``xd`` (node axis
    second to last) in node order, one slot rank at a time, onto ``identity``,
    with the operand order np.mean and np.max use. Padding folds in as the
    identity, which leaves every bit (a sum started at +0.0 is never -0.0)."""
    out = fold(identity, np.take(xd, table[:, 0], axis=-2))
    for r in range(1, table.shape[1]):
        column = np.take(xd, table[:, r], axis=-2)
        column[..., counts <= r, :] = identity
        fold(out, column, out=out)
    return out


def segment_reduce(x: Tensor, segments: np.ndarray, mode: str, table=None) -> Tensor:
    """Per-segment reduction over the node axis (second to last).

    ``mode='mean'`` spreads the gradient uniformly over members; ``mode='max'``
    routes it to the first attaining member in node-index order. ``table`` is
    the ``member_table`` of ``segments`` when the caller has built it.
    """
    if mode not in ("max", "mean"):
        raise UsageError(f"unknown segment_reduce mode {mode!r}")
    xd = x.data
    segments = np.asarray(segments, dtype=np.int64)
    table, counts = table or member_table(segments, xd.shape[-2])
    # +0.0 and -inf are the starts np.mean and np.max fold from
    fold, identity = (np.add, 0.0) if mode == "mean" else (np.maximum, -np.inf)
    out = _fold_members(xd, table, counts, fold, identity)
    if mode == "mean":
        out /= counts[:, None]

        def pull(g):
            return (np.take(g / counts[:, None], segments, axis=-2),)

    else:

        def pull(g):
            # a later slot wins only on a strict gain, so the first attaining
            # member keeps the gradient; padding repeats member 0, never a gain
            best = np.take(xd, table[:, 0], axis=-2)
            winner = np.broadcast_to(table[:, :1], best.shape)
            for r in range(1, table.shape[1]):
                column = np.take(xd, table[:, r], axis=-2)
                winner = np.where(column > best, table[:, r : r + 1], winner)
                best = np.maximum(best, column)
            z = np.zeros_like(xd)
            np.put_along_axis(z, winner, g, axis=-2)
            return (z,)

    return apply_op(out, (x,), pull)


_LN_EPS = 1e-5


def layer_norm(h: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row across the last axis (population variance), then
    apply the per-channel affine gain and bias."""
    c = h.data.shape[-1]
    if gain.data.shape != (c,) or bias.data.shape != (c,):
        raise DimensionError("layer_norm gain/bias must match the channel count")
    xhat, inv_std = layer_norm_stats(h.data.copy())
    out = layer_norm_affine(xhat, gain.data, bias.data)
    return apply_op(
        out, (h, gain, bias), lambda g: layer_norm_pull(g, xhat, inv_std, gain.data)
    )


def layer_norm_stats(h: np.ndarray):
    """The normalize half of a layer norm, which its pullback reads:
    (xhat, inv_std), with xhat written over ``h``."""
    # the sums divided by the count are what ndarray.mean computes, bit for bit
    c = h.shape[-1]
    mu = np.add.reduce(h, axis=-1, keepdims=True)
    mu /= c
    xhat = h
    xhat -= mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= c
    var += _LN_EPS
    inv_std = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv_std
    return xhat, inv_std


def layer_norm_affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray, out=None):
    """The affine half of a layer norm, written into ``out`` (a new array
    when None)."""
    out = np.multiply(xhat, gain, out=out)
    out += bias
    return out


def layer_norm_pull(g, xhat, inv_std, gain):
    """Gradients (dh, dgain, dbias) of a layer norm from its output gradient."""
    lead = tuple(range(g.ndim - 1))
    dgain = (g * xhat).sum(axis=lead)
    dbias = g.sum(axis=lead)
    dxhat = g * gain
    dh = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dh, dgain, dbias


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Explicitly broadcast a length-C vector over the leading axes of x."""
    if b.data.ndim != 1 or x.data.shape[-1] != b.data.shape[0]:
        raise DimensionError("add_bias: bias length must equal the channel count")
    c = b.data.shape[0]
    return apply_op(
        x.data + b.data, (x, b), lambda g: (g, g.reshape(-1, c).sum(axis=0))
    )


def _reduce_sum(x: Tensor) -> Tensor:
    shape = x.data.shape
    return apply_op(np.asarray(x.data.sum()), (x,), lambda g: (np.broadcast_to(g, shape),))


def _reduce_mean(x: Tensor) -> Tensor:
    shape, inv = x.data.shape, 1.0 / x.data.size
    return apply_op(
        np.asarray(x.data.mean()), (x,), lambda g: (np.broadcast_to(g * inv, shape),)
    )


def _abs(x: Tensor) -> Tensor:
    sign = np.sign(x.data)  # subgradient 0 at exactly 0
    return apply_op(np.abs(x.data), (x,), lambda g: (g * sign,))


def glorot_from(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """Glorot-uniform draw consuming the given generator stream.

    fan for rank 1 is the length on both sides; rank 2 uses the two extents;
    rank 3 kernels (K, C_out, C_in) use K*C_in / K*C_out.
    """
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise UsageError(f"glorot_from: non-positive extent in {shape}")
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    elif len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 3:
        k, c_out, c_in = shape
        fan_in, fan_out = k * c_in, k * c_out
    else:
        raise UsageError(f"glorot_from: unsupported rank {len(shape)}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True)


@dataclass
class AdamState:
    """First/second moment buffers plus hyperparameters for Adam."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Tensor], lr: float, **kw) -> "AdamState":
        state = cls(lr=lr, **kw)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place on params and state."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError("adam_step: params/grads/state lengths differ")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise DimensionError("adam_step: gradient shape mismatch")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def clip_global_norm(grads: list[np.ndarray], max_norm: float, names=None) -> list[np.ndarray]:
    """Scale all gradients down so their joint L2 norm is at most max_norm;
    0 turns clipping off. A gradient holding NaN or inf raises NumericError
    naming it (``names[k]``, else its index); a sum of squares that overflows
    is taken again over the gradients divided by their largest magnitude."""
    scale = 1.0
    with np.errstate(over="ignore"):
        squares = sum(float((g * g).sum()) for g in grads)
    if not np.isfinite(squares):
        for k, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                what = names[k] if names else f"parameter {k}"
                raise NumericError(f"gradient of {what} holds NaN or inf")
        scale = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        squares = sum(float(((g / scale) ** 2).sum()) for g in grads)
    total = np.sqrt(squares)  # the norm divided by scale
    if max_norm <= 0 or total <= max_norm / scale:
        return grads
    factor = max_norm / scale / total
    return [g * factor for g in grads]
