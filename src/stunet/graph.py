"""Weighted graphs, normalized Laplacians, and Chebyshev graph convolution.

A graph is stored only as its edge arrays (i, j, w), i < j, sorted, w > 0;
a dense adjacency is a new matrix built from them on request.
``Graph.__init__`` checks a dense matrix and keeps its upper-triangle edges,
``Graph.from_edges`` an (m, 3) edge array or list. Degrees, the normalized
Laplacian and its operator come from the edge arrays in O(|E|); degrees add
each row's weights in column order, so they equal a dense row sum exactly for
integer weights and to the last bit or so otherwise. The convolution filters
a node-signal matrix with a K-localized polynomial of the rescaled Laplacian,
evaluated by the three-term recursion applied directly to the signal as one
fused op. Each Laplacian fixes its product operator when it is built, by row
width: padded-neighbour (ELL) index and weight arrays when the widest row is
narrow against the node count, the dense rescaled matrix otherwise.
lambda_max is a dense symmetric eigensolve up to _EIGVALSH_MAX_N nodes; above
that it is 2.0, the bound on the spectrum of a normalized Laplacian (exact
when a component is bipartite, as on grids), so no N x N matrix is ever
formed there. An exact spectral form from a full eigendecomposition (cyclic
Jacobi) is provided for verification on small graphs only.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from . import tensor as T
from .errors import DimensionError, GraphError, UsageError
from .spectral import (  # noqa: F401  (the spectral oracles are re-exported)
    SpectralDecomposition,
    estimate_lambda_max,
    jacobi_eigh,
    spectral_conv_oracle,
)
from .tensor import _GATHER_ELEMS, Tensor, apply_op

_SYM_TOL = 1e-8
# the sparse operator is used when the widest row times this is below n
_ELL_WIDTH_RATIO = 16
# neighbour slots gathered at once, so no temporary exceeds 8 activations
_ELL_CHUNK = 8
# lambda_max by a dense eigensolve up to this many nodes, the bound 2.0 above
_EIGVALSH_MAX_N = 2000


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only: a graph's edges never change, so what is
    derived from them (the cached degrees) stays true."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class Graph:
    """Undirected weighted graph on nodes 0..n-1 as edge arrays (i, j, w),
    i < j, lexicographic, w > 0, and nothing else: ``weights`` builds a new
    dense adjacency from the edges on each call, so a -0.0 non-edge of the
    matrix a graph was made from reads +0.0. A dense asymmetry up to _SYM_TOL
    is averaged away, a larger one is an error."""

    __slots__ = ("n", "_edges", "_degrees")

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphError(f"adjacency must be square, got {w.shape}")
        rows, cols = _nonzero(w)  # every entry a check can fail on
        vals = w[rows, cols]
        if not np.all(np.isfinite(vals)):
            raise GraphError("adjacency holds non-finite values")
        with np.errstate(over="ignore"):  # a gap that overflows is an asymmetry
            gap = np.abs(vals - w[cols, rows])
        worst = gap.max(initial=0.0)
        if worst > _SYM_TOL:
            raise GraphError(f"adjacency asymmetric by {worst:.3e}")
        if worst:  # average only the pairs that differ, so no sum overflows
            i, j = rows[gap > 0], cols[gap > 0]
            w = w.copy()
            w[i, j] = w[j, i] = 0.5 * (w[i, j] + w[j, i])
            rows, cols = _nonzero(w)
            vals = w[rows, cols]
        if vals.min(initial=0.0) < 0:
            raise GraphError("negative weight in adjacency")
        if np.any(rows == cols):
            raise GraphError("adjacency diagonal must be zero")
        up = rows < cols
        self.n, self._edges, self._degrees = w.shape[0], _frozen(rows[up], cols[up], vals[up]), None

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from (i, j, w) triples, one (m, 3) array or a sequence of
        tuples; parallel entries, in either orientation, keep the max weight."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise GraphError(f"node count n={n!r} is not an integer >= 0")
        e = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
        ends, wt = e[:, :2], e[:, 2]
        for bad, fault in (
            ((ends != np.floor(ends)).any(axis=1), "a non-integral node id"),
            (((ends < 0) | (ends >= n)).any(axis=1), f"a node out of range for n={n}"),
            (ends[:, 0] == ends[:, 1], "a self loop"),
            (~(np.isfinite(wt) & (wt >= 0)), "a non-finite or negative weight"),
        ):
            if bad.any():
                raise GraphError(f"edge {tuple(e[np.argmax(bad)].tolist())} has {fault}")
        ends = np.sort(ends.astype(np.int64), axis=1)
        order = np.argsort(ends[:, 0] * n + ends[:, 1], kind="stable")
        ends, wt = ends[order], wt[order]
        first = np.flatnonzero(np.r_[True, (ends[1:] != ends[:-1]).any(axis=1)][: wt.size])
        wt = np.maximum.reduceat(wt, first) if wt.size else wt
        keep = wt > 0  # a zero weight is no edge
        ends = ends[first][keep]
        return cls._of(n, ends[:, 0].copy(), ends[:, 1].copy(), wt[keep])

    @classmethod
    def _of(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> "Graph":
        """A graph of already checked, sorted edge arrays."""
        g = object.__new__(cls)
        g.n, g._edges, g._degrees = int(n), _frozen(i, j, w), None
        return g

    @property
    def weights(self) -> np.ndarray:
        """The dense adjacency, a new matrix built from the edges on each call."""
        i, j, w = self._edges
        out = np.zeros((self.n, self.n))
        out[i, j] = out[j, i] = w
        return out

    def edge_arrays(self):
        """Edges as read-only arrays (i, j, w) with i < j, in lexicographic order."""
        return self._edges

    def edges(self):
        """Edges as (i, j, w) tuples with i < j, in lexicographic order."""
        return list(zip(*(a.tolist() for a in self._edges)))

    def directed(self):
        """(rows, cols, w): every edge in both directions, row-major."""
        i, j, w = self._edges
        rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
        order = np.argsort(rows * self.n + cols)
        return rows[order], cols[order], np.tile(w, 2)[order]

    def degrees(self) -> np.ndarray:
        """Weighted degree per node, each row summed in column order (so
        ``weights.sum(axis=1)``, summed pairwise, may differ in the last bit
        on non-integer weights); computed once, and read-only."""
        if self._degrees is None:
            rows, _, w = self.directed()
            # astype: bincount of no edges is an integer array
            self._degrees = np.bincount(rows, w, self.n).astype(np.float64, copy=False)
            self._degrees.flags.writeable = False
        return self._degrees

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edges[2].size})"


def _nonzero(w: np.ndarray):
    """np.nonzero of a square matrix, row-major; a flat search on a boolean
    mask is several times faster than np.nonzero on a float matrix."""
    return np.divmod(np.flatnonzero(w != 0), w.shape[0])


class GraphLaplacian:
    """Normalized Laplacian, held as its n and its off-diagonal entries (i,
    j, value) with i < j (the diagonal is 1), with its largest eigenvalue and
    the operator that applies L~ = 2L/lambda_max - I to signals. ``lap`` and
    ``rescaled``, the dense L and L~, are built on request."""

    __slots__ = ("n", "entries", "lambda_max", "ell", "_dense", "_rescaled_tensor")

    def __init__(self, n: int, entries: tuple, lambda_max: float | None = None):
        self.n, self.entries = n, entries
        i, j, off = entries
        if lambda_max is None:
            lambda_max = estimate_lambda_max(self.lap) if n <= _EIGVALSH_MAX_N else 2.0
        self.lambda_max = float(lambda_max)
        self._dense = self.ell = self._rescaled_tensor = None
        diag = np.full(n, 2.0 / self.lambda_max - 1.0)
        rows, cols = np.concatenate((i, j, np.arange(n))), np.concatenate((j, i, np.arange(n)))
        vals = np.concatenate((np.tile(2.0 * off / self.lambda_max, 2), diag))
        nz = vals != 0  # the nonzeros of the dense L~
        rows, cols, vals = rows[nz], cols[nz], vals[nz]
        counts = np.bincount(rows, minlength=n)
        width = int(counts.max(initial=0))
        if width * _ELL_WIDTH_RATIO >= n:  # too wide for gathers to beat a dense product
            self._dense = self.rescaled
            return
        order = np.argsort(rows * n + cols)  # row-major, as np.nonzero lists them
        rows, cols, vals = rows[order], cols[order], vals[order]
        # padding slots point at their own row with weight 0
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.repeat(np.arange(n)[:, None], width, axis=1)
        wts = np.zeros((n, width))
        idx[rows, slot] = cols
        wts[rows, slot] = vals
        self.ell = idx, wts

    @property
    def lap(self) -> np.ndarray:
        """The dense normalized Laplacian."""
        i, j, off = self.entries
        out = np.eye(self.n)
        out[i, j] = out[j, i] = off
        return out

    @property
    def rescaled(self) -> np.ndarray:
        """The dense L~ = 2L/lambda_max - I."""
        if self._dense is not None:
            return self._dense
        i, j, off = self.entries
        out = np.zeros((self.n, self.n))
        out[i, j] = out[j, i] = 2.0 * off / self.lambda_max
        np.fill_diagonal(out, 2.0 / self.lambda_max - 1.0)
        return out

    def rescaled_tensor(self) -> Tensor:
        """The rescaled Laplacian as a constant tensor, built on first use."""
        if self._rescaled_tensor is None:
            self._rescaled_tensor = Tensor(self.rescaled)
        return self._rescaled_tensor

    def product(self, v: np.ndarray) -> np.ndarray:
        """L~ v along the node axis (second to last) of v, as a new array."""
        if v.size == 0:
            return np.empty(v.shape)
        if self.ell is None:
            return self._dense @ v
        idx, wts = self.ell
        n, c = v.shape[-2:]
        rows = v.reshape(-1, n, c)
        out = np.empty(rows.shape)
        step = max(1, _GATHER_ELEMS // (n * min(idx.shape[1], _ELL_CHUNK) * c))
        for b in range(0, rows.shape[0], step):
            blk = out[b : b + step]
            for s in range(0, idx.shape[1], _ELL_CHUNK):
                part = np.einsum(
                    "bnsc,ns->bnc",
                    np.take(rows[b : b + step], idx[:, s : s + _ELL_CHUNK], axis=1),
                    wts[:, s : s + _ELL_CHUNK],
                    out=None if s else blk,
                )
                if s:
                    blk += part
        return out.reshape(v.shape)

    def basis(self, v: np.ndarray, order: int) -> np.ndarray:
        """[T_0(L~)v | ... | T_{K-1}(L~)v] along the channel axis, one new array.

        The recursion T_k = 2 L~ T_{k-1} - T_{k-2} is applied to the signal,
        never materializing polynomial matrices.
        """
        if v.shape[-2] != self.n:
            raise DimensionError(
                f"signal node extent {v.shape[-2]} != graph size {self.n}"
            )
        c = v.shape[-1]
        out = np.empty(v.shape[:-1] + (order * c,))
        out[..., :c] = v
        prev, cur = None, v
        for k in range(1, order):
            nxt = self.product(cur)
            if prev is not None:
                nxt *= 2.0
                nxt -= prev
            out[..., k * c : (k + 1) * c] = nxt
            prev, cur = cur, nxt
        return out

    def basis_transpose(self, g: np.ndarray, order: int) -> np.ndarray:
        """Gradient of ``basis`` w.r.t. its signal, by the transposed (Clenshaw)
        recursion; L~ is symmetric and constant, so it needs L~ products only."""
        c = g.shape[-1] // order
        # b_k = g_k + 2 L~ b_{k+1} - b_{k+2};  dv = g_0 + L~ b_1 - b_2
        blocks = [g[..., k * c : (k + 1) * c] for k in range(order)]
        b1, b2 = blocks[-1], None
        for k in range(order - 2, -1, -1):
            b = self.product(b1)
            if k:
                b *= 2.0
            b += blocks[k]
            if b2 is not None:
                b -= b2
            b1, b2 = b, b1
        return b1


def normalized_laplacian(g: Graph, lambda_max: float | None = None) -> GraphLaplacian:
    """L = I - D^{-1/2} W D^{-1/2} from the edge arrays, each entry the value
    the dense 0.5 (L + L^T) holds; zero-degree nodes yield identity rows.
    The largest eigenvalue is computed unless ``lambda_max`` gives it."""
    deg = g.degrees()
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    i, j, w = g.edge_arrays()
    si, sj = inv_sqrt[i], inv_sqrt[j]
    off = 0.5 * ((0.0 - si * w * sj) + (0.0 - sj * w * si))
    return GraphLaplacian(g.n, (i, j, off), lambda_max)


class ChebKernel:
    """Chebyshev filter coefficients, shape (K, C_out, C_in)."""

    __slots__ = ("theta", "order")

    def __init__(self, theta: Tensor):
        if theta.data.ndim != 3:
            raise DimensionError("ChebKernel theta must have shape (K, C_out, C_in)")
        if theta.data.shape[0] < 1:
            raise UsageError("ChebKernel order K must be >= 1")
        self.theta = theta
        self.order = theta.data.shape[0]

    @property
    def c_in(self) -> int:
        return self.theta.data.shape[2]

    @property
    def c_out(self) -> int:
        return self.theta.data.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, k: int, c_out: int, c_in: int):
        return cls(T.glorot_from(rng, (k, c_out, c_in)))


def kernel_matrix(*kernels: ChebKernel) -> Tensor:
    """Fold (K, C_out, C_in) coefficients into a (K*C_in, C_out) matrix so the
    filter applies as one product against the stacked Chebyshev basis. Several
    kernels of one order and C_in fold side by side, one column block each."""
    thetas = tuple(kern.theta for kern in kernels)
    k, _, c_in = thetas[0].data.shape
    ends = list(accumulate(t.data.shape[1] for t in thetas))
    folded = np.empty((k, c_in, ends[-1]))
    for t, lo, hi in zip(thetas, [0] + ends, ends):
        folded[..., lo:hi] = np.transpose(t.data, (0, 2, 1))

    def pull(g):
        g = g.reshape(k, c_in, -1)
        return tuple(
            np.transpose(g[..., lo:hi], (0, 2, 1)) for lo, hi in zip([0] + ends, ends)
        )

    return apply_op(folded.reshape(k * c_in, -1), thetas, pull)


def cheb_basis(lap: GraphLaplacian, x: Tensor, order: int) -> Tensor:
    """Stack [T_0(L~)x | ... | T_{K-1}(L~)x] along the channel axis, one op
    whose pullback is the Clenshaw recursion (``basis_transpose``)."""
    if order < 1:
        raise UsageError(f"Chebyshev order must be >= 1, got {order}")
    out = lap.basis(x.data, order)
    return apply_op(out, (x,), lambda g: (lap.basis_transpose(g, order),))


def cheb_filter(kernel: ChebKernel, lap: GraphLaplacian):
    """``cheb_conv`` with the kernel folded once, for a filter applied to
    many signals: returns the map x -> sum_k T_k(L~) x theta_k^T."""
    folded = kernel_matrix(kernel)

    def conv(x: Tensor) -> Tensor:
        if x.data.shape[-1] != kernel.c_in:
            raise DimensionError(
                f"signal channels {x.data.shape[-1]} != kernel C_in {kernel.c_in}"
            )
        return T.matmul(cheb_basis(lap, x, kernel.order), folded)

    return conv


def cheb_conv(kernel: ChebKernel, lap: GraphLaplacian, x: Tensor) -> Tensor:
    """K-localized graph convolution: sum_k T_k(L~) x theta_k^T."""
    return cheb_filter(kernel, lap)(x)
