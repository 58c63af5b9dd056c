"""Weighted graphs, normalized Laplacians, and Chebyshev graph convolution.

Every graph is checked by ``Graph.__init__`` alone; edge lists and grids
reach it through ``Graph.from_edges`` as one (m, 3) array. The convolution
filters a node-signal matrix with a K-localized polynomial of the rescaled
Laplacian, evaluated by the three-term recursion applied directly to the
signal as one fused op. Each Laplacian fixes its product operator when
it is built, by row width: padded-neighbour (ELL) index and weight arrays when
the widest row is narrow against the node count, the dense rescaled matrix
otherwise. lambda_max is exact (a dense symmetric eigensolve). An exact
spectral form computed from a full eigendecomposition (cyclic Jacobi) is
provided for verification on small graphs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T
from .errors import DimensionError, GraphError, UsageError
from .tensor import Tensor, apply_op

_SYM_TOL = 1e-8
# the sparse operator is used when the widest row times this is below n
_ELL_WIDTH_RATIO = 16
# neighbour slots gathered at once, so no temporary exceeds 8 activations
_ELL_CHUNK = 8
# leading rows are gathered in blocks of about this many elements (512 KB),
# so the gathered block is still in cache when it is reduced
_GATHER_ELEMS = 1 << 16


class Graph:
    """Undirected weighted graph: symmetric nonnegative adjacency, zero diagonal.
    An asymmetry up to _SYM_TOL is averaged away, a larger one is an error;
    a symmetric matrix is stored as given."""

    __slots__ = ("n", "weights")

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphError(f"adjacency must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise GraphError("adjacency holds non-finite values")
        with np.errstate(over="ignore"):  # a gap that overflows is an asymmetry
            gap = np.abs(w - w.T)
        worst = gap.max(initial=0.0)
        if worst > _SYM_TOL:
            raise GraphError(f"adjacency asymmetric by {worst:.3e}")
        if worst:  # average only the pairs that differ, so no sum overflows
            i, j = np.nonzero(gap)
            w = w.copy()
            w[i, j] = 0.5 * (w[i, j] + w[j, i])
        if w.size and w.min() < 0:
            raise GraphError("negative weight in adjacency")
        if np.any(np.diag(w)):
            raise GraphError("adjacency diagonal must be zero")
        self.n = w.shape[0]
        self.weights = w

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from (i, j, w) triples, one (m, 3) array or a sequence of
        tuples; parallel entries, in either orientation, keep the max weight."""
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
        i, j = ends.astype(np.intp).T
        w = np.zeros((n, n))
        np.maximum.at(w, (i, j), wt + 0.0)  # + 0.0 stores a -0.0 weight as 0.0
        np.maximum.at(w, (j, i), wt + 0.0)
        return cls(w)

    def edge_arrays(self):
        """Edges as arrays (i, j, w) with i < j, in lexicographic order."""
        i, j = np.nonzero(np.triu(self.weights, 1))
        return i, j, self.weights[i, j]

    def edges(self):
        """Edges as (i, j, w) tuples with i < j, in lexicographic order."""
        return list(zip(*(a.tolist() for a in self.edge_arrays())))

    def degrees(self) -> np.ndarray:
        """Weighted degree per node."""
        return self.weights.sum(axis=1)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges())})"


def jacobi_eigh(a: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns). Small matrices only;
    this is the independent route used to verify spectral properties.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"jacobi_eigh needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n > 64:
        raise UsageError("jacobi_eigh is restricted to n <= 64")
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order], v[:, order]


@dataclass
class SpectralDecomposition:
    """Graph Fourier basis U and eigenvalues of the normalized Laplacian."""

    eigvecs: np.ndarray  # columns are eigenvectors
    eigvals: np.ndarray  # ascending

    @classmethod
    def of(cls, laplacian: np.ndarray) -> "SpectralDecomposition":
        vals, vecs = jacobi_eigh(laplacian)
        return cls(eigvecs=vecs, eigvals=vals)


class GraphLaplacian:
    """Normalized Laplacian with its largest eigenvalue, rescaled form
    L~ = 2L/lambda_max - I, and the operator that applies L~ to signals."""

    __slots__ = ("n", "lap", "lambda_max", "rescaled", "ell", "_rescaled_tensor")

    def __init__(self, lap: np.ndarray, lambda_max: float):
        self.n = lap.shape[0]
        self.lap = lap
        self.lambda_max = float(lambda_max)
        self.rescaled = 2.0 * lap / self.lambda_max - np.eye(self.n)
        self.ell = _ell_operator(self.rescaled)
        self._rescaled_tensor = None

    def rescaled_tensor(self) -> Tensor:
        """The rescaled Laplacian as a constant tensor, built on first use."""
        if self._rescaled_tensor is None:
            self._rescaled_tensor = Tensor(self.rescaled)
        return self._rescaled_tensor

    def product(self, v: np.ndarray) -> np.ndarray:
        """L~ v along the node axis (second to last) of v, as a new array."""
        if self.ell is None or v.size == 0:
            return self.rescaled @ v
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


def _ell_operator(m: np.ndarray):
    """Padded-neighbour form (index, weight), each (n, width), of the nonzeros
    of m, or None when the widest row is too wide for gathers to beat a dense
    product. Padding slots point at their own row with weight 0."""
    n = m.shape[0]
    rows, cols = np.nonzero(m)
    counts = np.bincount(rows, minlength=n)
    width = int(counts.max(initial=0))
    if width * _ELL_WIDTH_RATIO >= n:
        return None
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.repeat(np.arange(n)[:, None], width, axis=1)
    wts = np.zeros((n, width))
    idx[rows, slot] = cols
    wts[rows, slot] = m[rows, cols]
    return idx, wts


def normalized_laplacian(g: Graph, lambda_max: float | None = None) -> GraphLaplacian:
    """L = I - D^{-1/2} W D^{-1/2}; zero-degree nodes yield identity rows.
    The largest eigenvalue is computed exactly unless ``lambda_max`` gives it."""
    deg = g.degrees()
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    lap = np.eye(g.n) - (inv_sqrt[:, None] * g.weights) * inv_sqrt[None, :]
    lap = 0.5 * (lap + lap.T)  # kill rounding asymmetry
    return GraphLaplacian(lap, estimate_lambda_max(lap) if lambda_max is None else lambda_max)


def estimate_lambda_max(lap: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric Laplacian by a dense eigensolve;
    2.0 (the normalized spectral bound) for an empty graph."""
    if np.abs(lap - lap.T).max(initial=0.0) > 1e-9:
        raise GraphError("lambda_max estimation requires a symmetric matrix")
    if lap.shape[0] == 0:
        return 2.0
    return float(np.linalg.eigvalsh(lap)[-1])


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


def spectral_conv_oracle(
    kernel: ChebKernel,
    decomp: SpectralDecomposition,
    lambda_max: float,
    x: np.ndarray,
) -> np.ndarray:
    """Exact spectral-domain filter U g(Lambda) U^T x; test oracle only.

    Evaluates the Chebyshev polynomial entrywise on the rescaled eigenvalues,
    which must agree with the signal-space recursion.
    """
    u = decomp.eigvecs
    n = u.shape[0]
    if n > 64:
        raise UsageError("spectral_conv_oracle is restricted to n <= 64")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != n:
        raise DimensionError("signal node extent does not match the decomposition")
    lam = 2.0 * decomp.eigvals / lambda_max - 1.0
    k_order = kernel.order
    cheb_vals = np.empty((k_order, n))
    cheb_vals[0] = 1.0
    if k_order > 1:
        cheb_vals[1] = lam
    for k in range(2, k_order):
        cheb_vals[k] = 2.0 * lam * cheb_vals[k - 1] - cheb_vals[k - 2]
    theta = kernel.theta.data  # (K, C_out, C_in)
    # filter response per eigenvalue: (n, C_out, C_in)
    response = np.einsum("koi,kn->noi", theta, cheb_vals)
    xi = u.T @ x  # spectral coefficients (n, C_in)
    yi = np.einsum("noi,ni->no", response, xi)
    return u @ yi
