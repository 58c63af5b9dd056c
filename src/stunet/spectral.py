"""Largest eigenvalue of a normalized Laplacian, and spectral oracles.

``estimate_lambda_max`` is a dense symmetric eigensolve. The cyclic Jacobi
eigendecomposition, the graph Fourier basis and the exact spectral filter are
independent routes used to verify the Chebyshev recursion on small graphs
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GraphError, UsageError


def estimate_lambda_max(lap: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric Laplacian by a dense eigensolve;
    2.0 (the normalized spectral bound) for an empty graph."""
    if np.abs(lap - lap.T).max(initial=0.0) > 1e-9:
        raise GraphError("lambda_max estimation requires a symmetric matrix")
    if lap.shape[0] == 0:
        return 2.0
    return float(np.linalg.eigvalsh(lap)[-1])


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
