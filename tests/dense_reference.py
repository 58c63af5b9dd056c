"""The dense construction of every graph structure, kept as the reference
that the edge-array construction in ``stunet`` must equal bit for bit: an
N x N adjacency filled by ``np.maximum.at``, degrees as its row sums, the
normalized Laplacian, its rescaled form and padded-neighbour operator from
dense matrices, and matching contraction by ``np.add.at`` on a dense matrix.
The synthetic diffusion, one dense matrix product a step, is matched only to
the last bits: the edge sums add each row in another order."""

import numpy as np


def adjacency(n, edges):
    """Dense adjacency of (i, j, w) triples; parallel entries keep the max."""
    e = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    i, j = e[:, :2].astype(np.intp).T
    w = np.zeros((n, n))
    np.maximum.at(w, (i, j), e[:, 2] + 0.0)
    np.maximum.at(w, (j, i), e[:, 2] + 0.0)
    return w


def laplacian(w, lambda_max=None):
    """(L, lambda_max, L~, ELL operator or None) of a dense adjacency."""
    n = w.shape[0]
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    lap = np.eye(n) - (inv_sqrt[:, None] * w) * inv_sqrt[None, :]
    lap = 0.5 * (lap + lap.T)
    if lambda_max is None:
        lambda_max = float(np.linalg.eigvalsh(lap)[-1]) if n else 2.0
    rescaled = 2.0 * lap / lambda_max - np.eye(n)
    return lap, lambda_max, rescaled, ell(rescaled)


def ell(m, width_ratio=16):
    """Padded-neighbour (index, weight) arrays of the nonzeros of m, or None
    when the widest row times ``width_ratio`` reaches n."""
    n = m.shape[0]
    rows, cols = np.nonzero(m)
    counts = np.bincount(rows, minlength=n)
    width = int(counts.max(initial=0))
    if width * width_ratio >= n:
        return None
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.repeat(np.arange(n)[:, None], width, axis=1)
    wts = np.zeros((n, width))
    idx[rows, slot] = cols
    wts[rows, slot] = m[rows, cols]
    return idx, wts


def contract(w, parent):
    """Dense adjacency of the supernodes: crossing weights summed in edge order."""
    i, j = np.nonzero(np.triu(w, 1))
    wt = w[i, j]
    a, b = parent[i], parent[j]
    cross = a != b
    a, b, wt = a[cross], b[cross], wt[cross]
    rows, cols = np.stack((a, b), axis=1).ravel(), np.stack((b, a), axis=1).ravel()
    n_super = int(parent.max(initial=-1)) + 1
    out = np.zeros((n_super, n_super))
    np.add.at(out, (rows, cols), np.repeat(wt, 2))
    return out


def diffusion_operator(g, mode):
    """The dense N x N diffusion matrix A of ``synth_diffusion`` on graph g:
    D^-1 W with identity rows on isolated nodes ('row'), or I - (D - W)/d_max
    ('symmetric'); D holds ``g.degrees()``, as the dense construction did."""
    w, deg = g.weights, g.degrees()
    if mode == "row":
        a = np.where(deg[:, None] > 0, w / np.where(deg == 0, 1.0, deg)[:, None], 0.0)
        a[deg == 0] = np.eye(g.n)[deg == 0]
        return a
    d_max = deg.max(initial=0.0)
    return np.eye(g.n) - (np.diag(deg) - w) / d_max if d_max > 0 else np.eye(g.n)


def diffusion_series(g, t, alpha, noise_sigma, seed, mode):
    """The (t, N, 1) series of ``synth_diffusion``, one dense product a step."""
    a = diffusion_operator(g, mode)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((g.n, 1))
    frames = [x]
    for _ in range(t - 1):
        x = alpha * (a @ x) + (1.0 - alpha) * x
        if noise_sigma > 0:
            x = x + noise_sigma * rng.standard_normal(x.shape)
        frames.append(x)
    return np.stack(frames)
