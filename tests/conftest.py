"""Shared test helpers: finite-difference gradient checking, graph builders
and a model that holds given scaling statistics."""

# the CLI's thread defaults, applied on import before NumPy loads: one thread
# per BLAS call unless a BLAS count is set, so the package's own threads
# (shards, micro-batches) run as they do for CLI users
import stunet.cli  # noqa: F401

import numpy as np

from stunet import tensor as T
from stunet.graph import Graph
from stunet.model import STUNetConfig, build


def numeric_grad(build, param, index, eps=1e-6):
    """Central finite difference of build()'s scalar output wrt one entry."""
    old = float(param.data[index])
    try:
        with T.no_grad():
            param.data[index] = old + eps
            T.reset_tape()
            hi = build().item()
            param.data[index] = old - eps
            T.reset_tape()
            lo = build().item()
    finally:
        param.data[index] = old
        T.reset_tape()
    return (hi - lo) / (2.0 * eps)


def check_gradients(build, params, rel_tol=1e-4, eps=1e-6, max_checks=6, seed=0):
    """Compare reverse-mode gradients of build() against finite differences.

    build() must reconstruct the computation from the current .data of every
    param and return a scalar Tensor. The error is |fd - analytic| divided by
    max(1, |fd|, |analytic|). Returns the worst error observed.
    """
    T.reset_tape()
    grads = T.grads(build(), params)
    T.reset_tape()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, grads):
        indices = list(np.ndindex(p.shape))
        if len(indices) > max_checks:
            chosen = rng.choice(len(indices), size=max_checks, replace=False)
            indices = [indices[i] for i in chosen]
        for idx in indices:
            fd = numeric_grad(build, p, idx, eps)
            err = abs(fd - g[idx]) / max(1.0, abs(fd), abs(g[idx]))
            worst = max(worst, err)
    assert worst <= rel_tol, f"worst gradient error {worst:.3e} exceeds {rel_tol}"
    return worst


def leaf(data, seed=None, scale=0.5):
    """Make a requires-grad Tensor, optionally with seeded random contents."""
    if seed is not None:
        rng = np.random.default_rng(seed)
        data = rng.normal(scale=scale, size=data)
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def path_graph(n, weights=None):
    """Path 0-1-...-(n-1); weights default to 1."""
    if weights is None:
        weights = [1.0] * (n - 1)
    return Graph.from_edges(n, [(i, i + 1, w) for i, w in enumerate(weights)])


def cycle_graph(n, weight=1.0):
    edges = [(i, (i + 1) % n, weight) for i in range(n)]
    return Graph.from_edges(n, edges)


def random_graph(rng, n, density=0.5, max_weight=5.0, ensure_edge=True):
    """Random symmetric weighted graph with at least one edge."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, float(rng.uniform(0.1, max_weight))))
    if ensure_edge and not edges and n >= 2:
        edges.append((0, 1, float(rng.uniform(0.1, max_weight))))
    return Graph.from_edges(n, edges)


def scaling_model(norm, n: int):
    """A one-layer model on an n-node path whose ``norm`` buffers hold the
    statistics of the fitted Normalizer ``norm``."""
    d = norm.mean.size
    model = build(STUNetConfig(p=0, s=1, hidden_sizes=(2,), d_in=d, d_out=d), path_graph(n))
    model.norm_mean.data[...] = norm.mean
    model.norm_std.data[...] = norm.std
    return model
