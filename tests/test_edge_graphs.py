"""Graph structures derived from edge arrays against the dense reference.

Degrees, the Laplacian operator and the coarse graphs must equal the dense
construction (``dense_reference``) bit for bit wherever summation order
cannot matter: on grids and on random graphs whose weights are multiples of
1/16. On other weights degrees are summed in column order rather than
pairwise, so they, and the operator built from them, may differ by a few
units in the last place. Above the dense eigensolve's size limit λmax is the
bound 2.0, and a model on a graph given as edges never holds an N x N array.
"""

import tracemalloc

import numpy as np
import pytest

import dense_reference as ref
from stunet import graph as G
from stunet.data import knn_grid_graph
from stunet.errors import GraphError, PartitionError
from stunet.graph import Graph, normalized_laplacian
from stunet.model import STUNetConfig, build
from stunet.partition import Matching, PartitionMap, multilevel_partition


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_edges(rng, n, exact):
    """Weighted edges with isolated nodes, both orientations and parallel
    duplicates (lighter and heavier, so the max decides). ``exact`` weights
    are multiples of 1/16, so every order of summing them is exact."""
    def weight():
        return rng.integers(1, 81) / 16 if exact else rng.uniform(0.01, 5.0)

    density = rng.choice([0.01, 0.05, 0.3])
    iso = rng.random(n) < 0.1
    edges = [(i, j, weight()) for i in range(n) for j in range(i + 1, n)
             if not (iso[i] or iso[j]) and rng.random() < density]
    dup = [(j, i, weight()) for i, j, _ in edges if rng.random() < 0.3]
    e = np.array(edges + dup, dtype=np.float64).reshape(-1, 3)
    return e[rng.permutation(len(e))]


def _cases(exact):
    rng = np.random.default_rng(41 if exact else 43)
    for _ in range(8):
        n = int(rng.integers(2, 300))
        edges = _random_edges(rng, n, exact)
        yield f"{'exact' if exact else 'float'}{n}", Graph.from_edges(n, edges), ref.adjacency(n, edges)
    if exact:
        for side in (6, 8, 24):
            g = knn_grid_graph(side, side)
            i, j, w = g.edge_arrays()
            yield f"grid{side}", g, ref.adjacency(g.n, np.column_stack((i, j, w)))


EXACT = list(_cases(exact=True))
FLOAT = list(_cases(exact=False))


@pytest.mark.parametrize("name, g, w", EXACT, ids=[c[0] for c in EXACT])
def test_edges_degrees_and_operator_equal_the_dense_reference(name, g, w):
    assert _same(g.weights, w)
    assert _same(Graph(w).degrees(), w.sum(axis=1))
    assert _same(g.degrees(), w.sum(axis=1))
    for lam in (None, 1.75):
        lap = normalized_laplacian(g, lam)
        want_lap, want_lam, want_rescaled, want_ell = ref.laplacian(w, lam)
        assert lap.lambda_max == want_lam
        assert _same(lap.lap, want_lap)
        assert _same(lap.rescaled, want_rescaled)
        assert (lap.ell is None) == (want_ell is None)
        if want_ell is not None:
            assert _same(lap.ell[0], want_ell[0]) and _same(lap.ell[1], want_ell[1])


@pytest.mark.parametrize("name, g, w", FLOAT, ids=[c[0] for c in FLOAT])
def test_non_dyadic_weights_differ_from_the_dense_reference_in_the_last_bits(name, g, w):
    # summing up to ~90 positive terms in two orders: within 1e-14 relative
    assert _same(g.weights, w)
    np.testing.assert_allclose(g.degrees(), w.sum(axis=1), rtol=1e-14, atol=0)
    lap = normalized_laplacian(g)
    want_lap, want_lam, want_rescaled, _ = ref.laplacian(w)
    assert abs(lap.lambda_max - want_lam) < 1e-13
    np.testing.assert_allclose(lap.lap, want_lap, rtol=0, atol=1e-14)
    np.testing.assert_allclose(lap.rescaled, want_rescaled, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name, g, w", EXACT + FLOAT, ids=[c[0] for c in EXACT + FLOAT])
def test_coarse_graphs_equal_the_dense_reference(name, g, w):
    if not g.edge_arrays()[0].size:
        return
    pm = multilevel_partition(g, 2)
    again = PartitionMap.from_parents(Graph(w), pm.parents)
    dense = w
    for parent, coarse, coarse_again in zip(pm.parents, pm.graphs[1:], again.graphs[1:]):
        dense = ref.contract(dense, parent)
        assert _same(coarse.weights, dense) and _same(coarse_again.weights, dense)
        if not name.startswith("float"):
            assert _same(coarse.degrees(), dense.sum(axis=1))


@pytest.mark.parametrize("n", [-1, 2.5, True, "3"])
def test_bad_node_count_is_a_graph_error_naming_n(n):
    with pytest.raises(GraphError, match=rf"node count n={n!r}"):
        Graph.from_edges(n, [])


def test_lambda_max_above_the_threshold_is_the_normalized_bound(monkeypatch):
    monkeypatch.setattr(G, "_EIGVALSH_MAX_N", 100)
    rng = np.random.default_rng(5)
    for n in (100, 101):  # at the threshold an eigensolve, above it the bound
        i, j = np.triu_indices(n, 1)
        keep = rng.random(i.size) < 0.1
        g = Graph.from_edges(n, np.column_stack((i, j, rng.uniform(0.1, 2.0, i.size)))[keep])
        lap = normalized_laplacian(g)
        top = np.linalg.eigvalsh(lap.lap)[-1]
        assert top < 2.0 - 1e-3  # random graphs with triangles: not bipartite
        assert lap.lambda_max == (top if n == 100 else 2.0)
        # the bound keeps the spectrum of L~ = L - I inside [-1, 1]
        assert np.abs(np.linalg.eigvalsh(lap.rescaled)).max() <= 1.0 + 1e-12


def test_an_empty_signal_needs_no_dense_operator(monkeypatch):
    lap = normalized_laplacian(knn_grid_graph(24, 24))
    assert lap.ell is not None

    def no_dense(_):
        raise AssertionError("the dense L~ was built")

    monkeypatch.setattr(G.GraphLaplacian, "rescaled", property(no_dense))
    for shape in ((0, 576, 4), (2, 576, 0)):
        assert lap.product(np.ones(shape)).shape == shape


def test_matching_weight_rejects_node_ids_outside_the_graph():
    g = Graph.from_edges(5, [(1, 2, 3.0), (0, 4, 1.0)])
    assert Matching(pairs=[(2, 1), (4, 0)]).weight(g) == 4.0
    # (0, 7) shares the key 0 * 5 + 7 = 1 * 5 + 2 with the edge (1, 2)
    for pair in ((0, 7), (-1, 2), (4, 5)):
        with pytest.raises(PartitionError, match="matching uses absent edge"):
            Matching(pairs=[pair]).weight(g)


def test_model_on_a_large_edge_graph_holds_no_dense_matrix():
    g = knn_grid_graph(64, 64)
    cfg = STUNetConfig(k=3, p=2, s=2, hidden_sizes=(32, 32, 32), j=12, h=3, seed=0)
    tracemalloc.start()
    try:
        model = build(cfg, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8  # one 4,096 x 4,096 float64 array: 134 MB
    assert model.laps[0].ell is not None and model.laps[0]._dense is None
