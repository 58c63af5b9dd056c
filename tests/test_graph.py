"""Graph container, Laplacians, eigensolver, and Chebyshev convolution."""

import numpy as np
import pytest

from conftest import check_gradients, leaf, path_graph, random_graph, track_bases
from stunet import tensor as T
from stunet.data import knn_grid_graph
from stunet.errors import DimensionError, GraphError, NumericError, UsageError
from stunet.graph import (
    ChebKernel,
    Graph,
    GraphLaplacian,
    SpectralDecomposition,
    cheb_basis,
    cheb_conv,
    cheb_matmul,
    estimate_lambda_max,
    jacobi_eigh,
    kernel_matrix,
    normalized_laplacian,
    spectral_conv_oracle,
)
from stunet.tensor import Tensor


def setup_function(_):
    T.reset_tape()


def test_graph_rejects_bad_matrices():
    with pytest.raises(GraphError):
        Graph(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(GraphError):
        Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(GraphError):
        Graph(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_graph_from_edges_merges_by_max():
    g = Graph.from_edges(3, [(0, 1, 2.0), (1, 0, 5.0), (1, 2, 1.0)])
    assert g.weights[0, 1] == 5.0
    assert g.edges() == [(0, 1, 5.0), (1, 2, 1.0)]
    assert np.array_equal(g.degrees(), [5.0, 6.0, 1.0])


def test_graph_from_edges_rejects_out_of_range_endpoints():
    # a negative index must not wrap around to node n-1
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, -1, 1.0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 5, 1.0)])


@pytest.mark.parametrize("edge, fault", [
    ((0, 1, np.nan), "non-finite or negative weight"),
    ((0, 1, -2.0), "non-finite or negative weight"),
    ((0, 1.5, 1.0), "non-integral node id"),
    ((2, 2, 1.0), "self loop"),
])
def test_graph_from_edges_rejects_bad_edges_by_name(edge, fault):
    with pytest.raises(GraphError, match=rf"edge \({edge[0]}.*has an? {fault}"):
        Graph.from_edges(3, [edge, (1, 2, 1.0)])


def test_graph_from_edges_takes_an_edge_array():
    edges = [(0, 1, 2.0), (1, 0, 5.0), (1, 2, 1.0), (2, 1, 0.0), (0, 2, -0.0)]
    g = Graph.from_edges(3, np.array(edges))
    assert g.weights.tobytes() == Graph.from_edges(3, edges).weights.tobytes()
    assert g.weights.tolist() == [[0.0, 5.0, 0.0], [5.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert not np.signbit(g.weights).any()
    assert Graph.from_edges(2, []).weights.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_graph_symmetry_policy():
    w = np.array([[0.0, 1.0], [1.0 + 4e-9, 0.0]])
    assert Graph(w).weights[0, 1] == 0.5 * (1.0 + (1.0 + 4e-9))  # averaged
    sym = np.array([[0.0, 2.0], [2.0, 0.0]])
    g = Graph(sym)
    sym[0, 1] = 5.0  # the graph keeps its own edges, not the caller's matrix
    assert g.weights[0, 1] == 2.0
    with pytest.raises(GraphError, match="asymmetric by 2.000e-08"):
        Graph(np.array([[0.0, 1.0], [1.0 + 2e-8, 0.0]]))
    with pytest.raises(GraphError, match="non-finite"):
        Graph(np.array([[0.0, np.inf], [np.inf, 0.0]]))


@pytest.mark.parametrize("build", ["dense", "edges"])
def test_graph_owns_its_edges(build):
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.5], [0.0, 2.5, 0.0]])
    g = Graph(w) if build == "dense" else Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.5)])
    w_before, edges_before = g.weights, [a.copy() for a in g.edge_arrays()]
    w[0, 1] = w[1, 0] = 5.0  # the caller edits the matrix it passed in
    g.weights[1, 2] = 7.0  # a caller writes into a returned matrix
    assert np.array_equal(g.weights, w_before)
    assert all(np.array_equal(a, b) for a, b in zip(g.edge_arrays(), edges_before))


@pytest.mark.parametrize("build", ["dense", "edges", "coarse"])
def test_graph_edge_arrays_are_read_only(build):
    from stunet.partition import multilevel_partition

    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.5], [0.0, 2.5, 0.0]])
    if build == "coarse":  # built from checked arrays, as coarsening does
        g = multilevel_partition(knn_grid_graph(2, 2), 1).graphs[1]
    else:
        g = Graph(w) if build == "dense" else Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.5)])
    degrees = g.degrees().copy()
    for a in g.edge_arrays():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5
    assert np.array_equal(g.degrees(), degrees)
    # so every off-diagonal Laplacian entry stays in [-1, 0]
    off = normalized_laplacian(g).lap[~np.eye(g.n, dtype=bool)]
    assert np.all((-1.0 <= off) & (off <= 0.0))


def test_graph_overflowing_gap_is_an_asymmetry():
    with np.errstate(over="raise"):
        with pytest.raises(GraphError, match="asymmetric by inf"):
            Graph(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_graph_averages_only_the_pairs_that_differ():
    w = np.array([[0.0, 1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.000000001, 0.0]])
    with np.errstate(over="raise"):
        got = Graph(w).weights
    assert np.isfinite(got).all()
    assert got[0, 1] == got[1, 0] == 1.7e308
    assert got[2, 3] == got[3, 2] == 0.5 * (1.0 + 1.000000001)
    assert w[3, 2] == 1.000000001  # the caller's matrix is not changed


def test_graph_edges_lexicographic_from_dense():
    g = random_graph(np.random.default_rng(13), 9)
    expect = [
        (i, j, float(g.weights[i, j]))
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if g.weights[i, j] > 0
    ]
    got = g.edges()
    assert got == expect
    assert all(type(v) is t for e in got for v, t in zip(e, (int, int, float)))


def test_single_edge_laplacian_hand_value():
    lap = normalized_laplacian(path_graph(2))
    assert np.allclose(lap.lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
    vals, _ = jacobi_eigh(lap.lap)
    assert np.allclose(sorted(vals), [0.0, 2.0], atol=1e-12)
    assert abs(lap.lambda_max - 2.0) < 1e-6
    # rescaled form 2L/lambda - I
    assert np.allclose(lap.rescaled, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-6)


def test_isolated_node_gets_identity_row():
    g = Graph.from_edges(3, [(0, 1, 1.0)])
    lap = normalized_laplacian(g)
    assert np.allclose(lap.lap[2], [0.0, 0.0, 1.0], atol=1e-12)


def test_jacobi_against_numpy_oracle():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9, 16):
        m = rng.normal(size=(n, n))
        sym = (m + m.T) / 2
        vals, vecs = jacobi_eigh(sym)
        assert np.allclose(np.sort(vals), np.linalg.eigvalsh(sym), atol=1e-8)
        # eigenpairs satisfy A v = lambda v and vecs are orthonormal
        assert np.allclose(sym @ vecs, vecs * vals, atol=1e-8)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)


def test_jacobi_rejects_oversize_and_nonsquare():
    with pytest.raises(UsageError):
        jacobi_eigh(np.zeros((65, 65)))
    with pytest.raises(UsageError):
        jacobi_eigh(np.zeros((3, 4)))


def test_lambda_max_matches_dense_eigensolver():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 10)))
        lap = normalized_laplacian(g)
        exact = float(np.max(np.linalg.eigvalsh(lap.lap)))
        est = estimate_lambda_max(lap.lap)
        assert abs(est - exact) < 1e-5


def test_spectral_decomposition_reconstructs():
    g = random_graph(np.random.default_rng(2), 6)
    lap = normalized_laplacian(g)
    dec = SpectralDecomposition.of(lap.lap)
    recon = dec.eigvecs @ np.diag(dec.eigvals) @ dec.eigvecs.T
    assert np.allclose(recon, lap.lap, atol=1e-9)


def test_cheb_conv_order_one_is_dense_projection():
    g = path_graph(3)
    lap = normalized_laplacian(g)
    theta = np.random.default_rng(3).normal(size=(1, 2, 2))
    kern = ChebKernel(theta=Tensor(theta, requires_grad=True))
    x = np.random.default_rng(4).normal(size=(3, 2))
    out = cheb_conv(kern, lap, Tensor(x))
    assert np.allclose(out.data, x @ theta[0].T, atol=1e-12)


def test_cheb_conv_matches_explicit_recursion():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 6)
    lap = normalized_laplacian(g)
    k, c_in, c_out = 4, 3, 2
    theta = rng.normal(size=(k, c_out, c_in))
    x = rng.normal(size=(6, c_in))

    basis = [x, lap.rescaled @ x]
    for _ in range(2, k):
        basis.append(2.0 * lap.rescaled @ basis[-1] - basis[-2])
    expect = sum(basis[i] @ theta[i].T for i in range(k))

    out = cheb_conv(ChebKernel(theta=Tensor(theta)), lap, Tensor(x))
    assert np.allclose(out.data, expect, atol=1e-10)


def test_cheb_conv_matches_spectral_oracle():
    rng = np.random.default_rng(6)
    for trial in range(8):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n)
        lap = normalized_laplacian(g)
        k = int(rng.integers(1, 5))
        kern = ChebKernel(theta=Tensor(rng.normal(size=(k, 2, 3))))
        x = rng.normal(size=(n, 3))
        got = cheb_conv(kern, lap, Tensor(x)).data
        want = spectral_conv_oracle(
            kern, SpectralDecomposition.of(lap.lap), lap.lambda_max, x
        )
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() / scale < 1e-8


def test_cheb_conv_batched_matches_loop():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 5)
    lap = normalized_laplacian(g)
    kern = ChebKernel.init(rng, k=3, c_in=2, c_out=4)
    xb = rng.normal(size=(6, 5, 2))
    got = cheb_conv(kern, lap, Tensor(xb)).data
    for b in range(6):
        one = cheb_conv(kern, lap, Tensor(xb[b])).data
        assert np.allclose(got[b], one, atol=1e-12)


def test_cheb_basis_shape_and_order():
    g = path_graph(4)
    lap = normalized_laplacian(g)
    x = Tensor(np.eye(4)[:, :2].copy())
    basis = cheb_basis(lap, x, 3)
    assert basis.shape == (4, 6)
    # order zero block is x itself
    assert np.array_equal(basis.data[:, :2], x.data)


def test_kernel_matrix_folding_layout():
    theta = np.arange(12.0).reshape(2, 3, 2)  # (K, C_out, C_in)
    kern = ChebKernel(theta=Tensor(theta))
    mat = kernel_matrix(kern).data
    assert mat.shape == (4, 3)
    # row k*C_in + c_in must hold theta[k, :, c_in]
    assert np.array_equal(mat[0], theta[0, :, 0])
    assert np.array_equal(mat[3], theta[1, :, 1])


def test_cheb_kernel_init_deterministic():
    a = ChebKernel.init(np.random.default_rng(11), k=3, c_in=2, c_out=4)
    b = ChebKernel.init(np.random.default_rng(11), k=3, c_in=2, c_out=4)
    assert np.array_equal(a.theta.data, b.theta.data)
    assert a.theta.shape == (3, 4, 2)


def test_cheb_conv_gradients():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 5)
    lap = normalized_laplacian(g)
    kern = ChebKernel.init(rng, k=3, c_in=2, c_out=2)
    x = leaf((5, 2), seed=12)

    check_gradients(
        lambda: T._reduce_sum(T.tanh(cheb_conv(kern, lap, x))),
        [kern.theta, x],
        rel_tol=1e-5,
    )


def test_laplacian_cache_reuses_tensor():
    lap = normalized_laplacian(path_graph(3))
    assert lap.rescaled_tensor() is lap.rescaled_tensor()


def test_rescaled_tensor_is_built_on_first_use():
    lap = normalized_laplacian(path_graph(3))
    assert lap._rescaled_tensor is None
    assert np.array_equal(lap.rescaled_tensor().data, lap.rescaled)


def dense_basis(lap, x, order):
    """The recursion with explicit dense products, as the reference."""
    terms = [x]
    if order > 1:
        terms.append(lap.rescaled @ x)
    for _ in range(2, order):
        terms.append(2.0 * lap.rescaled @ terms[-1] - terms[-2])
    return np.concatenate(terms, axis=-1)


def complete_graph(n):
    return Graph(np.ones((n, n)) - np.eye(n))


def hub_graph(n, spokes):
    """Path over n nodes plus one hub joined to `spokes` extra nodes, so one
    row is much wider than the rest."""
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    edges += [(0, j, 0.5) for j in range(2, 2 + spokes)]
    return Graph.from_edges(n, edges)


def test_operator_choice_follows_row_width():
    assert normalized_laplacian(knn_grid_graph(10, 10)).ell is not None
    assert normalized_laplacian(complete_graph(12)).ell is None
    assert normalized_laplacian(knn_grid_graph(8, 8)).ell is None


@pytest.mark.parametrize(
    "g", [knn_grid_graph(10, 10), complete_graph(12)], ids=["ell", "dense"]
)
def test_cheb_basis_matches_dense_recursion(g):
    lap = normalized_laplacian(g)
    x = np.random.default_rng(14).normal(size=(3, g.n, 4))
    for order in (1, 2, 3, 5):
        got = cheb_basis(lap, Tensor(x), order).data
        assert got.shape == (3, g.n, 4 * order)
        assert np.abs(got - dense_basis(lap, x, order)).max() < 1e-12


def test_wide_row_sparse_operator_matches_dense():
    g = hub_graph(400, 20)  # widest row 22 slots: sparse, gathered in 3 chunks
    lap = normalized_laplacian(g)
    assert lap.ell is not None and lap.ell[0].shape[1] == 22
    x = np.random.default_rng(15).normal(size=(2, g.n, 3))
    assert np.abs(lap.product(x) - lap.rescaled @ x).max() < 1e-12
    got = cheb_basis(lap, Tensor(x), 4).data
    assert np.abs(got - dense_basis(lap, x, 4)).max() < 1e-12


def test_cheb_conv_gradients_sparse_operator():
    rng = np.random.default_rng(16)
    lap = normalized_laplacian(knn_grid_graph(10, 10))
    assert lap.ell is not None
    kern = ChebKernel.init(rng, k=4, c_in=2, c_out=2)
    x = leaf((2, 100, 2), seed=17)

    check_gradients(
        lambda: T._reduce_sum(T.tanh(cheb_conv(kern, lap, x))),
        [kern.theta, x],
        rel_tol=1e-5,
    )


def test_cheb_basis_pullback_is_transposed_recursion():
    lap = normalized_laplacian(hub_graph(400, 20))
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(2, 400, 3)), requires_grad=True)
    g = rng.normal(size=(2, 400, 12))
    basis = cheb_basis(lap, x, 4)
    got = T.backward(T._reduce_sum(T.mul_const(basis, g)))
    # d<g, B(x)>/dx = sum_k T_k(L~)^T g_k, with T_k(L~) as dense matrices
    r = lap.rescaled
    polys = [np.eye(400), r]
    for _ in range(2, 4):
        polys.append(2.0 * r @ polys[-1] - polys[-2])
    want = sum(polys[k].T @ g[..., 3 * k : 3 * k + 3] for k in range(4))
    assert np.abs(got[x] - want).max() < 1e-12


def test_cheb_basis_batched_rows_bit_identical_sparse_operator():
    lap = normalized_laplacian(knn_grid_graph(10, 10))
    assert lap.ell is not None
    # 40 channels: the batch spans more than one gather block
    xb = np.random.default_rng(19).normal(size=(5, 100, 40))
    got = cheb_basis(lap, Tensor(xb), 3).data
    for b in range(5):
        assert np.array_equal(got[b], cheb_basis(lap, Tensor(xb[b]), 3).data)


@pytest.mark.parametrize("side", [6, 12], ids=["dense", "ell"])
def test_cheb_matmul_is_basis_then_matmul_bit_for_bit(side):
    lap = normalized_laplacian(knn_grid_graph(side, side))
    assert (lap.ell is not None) == (side == 12)
    rng = np.random.default_rng(21)
    for order in (1, 2, 3, 4):
        xd = rng.normal(size=(3, 2, lap.n, 5))
        wd = rng.normal(size=(order * 5, 7))
        g = rng.normal(size=(3, 2, lap.n, 7))
        runs = []
        for fused in (True, False):
            x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
            y = (cheb_matmul(lap, x, w, order) if fused
                 else T.matmul(cheb_basis(lap, x, order), w))
            dx, dw = T.grads(T._reduce_sum(T.mul_const(y, g)), [x, w])
            runs.append([a.tobytes() for a in (y.data, dx, dw)])
        assert runs[0] == runs[1], order


@pytest.mark.parametrize("side", [3, 12], ids=["dense", "ell"])
def test_cheb_matmul_gradients(side):
    lap = normalized_laplacian(knn_grid_graph(side, side))
    x = leaf((2, lap.n, 2), seed=22)
    w = leaf((3 * 2, 3), seed=23)
    check_gradients(
        lambda: T._reduce_sum(T.tanh(cheb_matmul(lap, x, w, 3))), [w, x], rel_tol=1e-5
    )


def test_cheb_matmul_computes_no_gradient_for_a_constant_signal(monkeypatch):
    lap = normalized_laplacian(knn_grid_graph(12, 12))
    calls = []
    transpose = GraphLaplacian.basis_transpose
    monkeypatch.setattr(GraphLaplacian, "basis_transpose",
                        lambda *a: calls.append(1) or transpose(*a))
    rng = np.random.default_rng(24)
    w = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
    for x_grad, want in ((False, 0), (True, 1)):
        calls.clear()
        x = Tensor(rng.normal(size=(lap.n, 3)), requires_grad=x_grad)
        got = T.backward(T._reduce_sum(cheb_matmul(lap, x, w, 3)))
        assert len(calls) == want and (x in got) == x_grad and w in got


def test_a_recorded_cheb_matmul_keeps_no_basis(monkeypatch):
    lap = normalized_laplacian(knn_grid_graph(12, 12))
    refs = track_bases(monkeypatch)
    rng = np.random.default_rng(25)
    x = Tensor(rng.normal(size=(2, lap.n, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(12, 4)), requires_grad=True)
    y = cheb_matmul(lap, x, w, 4)
    assert len(refs) == 1 and refs[0]() is None and y.tape_id is not None
    T.backward(T._reduce_sum(y))  # the pullback builds its own basis
    assert len(refs) == 2


def test_cheb_matmul_overflowing_basis_is_a_numeric_error():
    lap = normalized_laplacian(knn_grid_graph(12, 12))
    x = Tensor(np.full((lap.n, 2), 1e308))
    w = Tensor(np.full((6, 2), 1e-10), requires_grad=True)
    # T_2 overflows; the finite blocks times w would give a finite output,
    # so only the output check seeing the basis's inf can raise
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(cheb_matmul(lap, x, Tensor(w.data[:4]), 2).data).all()
        with pytest.raises(NumericError, match="cheb_matmul"):
            cheb_matmul(lap, x, w, 3)


def test_cheb_matmul_checks_order_and_kernel_shape():
    lap = normalized_laplacian(path_graph(4))
    x = Tensor(np.ones((4, 2)))
    with pytest.raises(UsageError, match="order must be >= 1"):
        cheb_matmul(lap, x, Tensor(np.ones((2, 3))), 0)
    with pytest.raises(DimensionError, match=r"2 signal channels at order 3 need a kernel of 6 rows, got \(4, 3\)"):
        cheb_matmul(lap, x, Tensor(np.ones((4, 3))), 3)
    # a signal with no node axis, or the wrong node count
    for bad in (np.ones(2), np.ones((3, 2))):
        with pytest.raises(DimensionError, match=r"has no \(\.\.\., 4, C\) node axis"):
            cheb_matmul(lap, Tensor(bad), Tensor(np.ones((6, 3))), 3)


def test_lambda_max_equals_eigvalsh():
    graphs = [knn_grid_graph(24, 24)]
    rng = np.random.default_rng(20)
    graphs += [random_graph(rng, int(rng.integers(2, 40))) for _ in range(10)]
    for g in graphs:
        lap = normalized_laplacian(g)
        assert abs(lap.lambda_max - np.linalg.eigvalsh(lap.lap)[-1]) < 1e-10
        if g.n <= 64:  # independent route: the Jacobi oracle
            assert abs(lap.lambda_max - jacobi_eigh(lap.lap)[0][-1]) < 1e-9
