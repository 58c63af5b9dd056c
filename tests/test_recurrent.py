"""Gated graph-convolutional recurrence, dilation, and the seq2seq decoder."""

import math

import numpy as np
import pytest

from conftest import check_gradients, leaf, path_graph, random_graph
from stunet import tensor as T
from stunet.data import knn_grid_graph
from stunet.errors import DimensionError, ModelError, NumericError, UsageError
from stunet.graph import ChebKernel, GraphLaplacian, cheb_basis, kernel_matrix, normalized_laplacian
from stunet.recurrent import (
    FoldedCell,
    GCGRUState,
    GCGRUWeights,
    decode,
    dilated_layer_forward,
    encode,
    gcgru_cell,
    init_gcgru_weights,
    scheduled_sampling_prob,
    teacher_steps,
)
from stunet.tensor import Tensor


def setup_function(_):
    T.reset_tape()


def make_weights(seed, k=2, d_x=2, d_h=3, layer_norm=False):
    return init_gcgru_weights(np.random.default_rng(seed), k, d_x, d_h, layer_norm)


def test_scheduled_sampling_schedule():
    assert scheduled_sampling_prob(0, 1000.0) == 1000.0 / 1001.0
    assert scheduled_sampling_prob(0, 1.0) == 1.0 / (1.0 + 1.0)
    assert scheduled_sampling_prob(100000, 1000.0) < 1e-10
    assert scheduled_sampling_prob(5, 0.0) == 0.0
    probs = [scheduled_sampling_prob(i, 50.0) for i in range(0, 2000, 100)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_scheduled_sampling_is_zero_where_the_decay_overflows():
    assert scheduled_sampling_prob(710, 1.0) == 0.0  # exp(710) overflows a float
    for tau in (0.5, 1.0, 3.0, 100.0, 1000.0):
        probs = []
        for i in (0, 1, 7, 100, 709, 710, 2000, 70979, 70980, 709783, 709784, 10**7):
            try:
                want = tau / (tau + math.exp(i / tau))
            except OverflowError:
                want = 0.0
            probs.append(scheduled_sampling_prob(i, tau))
            assert probs[-1] == want, (i, tau)
        assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_dilation_schedule_validation():
    rng = np.random.default_rng(15)
    lap = normalized_laplacian(path_graph(4))
    layers = [init_gcgru_weights(rng, 2, 2, 3), init_gcgru_weights(rng, 2, 3, 3)]
    seq = Tensor(rng.normal(size=(5, 4, 2)))
    assert [y.shape for y in encode(layers, [lap, lap], seq, [1, 2])] == [(5, 4, 3)] * 2
    with pytest.raises(UsageError):
        encode([], [], seq, [])
    with pytest.raises(UsageError):
        encode(layers, [lap, lap], seq, [2, 4])
    with pytest.raises(UsageError):
        encode(layers, [lap, lap], seq, [1, 0])
    with pytest.raises(ModelError):
        encode(layers, [lap, lap], seq, [1, 2, 4])


def test_init_shapes_and_param_order():
    w = make_weights(0, k=3, d_x=2, d_h=4)
    assert w.order == 3 and w.d_x == 2 and w.d_h == 4
    assert w.w_z.theta.shape == (3, 4, 2)
    assert w.u_h.theta.shape == (3, 4, 4)
    assert len(w.params()) == 9
    wn = make_weights(0, layer_norm=True)
    assert len(wn.params()) == 11
    names = ["w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h"]
    assert [n for n, _ in w.named_params()] == names
    assert [n for n, _ in wn.named_params()] == names + ["ln_gain", "ln_bias"]
    assert all(t is u for (_, t), u in zip(wn.named_params(), wn.params()))
    assert wn.params()[0] is wn.w_z.theta and wn.params()[-1] is wn.ln_bias
    assert np.array_equal(wn.ln_gain.data, np.ones(3))


def test_weights_reject_inconsistent_kernels():
    w = make_weights(1)
    rng = np.random.default_rng(2)
    with pytest.raises(ModelError):
        GCGRUWeights(
            w.w_z, w.w_r, w.w_h,
            ChebKernel.init(rng, 3, 3, 3),  # wrong order
            w.u_r, w.u_h, w.b_z, w.b_r, w.b_h,
        )


def test_zero_weight_cell_halves_previous_state():
    # all-zero parameters: z = sigmoid(0) = 1/2, candidate = tanh(0) = 0,
    # so the update returns exactly h_prev / 2
    rng = np.random.default_rng(3)
    w = make_weights(3, k=2, d_x=2, d_h=3)
    for p in w.params():
        p.data[...] = 0.0
    lap = normalized_laplacian(path_graph(4))
    x = Tensor(rng.normal(size=(4, 2)))
    h_prev = Tensor(rng.normal(size=(4, 3)))
    out = gcgru_cell(w, lap, x, h_prev)
    assert np.array_equal(out.data, 0.5 * h_prev.data)


def test_cell_matches_scalar_reference():
    # single isolated node with K=1: every graph convolution collapses to a
    # plain scalar product, so the gate equations can be replayed with floats
    from stunet.graph import Graph

    lap = normalized_laplacian(Graph(np.zeros((1, 1))))
    rng = np.random.default_rng(4)
    w = init_gcgru_weights(rng, k=1, d_x=1, d_h=1)
    wz = float(w.w_z.theta.data[0, 0, 0])
    wr = float(w.w_r.theta.data[0, 0, 0])
    wh = float(w.w_h.theta.data[0, 0, 0])
    uz = float(w.u_z.theta.data[0, 0, 0])
    ur = float(w.u_r.theta.data[0, 0, 0])
    uh = float(w.u_h.theta.data[0, 0, 0])
    w.b_z.data[...] = 0.3
    w.b_r.data[...] = -0.2
    w.b_h.data[...] = 0.1

    x_val, h_val = 0.7, -0.4
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = sig(wz * x_val + uz * h_val + 0.3)
    r = sig(wr * x_val + ur * h_val - 0.2)
    cand = math.tanh(wh * x_val + uh * (r * h_val) + 0.1)
    expect = z * h_val + (1.0 - z) * cand

    out = gcgru_cell(w, lap, Tensor([[x_val]]), Tensor([[h_val]]))
    assert abs(out.data[0, 0] - expect) <= 1e-12


def test_dilation_one_equals_vanilla_scan():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 5)
    lap = normalized_laplacian(g)
    w = make_weights(6)
    seq = Tensor(rng.normal(size=(7, 5, 2)))

    fast = dilated_layer_forward(w, lap, seq, 1)

    h = Tensor(np.zeros((5, 3)))
    outs = []
    for t in range(7):
        h = gcgru_cell(w, lap, T.select_step(seq, t), h)
        outs.append(h)
    manual = T.stack_steps(outs)
    assert np.array_equal(fast.data, manual.data)  # bit-identical


def test_dilation_two_skips_odd_history():
    # with s=2, h_2 = cell(x_2, h_0) never reads x_1
    rng = np.random.default_rng(7)
    g = random_graph(rng, 4)
    lap = normalized_laplacian(g)
    w = make_weights(8)
    base = rng.normal(size=(4, 4, 2))
    bumped = base.copy()
    bumped[1] += 10.0

    out_a = dilated_layer_forward(w, lap, Tensor(base), 2).data
    out_b = dilated_layer_forward(w, lap, Tensor(bumped), 2).data
    assert np.array_equal(out_a[2], out_b[2])
    assert not np.allclose(out_a[1], out_b[1])
    assert np.array_equal(out_a[0], out_b[0])


def test_dilated_layer_rejects_bad_args():
    rng = np.random.default_rng(9)
    lap = normalized_laplacian(path_graph(3))
    w = make_weights(10, d_x=2, d_h=3)
    seq = Tensor(rng.normal(size=(4, 3, 2)))
    with pytest.raises(UsageError):
        dilated_layer_forward(w, lap, seq, 0)
    with pytest.raises(DimensionError):
        gcgru_cell(w, lap, Tensor(rng.normal(size=(3, 5))), Tensor(np.zeros((3, 3))))


def test_layer_norm_cell_centers_output():
    w = make_weights(11, layer_norm=True)
    lap = normalized_laplacian(path_graph(4))
    rng = np.random.default_rng(12)
    out = gcgru_cell(w, lap, Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=(4, 3))))
    means = out.data.mean(axis=-1)
    assert np.abs(means).max() < 1e-12


def test_encode_pools_between_layers():
    from stunet.partition import multilevel_partition

    rng = np.random.default_rng(13)
    g = random_graph(rng, 8, density=0.7)
    pm = multilevel_partition(g, 1)
    laps = [normalized_laplacian(gr) for gr in pm.graphs]
    layers = [
        init_gcgru_weights(rng, 2, 2, 3),
        init_gcgru_weights(rng, 2, 3, 4),
    ]
    seq = Tensor(rng.normal(size=(5, 8, 2)))
    outputs = encode(
        layers, laps, seq, [1, 2], pm=pm, pool_levels=1
    )
    assert outputs[0].shape == (5, 8, 3)
    assert outputs[1].shape == (5, pm.graphs[1].n, 4)


def test_encode_without_partition_rejects_pooling():
    rng = np.random.default_rng(14)
    lap = normalized_laplacian(path_graph(4))
    layers = [init_gcgru_weights(rng, 2, 2, 3)]
    seq = Tensor(rng.normal(size=(3, 4, 2)))
    with pytest.raises(ModelError):
        encode(layers, [lap], seq, [1], pool_levels=1)


def decoder_fixture(seed):
    rng = np.random.default_rng(seed)
    lap = normalized_laplacian(path_graph(4))
    w = init_gcgru_weights(rng, 2, 2, 2)
    readout_k = ChebKernel.init(rng, 2, 2, 2)
    from stunet.graph import cheb_conv

    readout = lambda h: cheb_conv(readout_k, lap, h)
    init = GCGRUState(Tensor(rng.normal(size=(4, 2))))
    go = Tensor(np.zeros((4, 2)))
    targets = Tensor(rng.normal(size=(3, 4, 2)))
    return lap, w, readout, init, go, targets


def test_decode_shapes_and_determinism():
    lap, w, readout, init, go, targets = decoder_fixture(15)
    a = decode(w, lap, init, 3, go, readout)
    b = decode(w, lap, init, 3, go, readout)
    assert a.shape == (3, 4, 2)
    assert np.array_equal(a.data, b.data)


def test_decode_teacher_forcing_changes_later_steps():
    lap, w, readout, init, go, targets = decoder_fixture(16)
    free = decode(w, lap, init, 3, go, readout)
    forced = decode(
        w, lap, init, 3, go, readout,
        targets=targets, teacher=teacher_steps(1.0, 3, np.random.default_rng(0)),
    )
    # the first step sees the same inputs either way
    assert np.array_equal(free.data[0], forced.data[0])
    assert not np.allclose(free.data[1:], forced.data[1:])


def test_decode_sampling_requires_targets_and_rng():
    lap, w, readout, init, go, targets = decoder_fixture(17)
    with pytest.raises(UsageError):
        decode(w, lap, init, 2, go, readout, teacher=(True,))
    with pytest.raises(UsageError):
        teacher_steps(0.5, 2, None)
    with pytest.raises(UsageError):
        decode(w, lap, init, 0, go, readout)


def test_cell_gradients():
    rng = np.random.default_rng(18)
    g = random_graph(rng, 4)
    lap = normalized_laplacian(g)
    w = make_weights(19, k=2, d_x=2, d_h=2, layer_norm=True)
    x = leaf((3, 4, 2), seed=20)

    def build():
        seq = dilated_layer_forward(w, lap, x, 2)
        return T._reduce_mean(T.hadamard(seq, seq))

    check_gradients(build, w.params() + [x], rel_tol=1e-5, max_checks=3)


def _per_step_layer(w, lap, inputs, s):
    """Reference dilated layer: one cell step per time step, reading the
    output of step t-s (the zero state before step s)."""
    zero = Tensor(np.zeros(inputs.shape[1:-1] + (w.d_h,)))
    outputs = []
    for t in range(inputs.shape[0]):
        h_prev = outputs[t - s] if t - s >= 0 else zero
        outputs.append(gcgru_cell(w, lap, T.select_step(inputs, t), h_prev))
    return T.stack_steps(outputs)


@pytest.mark.parametrize("operator", ["dense", "ell"])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_block_scan_matches_per_step_loop(operator, batch):
    g = path_graph(6) if operator == "dense" else knn_grid_graph(10, 10)
    lap = normalized_laplacian(g)
    assert (lap.ell is None) == (operator == "dense")
    w = make_weights(11, layer_norm=True)
    rng = np.random.default_rng(12)
    for s in (1, 2, 3, 4):
        for j in range(1, 14):
            x = Tensor(rng.normal(size=(j,) + batch + (g.n, 2)), requires_grad=True)
            leaves = [x] + w.params()
            runs = []
            for layer in (dilated_layer_forward, _per_step_layer):
                T.reset_tape()
                y = layer(w, lap, x, s)
                runs.append((y.data, T.grads(T._reduce_sum(T.tanh(y)), leaves)))
            (y_scan, g_scan), (y_ref, g_ref) = runs
            assert np.array_equal(y_scan, y_ref), (s, j)
            for a, b in zip(g_scan, g_ref):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (s, j)


def test_block_scan_steps_once_per_block(monkeypatch):
    calls = []
    step = FoldedCell.step
    monkeypatch.setattr(
        FoldedCell, "step", lambda self, *a: calls.append(1) or step(self, *a)
    )
    lap = normalized_laplacian(path_graph(4))
    w = make_weights(13)
    rng = np.random.default_rng(14)
    with T.no_grad():
        for s in (1, 2, 3, 4):
            for j in range(1, 14):
                calls.clear()
                dilated_layer_forward(w, lap, Tensor(rng.normal(size=(j, 4, 2))), s)
                assert len(calls) == math.ceil(j / s)


def test_zero_start_state_gets_no_gradient(monkeypatch):
    # one block (s >= steps) starts from the zero state: its backward runs one
    # Clenshaw recursion, for the input's basis, and none for the reset gate or
    # for a state gradient nothing reads
    calls = []
    transpose = GraphLaplacian.basis_transpose
    monkeypatch.setattr(
        GraphLaplacian, "basis_transpose",
        lambda self, *a: calls.append(1) or transpose(self, *a),
    )
    lap = normalized_laplacian(path_graph(4))
    x = leaf((2, 4, 2), seed=15)
    got = T.backward(T._reduce_sum(dilated_layer_forward(make_weights(16), lap, x, 2)))
    assert len(calls) == 1
    assert got[x].shape == x.shape


def test_a_zero_state_block_takes_a_basis_of_its_input_alone(monkeypatch):
    # the input side is one basis per chunk; every block after the first
    # takes two of its state (B(h_prev) and B(r * h_prev)), the first none
    widths = []
    basis = GraphLaplacian.basis
    monkeypatch.setattr(
        GraphLaplacian, "basis",
        lambda self, v, k: widths.append(v.shape[-1]) or basis(self, v, k),
    )
    lap = normalized_laplacian(path_graph(4))
    w = make_weights(31, d_x=2, d_h=3)
    rng = np.random.default_rng(32)
    for s in (1, 2, 3, 4):
        for j in range(1, 10):
            widths.clear()
            x = Tensor(rng.normal(size=(j, 2, 4, 2)), requires_grad=True)
            dilated_layer_forward(w, lap, x, s)
            assert widths == [2] + [3] * (2 * (math.ceil(j / s) - 1)), (s, j)


def test_a_recorded_step_keeps_no_full_basis_of_its_state(monkeypatch):
    # the pullbacks keep blocks 1..K-1 of B(h_prev) and B(r * h_prev), never
    # the whole basis, whose block 0 repeats h_prev or r * h_prev
    import weakref

    refs = []
    basis = GraphLaplacian.basis

    def keep(self, v, k):
        out = basis(self, v, k)
        if v.shape[-1] == 3:  # the state's width; the input has 2 channels
            refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(GraphLaplacian, "basis", keep)
    lap = normalized_laplacian(knn_grid_graph(3, 4))
    w = make_weights(33, k=3, d_x=2, d_h=3, layer_norm=True)
    x = Tensor(np.random.default_rng(34).normal(size=(7, 2, 12, 2)), requires_grad=True)
    y = dilated_layer_forward(w, lap, x, 2)
    assert len(T.tape()) > 0 and len(refs) == 2 * 3
    assert all(ref() is None for ref in refs)
    got = T.backward(T._reduce_sum(T.tanh(y)))
    assert got[x].shape == x.shape


def _zero_started_scan(w, lap, inputs, s):
    """The block scan of dilated_layer_forward, with its first block started
    from an explicit zeros tensor: every step computes its state's bases."""
    cell = FoldedCell(w)
    steps = inputs.shape[0]
    out = np.empty(inputs.shape[:-1] + (w.d_h,))
    xw = cell.input_side(lap, inputs)
    h = Tensor(np.zeros(out[:s].shape))
    blocks = []
    for lo in range(0, steps, s):
        hi = min(lo + s, steps)
        if hi - lo < h.shape[0]:
            h = T.select_step(h, slice(0, hi - lo))
        h = cell.step(lap, xw, h, slice(lo, hi), out[lo:hi], lo)
        blocks.append(h)
    return T.concat_steps(blocks, out)


@pytest.mark.parametrize("operator", ["dense", "ell"])
@pytest.mark.parametrize("layer_norm", [False, True])
def test_no_start_state_equals_an_explicit_zero_state_bytes(operator, layer_norm):
    g = path_graph(6) if operator == "dense" else knn_grid_graph(10, 10)
    lap = normalized_laplacian(g)
    w = make_weights(35, k=3, layer_norm=layer_norm)
    rng = np.random.default_rng(36)
    _randomize_biases(w, rng)
    for s in (1, 2, 3, 4):
        for j in (1, s, s + 1, 2 * s + 1, 9):
            x = Tensor(rng.normal(size=(j, 2, g.n, 2)), requires_grad=True)
            leaves = [x] + w.params()
            y, grads = _outputs_and_grads(lambda: dilated_layer_forward(w, lap, x, s), leaves)
            y_ref, g_ref = _outputs_and_grads(lambda: _zero_started_scan(w, lap, x, s), leaves)
            assert y.tobytes() == y_ref.tobytes(), (s, j)
            for a, b in zip(grads, g_ref):
                assert a.tobytes() == b.tobytes(), (s, j)


def _composite_step(w, mats, lap, x_t, h_prev):
    """The cell step as 23 separate ops (3 bases, 6 products, 4 adds, 3 bias
    adds, 2 sigmoids, a tanh, 2 Hadamards, a sub and the layer norm): the
    reference for the fused op."""
    mwz, mwr, mwh, muz, mur, muh = mats
    bx = cheb_basis(lap, x_t, w.order)
    bh = cheb_basis(lap, h_prev, w.order)
    z = T.sigmoid(T.add_bias(T.add(T.matmul(bx, mwz), T.matmul(bh, muz)), w.b_z))
    r = T.sigmoid(T.add_bias(T.add(T.matmul(bx, mwr), T.matmul(bh, mur)), w.b_r))
    br = cheb_basis(lap, T.hadamard(r, h_prev), w.order)
    cand = T.tanh(T.add_bias(T.add(T.matmul(bx, mwh), T.matmul(br, muh)), w.b_h))
    h = T.add(cand, T.hadamard(z, T.sub(h_prev, cand)))
    if w.ln_gain is not None:
        h = T.layer_norm(h, w.ln_gain, w.ln_bias)
    return h


def _fold_composite(w):
    return [kernel_matrix(k) for k in (w.w_z, w.w_r, w.w_h, w.u_z, w.u_r, w.u_h)]


def _composite_layer(w, lap, inputs, s):
    """Reference dilated layer: the composite step once per time step, reading
    the output of step t-s (the zero state before step s)."""
    mats = _fold_composite(w)
    zero = Tensor(np.zeros(inputs.shape[1:-1] + (w.d_h,)))
    outputs = []
    for t in range(inputs.shape[0]):
        h_prev = outputs[t - s] if t - s >= 0 else zero
        outputs.append(_composite_step(w, mats, lap, T.select_step(inputs, t), h_prev))
    return T.stack_steps(outputs)


def _randomize_biases(w, rng):
    # zero biases would hide a change in the order of the pre-activation sum
    extra = [] if w.ln_gain is None else [w.ln_gain, w.ln_bias]
    for p in [w.b_z, w.b_r, w.b_h] + extra:
        p.data[...] = rng.normal(size=p.shape)


def _outputs_and_grads(run, leaves):
    T.reset_tape()
    y = run()
    return y.data, T.grads(T._reduce_sum(T.tanh(y)), leaves)


@pytest.mark.parametrize("operator", ["dense", "ell"])
@pytest.mark.parametrize("layer_norm", [False, True])
def test_fused_step_matches_composite_step(operator, layer_norm):
    g = path_graph(6) if operator == "dense" else knn_grid_graph(10, 10)
    lap = normalized_laplacian(g)
    assert (lap.ell is None) == (operator == "dense")
    w = make_weights(21, layer_norm=layer_norm)
    rng = np.random.default_rng(22)
    _randomize_biases(w, rng)
    for s in (1, 2, 3, 4):
        for j in (1, s, s + 1, 2 * s + 1, 9):
            x = Tensor(rng.normal(size=(j, 2, g.n, 2)), requires_grad=True)
            leaves = [x] + w.params()
            y_fused, g_fused = _outputs_and_grads(
                lambda: dilated_layer_forward(w, lap, x, s), leaves
            )
            y_ref, g_ref = _outputs_and_grads(lambda: _composite_layer(w, lap, x, s), leaves)
            assert y_fused.tobytes() == y_ref.tobytes(), (s, j)
            for a, b in zip(g_fused, g_ref):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (s, j)


def test_decoder_matches_composite_step():
    lap, w, readout, init, go, targets = decoder_fixture(23)
    _randomize_biases(w, np.random.default_rng(24))

    def composite():
        mats, h, x, preds = _fold_composite(w), init.h, go, []
        for _ in range(3):
            h = _composite_step(w, mats, lap, x, h)
            x = readout(h)
            preds.append(x)
        return T.stack_steps(preds)

    y_fused, g_fused = _outputs_and_grads(
        lambda: decode(w, lap, init, 3, go, readout), w.params()
    )
    y_ref, g_ref = _outputs_and_grads(composite, w.params())
    assert y_fused.tobytes() == y_ref.tobytes()
    for a, b in zip(g_fused, g_ref):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize(
    "kernel, gate", [("u_z", "update/reset gate"), ("u_h", "candidate")]
)
def test_non_finite_gate_names_gate_and_block_start(kernel, gate):
    w = make_weights(25, layer_norm=True)
    # layer norm with gain 2 puts a state entry of magnitude >= 2 in every
    # row, so a 1e308 coefficient on T_0 overflows as soon as the state is
    # nonzero, i.e. from the second block on; b_r = 50 makes r * h ~ h
    w.ln_gain.data[...] = 2.0
    w.b_r.data[...] = 50.0
    getattr(w, kernel).theta.data[0] = 1e308
    lap = normalized_laplacian(path_graph(5))
    x = Tensor(np.random.default_rng(26).normal(size=(6, 5, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"{gate} pre-activation .* time step 2$"):
            dilated_layer_forward(w, lap, x, 2)


def test_step_applies_gates_in_place_as_sigmoid_op(monkeypatch):
    calls = []
    sigmoid_array = T.sigmoid_array

    def spy(xd, out=None):
        pre = xd.copy()
        y = sigmoid_array(xd, out=out)
        calls.append((pre, out is xd and y is xd, y.copy()))
        return y

    monkeypatch.setattr(T, "sigmoid_array", spy)
    w = make_weights(27, layer_norm=True)
    _randomize_biases(w, np.random.default_rng(28))
    lap = normalized_laplacian(path_graph(5))
    x = Tensor(np.random.default_rng(29).normal(size=(6, 5, 2)))
    dilated_layer_forward(w, lap, x, 2)
    monkeypatch.undo()
    assert len(calls) == 3  # one per block
    for pre, in_place, y in calls:
        assert in_place
        assert y.tobytes() == T.sigmoid(Tensor(pre)).data.tobytes()
