"""Autodiff core: op values, pullbacks vs finite differences, Adam, clipping."""

import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import check_gradients, leaf
from stunet import tensor as T
from stunet.errors import DimensionError, NumericError, PartitionError, UsageError
from stunet.tensor import AdamState, Tensor, adam_step, clip_global_norm


def setup_function(_):
    T.reset_tape()


def test_hadamard_hand_value():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    assert np.array_equal(T.hadamard(a, b).data, [3.0, 8.0])


def test_add_sub_scale_hand_values():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 5.0])
    assert np.array_equal(T.add(a, b).data, [4.0, 7.0])
    assert np.array_equal(T.sub(a, b).data, [-2.0, -3.0])
    assert np.array_equal(T.scale(a, 2.5).data, [2.5, 5.0])


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        T.add(Tensor([1.0]), Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):
        T.hadamard(Tensor([1.0]), Tensor([[1.0]]))


def test_sigmoid_tanh_values():
    x = Tensor([0.0, 100.0, -100.0])
    s = T.sigmoid(x).data
    assert s[0] == 0.5
    assert 0.0 <= s[2] < 1e-30 and 1.0 - s[1] < 1e-30
    assert T.tanh(Tensor([0.0])).data[0] == 0.0
    sym = T.sigmoid(Tensor([-1.7])).data[0] + T.sigmoid(Tensor([1.7])).data[0]
    assert abs(sym - 1.0) < 1e-15


def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_batched_matches_per_item():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3, 5, 2))
    b = rng.normal(size=(2, 6))
    out = T.matmul(Tensor(a), Tensor(b)).data
    assert out.shape == (4, 3, 5, 6)
    assert np.allclose(out, a @ b, atol=1e-12)


def test_select_and_stack_are_inverses():
    x = np.arange(24.0).reshape(4, 3, 2)
    t = Tensor(x)
    steps = [T.select_step(t, i) for i in range(4)]
    back = T.stack_steps(steps)
    assert np.array_equal(back.data, x)


def test_gather_rows_value():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = T.gather_rows(x, np.array([2, 0, 0]))
    assert np.array_equal(out.data, [[5.0, 6.0], [1.0, 2.0], [1.0, 2.0]])


def test_segment_reduce_hand_values():
    x = Tensor([[1.0], [3.0], [2.0], [6.0]])
    seg = np.array([0, 0, 1, 1])
    assert np.array_equal(T.segment_reduce(x, seg, "mean").data, [[2.0], [4.0]])
    assert np.array_equal(T.segment_reduce(x, seg, "max").data, [[3.0], [6.0]])
    with pytest.raises(UsageError):
        T.segment_reduce(x, seg, "median")


def test_segment_reduce_batched_axis():
    x = Tensor(np.arange(16.0).reshape(2, 4, 2))
    seg = np.array([0, 0, 1, 1])
    out = T.segment_reduce(x, seg, "mean")
    assert out.shape == (2, 2, 2)
    assert np.array_equal(out.data[0, 0], [1.0, 2.0])


def test_layer_norm_hand_value():
    # population variance of [1, 3] is 1; epsilon 1e-5 shrinks the unit output
    gain = Tensor(np.ones(2))
    bias = Tensor(np.zeros(2))
    out = T.layer_norm(Tensor([[1.0, 3.0]]), gain, bias).data[0]
    expect = 1.0 / np.sqrt(1.0 + 1e-5)
    assert abs(out[0] + expect) < 1e-12
    assert abs(out[1] - expect) < 1e-12


def test_add_bias_broadcasts_last_axis():
    x = Tensor(np.zeros((2, 3, 2)))
    b = Tensor([1.0, -1.0])
    out = T.add_bias(x, b).data
    assert np.array_equal(out[1, 2], [1.0, -1.0])


def test_reductions_and_abs():
    x = Tensor([[1.0, -2.0], [3.0, -4.0]])
    assert T._reduce_sum(x).item() == -2.0
    assert T._reduce_mean(x).item() == -0.5
    assert np.array_equal(T._abs(x).data, [[1.0, 2.0], [3.0, 4.0]])


def test_finite_guard_raises():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        T.add(big, big)


def test_a_non_finite_forward_names_its_op():
    big = Tensor(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="^scale: .*non-finite"):
            T.scale(big, 10.0)
        with pytest.raises(NumericError, match="^matmul: .*non-finite"):
            T.matmul(big, Tensor(np.full((2, 3), 10.0)))


def test_no_grad_suppresses_recording():
    with T.no_grad():
        a = leaf([1.0, 2.0])
        out = T.hadamard(a, a)
    assert len(T.tape()) == 0
    T.reset_tape()
    out = T.hadamard(leaf([1.0, 2.0]), leaf([1.0, 2.0]))
    assert len(T.tape()) > 0


def test_backward_accumulates_on_reused_leaf():
    a = leaf([2.0])
    out = T._reduce_sum(T.hadamard(a, a))  # d/da a^2 = 2a
    assert abs(T.backward(out)[a][0] - 4.0) < 1e-12


def test_gradients_elementwise_ops():
    a = leaf((3, 2), seed=1)
    b = leaf((3, 2), seed=2)

    for build in (
        lambda: T._reduce_sum(T.hadamard(T.add(a, b), T.sub(a, b))),
        lambda: T._reduce_mean(T.hadamard(T.sigmoid(a), T.tanh(b))),
        lambda: T._reduce_sum(T.scale(T.hadamard(a, b), 1.7)),
        lambda: T._reduce_sum(T._abs(T.add(a, b))),
    ):
        check_gradients(build, [a, b], rel_tol=1e-6)


def test_gradient_mul_const():
    a = leaf((2, 3), seed=3)
    mask = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, 0.0]])
    check_gradients(
        lambda: T._reduce_sum(T.mul_const(T.tanh(a), mask)), [a], rel_tol=1e-6
    )


def test_gradient_matmul_plain_and_batched():
    a = leaf((4, 3), seed=4)
    b = leaf((3, 2), seed=5)
    check_gradients(lambda: T._reduce_sum(T.matmul(a, b)), [a, b], rel_tol=1e-6)

    a3 = leaf((2, 4, 3), seed=6)
    check_gradients(
        lambda: T._reduce_mean(T.tanh(T.matmul(a3, b))), [a3, b], rel_tol=1e-6
    )


def test_gradient_structural_ops():
    x = leaf((3, 4, 2), seed=7)
    idx = np.array([2, 2, 0, 1])
    seg = np.array([0, 1, 1, 0])
    gain = leaf(np.ones(2))
    bias = leaf(np.zeros(2))

    check_gradients(lambda: T._reduce_sum(T.select_step(x, 1)), [x], rel_tol=1e-6)
    check_gradients(
        lambda: T._reduce_sum(
            T.stack_steps([T.select_step(x, 2), T.select_step(x, 0)])
        ),
        [x],
        rel_tol=1e-6,
    )
    check_gradients(lambda: T._reduce_sum(T.gather_rows(x, idx)), [x], rel_tol=1e-6)
    check_gradients(
        lambda: T._reduce_sum(T.segment_reduce(x, seg, "mean")), [x], rel_tol=1e-6
    )
    check_gradients(
        lambda: T._reduce_sum(T.segment_reduce(x, seg, "max")), [x], rel_tol=1e-6
    )
    check_gradients(
        lambda: T._reduce_sum(T.layer_norm(x, gain, bias)),
        [x, gain, bias],
        rel_tol=1e-5,
    )
    check_gradients(lambda: T._reduce_sum(T.add_bias(x, bias)), [x, bias], rel_tol=1e-6)
    check_gradients(
        lambda: T._reduce_sum(T.concat_channels(T.tanh(x), x)), [x], rel_tol=1e-6
    )


def test_concat_channels_keeps_operand_order():
    # the U model's skip join: decoder-path channels first, encoder channels last
    up = Tensor(np.ones((4, 2)))
    enc = Tensor(np.full((4, 3), 7.0))
    out = T.concat_channels(up, enc)
    assert out.shape == (4, 5)
    assert np.array_equal(out.data[:, 2:], enc.data)
    with pytest.raises(DimensionError):
        T.concat_channels(up, Tensor(np.ones((3, 3))))


def test_a_join_refuses_an_out_of_another_shape():
    # ``out`` is the joined array itself, so one of another shape is an error
    # that names the join's shape, never returned as the join
    a, b = Tensor(np.ones((4, 2))), Tensor(np.ones((4, 3)))
    with pytest.raises(DimensionError, match=r"^concat_channels: .*\(4, 5\)"):
        T.concat_channels(a, b, out=np.zeros((4, 9)))
    with pytest.raises(DimensionError, match=r"^concat_steps: .*\(6, 2\)"):
        T.concat_steps([Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))], out=np.zeros((5, 2)))


@pytest.mark.parametrize("op, call", [
    ("stack_steps", lambda x: T.stack_steps([x, T.select_step(x, slice(0, 3))])),
    ("mul_const", lambda x: T.mul_const(x, np.ones(4))),
    ("select_step", lambda x: T.select_step(x, 1.5)),
    ("gather_rows", lambda x: T.gather_rows(x, np.array([0, 4]))),
    ("gather_rows", lambda x: T.gather_rows(x, np.array([[0, 1]]))),
    ("gather_rows", lambda x: T.gather_rows(x, np.array([-1]))),  # never read from the end
], ids=["stack_unequal", "mul_const_no_broadcast", "select_float", "gather_past_n",
        "gather_2d_index", "gather_negative"])
def test_bad_arguments_to_public_ops_raise_dimension_errors_naming_the_op(op, call):
    with pytest.raises(DimensionError, match=f"^{op}: "):
        call(Tensor(np.ones((4, 3))))


def _channel_join(shape, c):
    """A (..., c + extra) join array and its left-hand channels as a view."""
    join = np.full(shape, np.nan)
    return join, join[..., :c]


def test_gather_rows_into_a_view_has_the_bytes_of_a_new_array(monkeypatch):
    # blocks of leading rows: one, several (with a short last block), and
    # one block per row; a new array and a view are filled by the same blocks,
    # so both are checked against np.take
    rng = np.random.default_rng(51)
    index = np.array([3, 0, 3, 1, 2])
    x = Tensor(rng.normal(size=(7, 4, 3)), requires_grad=True)
    g = rng.normal(size=(7, 5, 3))
    want = np.take(x.data, index, axis=-2)
    want_grad = np.zeros(x.shape)
    np.add.at(want_grad, (slice(None), index), g)
    for elems in (1 << 16, 40, 1):
        monkeypatch.setattr(T, "_GATHER_ELEMS", elems)
        join, view = _channel_join((7, 5, 5), 3)
        grads = []
        for out in (None, view):
            y = T.gather_rows(x, index, out)
            assert y.data.tobytes() == want.tobytes()
            grads.append(T.backward(T._reduce_sum(T.mul_const(y, g)))[x])
        assert y.data is view and np.shares_memory(y.data, join)
        assert np.isnan(join[..., 3:]).all()  # the other channels stay untouched
        assert grads[0].tobytes() == grads[1].tobytes()
        assert np.allclose(grads[0], want_grad, rtol=0, atol=1e-12)
    with pytest.raises(DimensionError):
        T.gather_rows(x, index, np.empty((7, 4, 3)))
    with pytest.raises(DimensionError):  # its rows are no view of it: a gather would be lost
        T.gather_rows(x, index, np.empty((7, 8, 3))[:, :5])


def test_a_join_built_in_place_equals_concat_channels():
    # the skip moves into the right-hand channels, a gather writes the
    # left-hand ones, and the join records the parts where they already are
    rng = np.random.default_rng(53)
    up_d, skip_d = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 2))
    g = rng.normal(size=(2, 4, 5))
    index = np.array([1, 1, 0, 3])

    def run(in_place):
        T.reset_tape()
        leaves = [Tensor(up_d, requires_grad=True), Tensor(skip_d, requires_grad=True)]
        skip = T.tanh(leaves[1])
        if in_place:
            join = np.empty((2, 4, 5))
            T.move_into(skip, join[..., 3:])
            assert np.shares_memory(skip.data, join)
            y = T.concat_channels(T.gather_rows(leaves[0], index, join[..., :3]), skip, out=join)
            assert y.data is join
        else:
            y = T.concat_channels(T.gather_rows(leaves[0], index), skip)
        return y.data.tobytes(), T.grads(T._reduce_sum(T.mul_const(y, g)), leaves)

    want, want_grads = run(False)
    got, got_grads = run(True)
    assert got == want
    assert [v.tobytes() for v in got_grads] == [v.tobytes() for v in want_grads]
    with pytest.raises(DimensionError):
        T.move_into(Tensor(skip_d), np.empty((2, 4, 3)))


def test_glorot_from_is_seeded_and_scaled():
    a = T.glorot_from(np.random.default_rng(9), (40, 30))
    b = T.glorot_from(np.random.default_rng(9), (40, 30))
    assert np.array_equal(a.data, b.data)
    bound = np.sqrt(6.0 / (40 + 30))
    assert np.abs(a.data).max() <= bound
    assert a.requires_grad


def test_adam_first_step_magnitude():
    # with m_hat = g and v_hat = g^2 the first update is lr*g/(|g|+eps)
    p = leaf([0.0])
    state = AdamState.for_params([p], lr=0.1)
    adam_step([p], [np.array([1.0])], state)
    assert abs(p.data[0] + 0.1 * 1.0 / (1.0 + 1e-8)) < 1e-15
    assert state.step == 1


def test_adam_two_steps_match_reference_recurrence():
    p = leaf([0.3])
    state = AdamState.for_params([p], lr=0.05)
    grads = [np.array([0.8]), np.array([-0.4])]

    ref = 0.3
    m = v = 0.0
    for k, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g[0]
        v = 0.999 * v + 0.001 * g[0] ** 2
        m_hat = m / (1 - 0.9**k)
        v_hat = v / (1 - 0.999**k)
        ref -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step([p], [g], state)
    assert abs(p.data[0] - ref) < 1e-12


def test_adam_shape_mismatch_rejected():
    p = leaf([0.0, 0.0])
    state = AdamState.for_params([p], lr=0.1)
    with pytest.raises(DimensionError):
        adam_step([p], [np.zeros(3)], state)


def test_clip_global_norm_scales_and_passes_through():
    grads = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]  # global norm 5
    out = clip_global_norm(grads, 2.5)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in out))
    assert abs(total - 2.5) < 1e-12
    assert np.allclose(out[0], [1.5, 0.0])

    small = [np.array([0.1]), np.array([0.2])]
    kept = clip_global_norm(small, 5.0)
    assert np.array_equal(kept[0], small[0]) and np.array_equal(kept[1], small[1])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_backward_keeps_no_op_output_gradient():
    a = leaf([0.3, -1.2])
    b = leaf([2.0, 0.5])
    h = T.tanh(T.hadamard(a, b))
    got = T.backward(T._reduce_sum(h))
    assert set(got) == {a, b}
    d = 1.0 - np.tanh(a.data * b.data) ** 2
    assert _same_bits(got[a], d * b.data)
    assert _same_bits(got[b], d * a.data)


def test_sigmoid_matches_tanh_identity_bit_for_bit():
    rng = np.random.default_rng(21)
    extremes = [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, -745.2]
    xd = np.concatenate([rng.normal(scale=8.0, size=4000), extremes])
    got = T.sigmoid(Tensor(xd)).data
    assert _same_bits(got, 0.5 * np.tanh(xd * 0.5) + 0.5)
    # the former overflow-safe two-branch kernel stays the reference to a rounding
    t = np.exp(-np.abs(xd))
    two_branch = np.where(xd >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    assert np.abs(got - two_branch).max() <= 2.3e-16
    assert got.min() >= 0.0 and got.max() <= 1.0


def test_sigmoid_array_in_place_matches_sigmoid_op():
    xd = np.random.default_rng(23).normal(scale=16.0, size=(3, 5, 4))
    xd.flat[:4] = [1e308, -1e308, -40.0, 0.0]
    buf = xd.copy()
    assert T.sigmoid_array(buf, out=buf) is buf
    assert _same_bits(buf, T.sigmoid(Tensor(xd)).data)
    assert buf.min() >= 0.0 and buf.max() <= 1.0


def test_member_table_pads_rows_with_first_member():
    table, counts = T.member_table(np.array([2, 0, 1, 0, 2, 3, 0]), 7)
    assert table.tolist() == [[1, 3, 6], [2, 2, 2], [0, 4, 0], [5, 5, 5]]
    assert counts.tolist() == [3, 1, 2, 1]


def test_member_table_rejects_bad_maps():
    with pytest.raises(DimensionError):
        T.member_table(np.array([0, 1]), 3)
    with pytest.raises(PartitionError):
        T.member_table(np.array([0, 2]), 2, n_super=2)
    with pytest.raises(PartitionError):
        T.member_table(np.array([0, -1]), 2)
    with pytest.raises(PartitionError):
        T.member_table(np.array([0, 2]), 2)  # supernode 1 is empty
    with pytest.raises(DimensionError):
        T.segment_reduce(Tensor(np.zeros((3, 1))), np.array([0, 1]), "max")


def _segment_reduce_oracle(xd, segments, mode, g):
    """Per-segment loop reference: (forward value, pullback of g)."""
    n_seg = int(segments.max()) + 1
    members = [np.flatnonzero(segments == s) for s in range(n_seg)]
    z = np.zeros_like(xd)
    if mode == "mean":
        out = np.stack([xd[..., idx, :].mean(axis=-2) for idx in members], axis=-2)
        for s, idx in enumerate(members):
            z[..., idx, :] += g[..., s : s + 1, :] / idx.size
        return out, z
    out = np.stack([xd[..., idx, :].max(axis=-2) for idx in members], axis=-2)
    for s, idx in enumerate(members):
        sub = xd[..., idx, :]
        am = np.argmax(sub, axis=-2)
        block = np.zeros_like(sub)
        np.put_along_axis(block, am[..., None, :], g[..., s : s + 1, :], axis=-2)
        z[..., idx, :] += block
    return out, z


@pytest.mark.parametrize("mode", ["mean", "max"])
def test_segment_reduce_matches_loop_reference(mode):
    rng = np.random.default_rng(22)
    # unequal segments up to width 3, with singletons
    for segments in (
        np.array([2, 0, 1, 0, 2, 3, 0, 1, 4]),
        np.array([0, 1, 2, 3]),
        rng.permutation(np.repeat(np.arange(12), rng.integers(1, 4, size=12))),
    ):
        n = segments.size
        for shape in ((n, 3), (2, 3, n, 4), (n, 1)):
            # few distinct values, so max has ties; signed zeros included
            xd = rng.integers(-2, 3, size=shape) * 0.5
            xd[xd == 0] *= rng.choice([-1.0, 1.0], size=int((xd == 0).sum()))
            T.reset_tape()
            x = Tensor(xd, requires_grad=True)
            y = T.segment_reduce(x, segments, mode)
            g = rng.normal(size=y.shape)
            got = T.backward(T._reduce_sum(T.mul_const(y, g)))
            want_out, want_grad = _segment_reduce_oracle(xd, segments, mode, g)
            assert _same_bits(y.data, want_out)
            assert _same_bits(got[x], want_grad)


def test_matmul_rejects_non_matrix_right_operand():
    a = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        T.matmul(a, Tensor(np.ones((2, 4, 5))))
    with pytest.raises(DimensionError):
        T.matmul(a, Tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        T.matmul(a, Tensor(np.ones((3, 5))))


def test_backward_rejects_a_loss_missing_from_the_tape():
    x = leaf((3,), seed=1)
    stale = T._reduce_sum(T.tanh(x))
    T.reset_tape()
    with pytest.raises(UsageError):
        T.backward(stale)
    # a later recording reuses the stale loss's tape slot for another tensor
    T._reduce_sum(T.tanh(x))
    with pytest.raises(UsageError):
        T.backward(stale)


def test_select_step_slices_and_concat_steps_rejoin_blocks():
    x = np.arange(30.0).reshape(5, 3, 2)
    t = Tensor(x)
    blocks = [T.select_step(t, slice(lo, lo + 2)) for lo in range(0, 5, 2)]
    assert [b.shape[0] for b in blocks] == [2, 2, 1]
    assert np.array_equal(T.concat_steps(blocks).data, x)
    with pytest.raises(DimensionError):
        T.select_step(t, slice(5, 7))
    with pytest.raises(DimensionError):
        T.concat_steps([blocks[0], T.select_step(Tensor(np.ones((2, 3, 1))), slice(0, 1))])
    with pytest.raises(DimensionError):
        T.concat_steps([])

    v = leaf((5, 3, 2), seed=8)
    check_gradients(
        lambda: T._reduce_sum(T.tanh(T.concat_steps(
            [T.select_step(v, slice(3, 5)), T.select_step(v, slice(0, 2))]
        ))),
        [v],
        rel_tol=1e-6,
    )


def test_gather_rows_backward_matches_add_at():
    rng = np.random.default_rng(23)
    # repeated indices; source rows 1 and 5 are never gathered
    index = np.array([4, 0, 4, 2, 0, 4, 3])
    for shape in ((6, 3), (2, 3, 6, 4), (6, 1)):
        T.reset_tape()
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        y = T.gather_rows(x, index)
        # magnitudes far apart, so the summation order shows in the bits;
        # signed zeros included
        g = rng.normal(size=y.shape) * 10.0 ** rng.integers(-8, 9, size=y.shape)
        g[rng.random(size=y.shape) < 0.2] = 0.0
        g[g == 0] *= rng.choice([-1.0, 1.0], size=int((g == 0).sum()))
        got = T.backward(T._reduce_sum(T.mul_const(y, g)))
        want = np.zeros_like(x.data)
        np.add.at(np.moveaxis(want, -2, 0), index, np.moveaxis(g, -2, 0))
        assert _same_bits(got[x], want)


def test_partial_gradients_never_write_into_a_shared_buffer():
    # add hands one array to both parents; a later partial (select_step)
    # gradient for u must not leak into v's gradient through that array
    x = Tensor(np.array([[0.3, -0.2], [0.5, 0.1]]), requires_grad=True)
    x2 = Tensor(np.array([[-0.4, 0.2], [0.6, -0.7]]), requires_grad=True)
    u, v = T.tanh(x), T.tanh(x2)
    first = T.select_step(u, 0)
    loss = T.add(T._reduce_sum(T.add(u, v)), T._reduce_sum(first))
    got = T.backward(loss)
    du = 1.0 - np.tanh(x.data) ** 2
    assert np.array_equal(got[x], du * np.array([[2.0], [1.0]]))
    assert np.array_equal(got[x2], 1.0 - np.tanh(x2.data) ** 2)


def test_partial_gradients_accumulate_with_dense_ones():
    x = leaf((5, 3, 2), seed=9)
    check_gradients(
        lambda: T._reduce_sum(T.hadamard(
            T.tanh(x),
            T.stack_steps([T.select_step(x, t % 2) for t in range(5)]),
        )),
        [x],
        rel_tol=1e-6,
    )


def in_thread(fn):
    """fn() run on a new thread: its result, or the exception it raised."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except Exception as exc:  # re-raised on the calling thread
            out["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_a_new_thread_starts_with_an_empty_tape():
    x = leaf((3,), seed=1)
    T._reduce_sum(T.tanh(x))
    assert len(T.tape()) == 2
    assert in_thread(lambda: len(T.tape())) == 0


def test_no_grad_turns_recording_off_for_its_own_thread_alone():
    # two no_grad blocks on two threads that overlap and exit first-in first:
    # with one process-wide flag the second exit restored the first's "off",
    # and every thread stopped recording for good
    x = leaf((3,), seed=1)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with T.no_grad():
            a_in.set()
            b_in.wait(60)
            seen["a"] = T.tanh(x).requires_grad
        a_out.set()

    def second():
        a_in.wait(60)
        with T.no_grad():
            b_in.set()
            a_out.wait(60)
            seen["b"] = T.tanh(x).requires_grad
        seen["b after"] = T._GRAD_ENABLED

    workers = [threading.Thread(target=first), threading.Thread(target=second)]
    for worker in workers:
        worker.start()
    a_in.wait(60)
    seen["main during"] = T.tanh(x).requires_grad  # inside the first block's window
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert seen == {"a": False, "b": False, "b after": True, "main during": True}
    assert T._GRAD_ENABLED
    loss = T._reduce_sum(T.tanh(x))
    assert np.array_equal(T.grads(loss, [x])[0], 1.0 - np.tanh(x.data) ** 2)


def test_recording_in_another_thread_leaves_this_tape_unchanged():
    x = leaf((3,), seed=1)
    y = T.tanh(x)
    mine = T.tape()
    before = list(mine.nodes)

    def record():
        loss = T._reduce_sum(T.tanh(x))
        return len(T.tape()), loss.tape_id, T.tape() is mine

    assert in_thread(record) == (2, 1, False)
    assert len(T.tape()) == len(before)
    assert all(a is b for a, b in zip(T.tape().nodes, before))
    assert y.tape_id == 0


@pytest.mark.parametrize("take", ("backward", "grads"))
def test_a_loss_recorded_in_another_thread_is_a_usage_error(take):
    x = leaf((3,), seed=1)
    run = {"backward": T.backward, "grads": lambda loss: T.grads(loss, [x])}[take]
    loss = in_thread(lambda: T._reduce_sum(T.tanh(T.tanh(x))))  # tape id 2 there
    assert loss.tape_id == 2
    with pytest.raises(UsageError, match="this thread's tape"):
        run(loss)  # this tape is empty: the id lies past its end
    T._reduce_sum(T.tanh(T.tanh(x)))  # this tape's node 2 is another tensor
    with pytest.raises(UsageError, match="this thread's tape"):
        run(loss)


def test_grads_returns_what_backward_accumulates_and_writes_no_grad():
    x, w, unused = leaf((4, 3), seed=1), leaf((3, 2), seed=2), leaf((2,), seed=3)
    record = lambda: T._reduce_sum(T.tanh(T.add(T.matmul(x, w), T.matmul(x, w))))
    got = T.grads(record(), [x, w, unused])
    back = T.backward(record())  # grads consumed the first tape
    assert set(back) == {x, w}
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, [back[x], back[w]]))
    assert np.array_equal(got[2], np.zeros(2))
    assert back[x] is not got[0] and back[w] is not got[1]


def test_threads_take_grads_through_shared_parameters_at_once():
    w = leaf((6, 6), seed=4)
    inputs = [np.random.default_rng(s).normal(size=(40, 6)) for s in range(4)]

    def grad_of(xd):
        T.reset_tape()
        h = Tensor(xd)
        for _ in range(20):
            h = T.tanh(T.matmul(h, w))
        return T.grads(T._reduce_sum(h), [w])[0]

    alone = [grad_of(xd) for xd in inputs]
    from concurrent.futures import ThreadPoolExecutor

    # more threads than CPUs, switching every microsecond: a gradient written
    # into shared state would show as changed bytes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            together = list(pool.map(grad_of, inputs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(alone, together))


@pytest.mark.parametrize("take", ("backward", "grads"))
def test_backward_consumes_the_tape(take):
    x = leaf((3,), seed=1)
    run = {"backward": T.backward, "grads": lambda loss: T.grads(loss, [x])}[take]
    loss = T._reduce_sum(T.tanh(T.tanh(x)))
    T.tanh(x)  # recorded after the loss: consumed with it
    run(loss)
    assert len(T.tape()) == 0
    for again in (T.backward, lambda loss: T.grads(loss, [x])):
        with pytest.raises(UsageError, match="this thread's tape"):
            again(loss)


def test_a_parent_from_a_reset_tape_is_a_usage_error():
    # the parent of a (tape id 0) was dropped; on the new tape, id 0 is the
    # first scale(w, 1.0), so a's gradient (3) used to go to that node
    w = leaf([2.0])
    a = T.scale(w, 3.0)
    T.reset_tape()
    b = T.hadamard(T.scale(w, 1.0), T.scale(w, 1.0))
    with pytest.raises(UsageError, match="^add: "):
        T.add(a, b)
    T.reset_tape()
    a = T.scale(w, 3.0)  # recorded on the tape it is used on: d/dw (3w + w^2) = 7
    loss = T._reduce_sum(T.add(a, T.hadamard(T.scale(w, 1.0), T.scale(w, 1.0))))
    assert T.backward(loss)[w][0] == 7.0


def test_a_parent_from_a_consumed_tape_is_a_usage_error():
    w = leaf([2.0])
    a = T.scale(w, 3.0)
    T.backward(T._reduce_sum(a))
    T.scale(w, 1.0)  # tape id 0 again, another tensor
    with pytest.raises(UsageError, match="^hadamard: "):
        T.hadamard(a, a)


def test_a_parent_from_another_threads_tape_is_a_usage_error():
    w = leaf((3,), seed=1)
    a = in_thread(lambda: T.tanh(T.tanh(w)))  # tape id 1 there
    with pytest.raises(UsageError, match="^scale: "):
        T.scale(a, 2.0)  # this tape is empty: the id lies past its end
    T.tanh(T.tanh(w))  # this tape's node 1 is another tensor
    with pytest.raises(UsageError, match="^tanh: "):
        T.tanh(a)
    with T.no_grad():  # nothing is recorded, so the tensor is a plain input
        assert np.array_equal(T.scale(a, 2.0).data, 2.0 * a.data)


def test_the_tape_keeps_no_op_output():
    x = leaf((4, 3), seed=1)
    y = T.select_step(T.tanh(x), slice(0, 3))
    loss = T._reduce_mean(y)
    ref_y = weakref.ref(y.data)  # a view of tanh's output, which tanh's pullback reads
    del y
    assert ref_y() is None  # neither the tape nor select_step's or mean's pullback holds it
    assert set(T.backward(loss)) == {x}
