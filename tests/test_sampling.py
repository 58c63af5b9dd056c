"""Spatial pooling over partitions and the three unpooling strategies."""

import contextlib

import numpy as np
import pytest

from conftest import check_gradients, cycle_graph, leaf, random_graph
from stunet import tensor as T
from stunet.errors import DimensionError, PartitionError, UsageError
from stunet.graph import Graph
from stunet.partition import PartitionMap, multilevel_partition
from stunet.sampling import (
    STRUCT_FEATURES,
    UNPOOL_MODES,
    UnpoolStrategy,
    g_pooling,
    init_unpool,
    st_pool_spatial,
    unpool,
)
from stunet.tensor import Tensor


def setup_function(_):
    T.reset_tape()


def square_pm():
    # 4-cycle: supernodes {0,1} and {2,3}
    return multilevel_partition(cycle_graph(4), 1)


def test_pool_hand_values():
    pm = square_pm()
    x = Tensor(np.array([[1.0], [3.0], [2.0], [6.0]]))
    assert np.array_equal(g_pooling(x, pm, "mean", 0, 1).data, [[2.0], [4.0]])
    assert np.array_equal(g_pooling(x, pm, "max", 0, 1).data, [[3.0], [6.0]])
    with pytest.raises(UsageError):
        g_pooling(x, pm, "sum", 0, 1)


def test_pool_rejects_wrong_node_count():
    pm = square_pm()
    with pytest.raises(DimensionError):
        g_pooling(Tensor(np.zeros((3, 1))), pm, "mean", 0, 1)
    with pytest.raises(UsageError):
        g_pooling(Tensor(np.zeros((4, 1))), pm, "mean", 1, 2)


def test_g_pooling_composes_levels():
    g = cycle_graph(8)
    pm = multilevel_partition(g, 2)
    x = Tensor(np.random.default_rng(0).normal(size=(8, 3)))
    direct = g_pooling(x, pm, "mean")
    stepped = g_pooling(g_pooling(x, pm, "mean", 0, 1), pm, "mean", 1, 2)
    assert np.array_equal(direct.data, stepped.data)
    assert direct.shape == (2, 3)


def test_st_pool_spatial_requires_sequence():
    pm = square_pm()
    seq = Tensor(np.zeros((5, 4, 2)))
    out = st_pool_spatial(seq, pm, "max")
    assert out.shape == (5, 2, 2)
    with pytest.raises(DimensionError):
        st_pool_spatial(Tensor(np.zeros((4, 2))), pm, "max")


def test_mean_pool_direct_copy_roundtrip_exact():
    rng = np.random.default_rng(1)
    for p in (1, 2):
        g = random_graph(rng, 11, density=0.6)
        pm = multilevel_partition(g, p)
        comp = pm.compose()
        values = rng.normal(size=(pm.graphs[-1].n, 3))
        x = Tensor(values[comp])  # constant within every coarsest supernode
        pooled = g_pooling(x, pm, "mean")
        back = unpool(pooled, pm, UnpoolStrategy(mode="direct_copy"))
        assert np.array_equal(back.data, x.data)  # exact, not approximate


def test_direct_copy_replicates_parent_rows():
    pm = square_pm()
    coarse = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = unpool(coarse, pm, UnpoolStrategy(mode="direct_copy"), 1, 0)
    assert np.array_equal(
        out.data, [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]
    )


def test_ordered_deconv_with_identity_slots_is_direct_copy():
    pm = square_pm()
    eye = np.eye(3)
    strat = UnpoolStrategy(
        mode="ordered_deconv",
        slot_w=[Tensor(eye.copy(), requires_grad=True) for _ in range(2)],
    )
    coarse = Tensor(np.random.default_rng(2).normal(size=(2, 3)))
    out = unpool(coarse, pm, strat, 1, 0)
    copy = unpool(coarse, pm, UnpoolStrategy(mode="direct_copy"), 1, 0)
    assert np.allclose(out.data, copy.data, atol=1e-15)


def test_ordered_deconv_slots_differentiate_members():
    pm = square_pm()
    rng = np.random.default_rng(3)
    strat = init_unpool(rng, "ordered_deconv", channels=3)
    coarse = Tensor(rng.normal(size=(2, 3)))
    out = unpool(coarse, pm, strat, 1, 0).data
    # the two members of one supernode see different linear maps
    assert not np.allclose(out[0], out[1])


def test_weighted_deconv_extends_ordered_output():
    pm = square_pm()
    rng = np.random.default_rng(4)
    base = init_unpool(rng, "weighted_deconv", channels=3)
    # mix matrix [I; 0] reduces the strategy to its ordered stage
    mix = np.zeros((6, 3))
    mix[:3, :3] = np.eye(3)
    strat = UnpoolStrategy(
        mode="weighted_deconv", slot_w=base.slot_w, mix_w=Tensor(mix, requires_grad=True)
    )
    ordered = UnpoolStrategy(mode="ordered_deconv", slot_w=base.slot_w)
    coarse = Tensor(rng.normal(size=(2, 3)))
    a = unpool(coarse, pm, strat, 1, 0).data
    b = unpool(coarse, pm, ordered, 1, 0).data
    assert np.allclose(a, b, atol=1e-12)


def test_init_unpool_shapes():
    rng = np.random.default_rng(5)
    none = init_unpool(rng, "direct_copy", 4)
    assert none.params() == []
    ordered = init_unpool(rng, "ordered_deconv", 4)
    assert [w.shape for w in ordered.params()] == [(4, 4), (4, 4)]
    weighted = init_unpool(rng, "weighted_deconv", 4)
    shapes = [w.shape for w in weighted.params()]
    assert shapes == [(4, 4), (4, 4), (7, 4)]
    with pytest.raises(UsageError):
        init_unpool(rng, "bilinear", 4)


def test_unpool_multi_level_restores_node_count():
    g = cycle_graph(8)
    pm = multilevel_partition(g, 2)
    rng = np.random.default_rng(6)
    coarse = Tensor(rng.normal(size=(2, 3)))
    for mode in UNPOOL_MODES:
        strat = init_unpool(rng, mode, 3)
        out = unpool(coarse, pm, strat)
        assert out.shape == (8, 3)


def test_unpool_batched_sequences():
    pm = square_pm()
    rng = np.random.default_rng(7)
    seq = Tensor(rng.normal(size=(5, 2, 2, 3)))  # (steps, batch, supernodes, C)
    strat = init_unpool(rng, "weighted_deconv", 3)
    out = unpool(seq, pm, strat)
    assert out.shape == (5, 2, 4, 3)


def test_pool_gradients():
    g = cycle_graph(8)
    pm = multilevel_partition(g, 2)
    x = leaf((8, 2), seed=8)
    for mode in ("mean", "max"):
        check_gradients(
            lambda mode=mode: T._reduce_sum(T.tanh(g_pooling(x, pm, mode))),
            [x],
            rel_tol=1e-5,
        )


def test_unpool_gradients_all_strategies():
    pm = square_pm()
    rng = np.random.default_rng(9)
    coarse = leaf((2, 3), seed=10)
    for mode in UNPOOL_MODES:
        strat = init_unpool(rng, mode, 3)
        params = [coarse] + strat.params()
        check_gradients(
            lambda strat=strat: T._reduce_sum(
                T.tanh(unpool(coarse, pm, strat))
            ),
            params,
            rel_tol=1e-5,
        )


def _one_level_reference(x, pm, level, strategy):
    """Every finer node through every slot matrix, masked to its own slot."""
    copied = T.gather_rows(x, pm.parents[level])
    if strategy.mode == "direct_copy":
        return copied
    lifted = None
    for r, w in enumerate(strategy.slot_w):
        mask = (pm.slots[level] == r).astype(np.float64)[:, None]
        term = T.mul_const(T.matmul(copied, w), mask)
        lifted = term if lifted is None else T.add(lifted, term)
    if strategy.mode == "ordered_deconv":
        return lifted
    wide = np.ascontiguousarray(
        np.broadcast_to(pm.member_stats[level], lifted.data.shape[:-1] + (STRUCT_FEATURES,))
    )
    return T.matmul(T.concat_channels(lifted, Tensor(wide)), strategy.mix_w)


def _one_level_unpool(x, pm, level, strategy):
    return unpool(x, pm, strategy, level + 1, level)


def _lift_with_grads(lift, xd, pm, level, strategy, g):
    T.reset_tape()
    x = Tensor(xd, requires_grad=True)
    y = lift(x, pm, level, strategy)
    return y.data, T.grads(T._reduce_sum(T.mul_const(y, g)), [x] + strategy.params())


@pytest.mark.parametrize("mode", UNPOOL_MODES)
def test_unpool_one_matches_slot_loop_reference(mode):
    rng = np.random.default_rng(26)
    singletons = 0
    for _ in range(4):
        pm = multilevel_partition(random_graph(rng, int(rng.integers(9, 16)), density=0.3), 3)
        singletons += sum(int((np.bincount(p) == 1).sum()) for p in pm.parents)
        for c in (1, 4):
            strategy = init_unpool(rng, mode, c)
            for lead in ((), (3,), (2, 3)):
                for level in range(pm.levels):
                    xd = rng.normal(size=lead + (pm.graphs[level + 1].n, c))
                    g = rng.normal(size=lead + (pm.graphs[level].n, c))
                    got, got_grads = _lift_with_grads(
                        _one_level_unpool, xd, pm, level, strategy, g
                    )
                    want, want_grads = _lift_with_grads(
                        _one_level_reference, xd, pm, level, strategy, g
                    )
                    assert got.tobytes() == want.tobytes()
                    for a, b in zip(got_grads, want_grads):
                        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    assert singletons > 0


@pytest.mark.parametrize("mode", UNPOOL_MODES)
@pytest.mark.parametrize("recorded", [True, False])
def test_unpool_into_a_join_equals_concat_of_unpool(mode, recorded):
    # the U model's skip join built in place: the skip moves into the
    # right-hand channels, the last unpool level writes the left-hand ones
    rng = np.random.default_rng(30)
    pm = multilevel_partition(random_graph(rng, 14, density=0.3), 2)
    strategy = init_unpool(rng, mode, 4)
    xd = rng.normal(size=(3, pm.graphs[2].n, 4))
    skip_d = rng.normal(size=(3, pm.graphs[0].n, 2))
    g = rng.normal(size=(3, pm.graphs[0].n, 6))

    def run(in_place):
        T.reset_tape()
        x, skip = Tensor(xd, requires_grad=True), Tensor(skip_d, requires_grad=True)
        params = [x, skip] + strategy.params()
        if in_place:
            join = np.empty((3, pm.graphs[0].n, 6))
            T.move_into(skip, join[..., 4:])
            up = unpool(x, pm, strategy, out=join[..., :4])
            assert np.shares_memory(up.data, join)
            y = T.concat_channels(up, skip, out=join)
        else:
            y = T.concat_channels(unpool(x, pm, strategy), skip)
        grads = T.grads(T._reduce_sum(T.mul_const(y, g)), params) if recorded else []
        return y.data.tobytes(), grads

    with contextlib.nullcontext() if recorded else T.no_grad():
        want, want_grads = run(False)
        got, got_grads = run(True)
    assert got == want
    assert [a.tobytes() for a in got_grads] == [b.tobytes() for b in want_grads]
    with pytest.raises(DimensionError):
        unpool(Tensor(xd), pm, strategy, out=np.empty((3, pm.graphs[0].n, 5)))


def test_unpool_rejects_supernodes_wider_than_the_slots():
    # three nodes merged into one supernode: slot 2 has no matrix
    pm = PartitionMap(graphs=[cycle_graph(3), Graph(np.zeros((1, 1)))], parents=[np.zeros(3, int)])
    strategy = init_unpool(np.random.default_rng(27), "ordered_deconv", 2)
    with pytest.raises(PartitionError):
        unpool(Tensor(np.ones((1, 2))), pm, strategy, 1, 0)


def test_pooling_reads_the_member_tables_the_partition_map_built(monkeypatch):
    # a pool builds no member table, and gives the bytes of a reduction that
    # builds its own
    pm = multilevel_partition(random_graph(np.random.default_rng(28), 12, density=0.4), 2)
    x = leaf((3, 12, 2), seed=29)
    modes = ("max", "mean")
    want = [T.segment_reduce(x, pm.parents[0], mode).data.tobytes() for mode in modes]
    calls = []
    table = T.member_table
    monkeypatch.setattr(T, "member_table", lambda *a: calls.append(1) or table(*a))
    for mode, data in zip(modes, want):
        assert g_pooling(x, pm, mode, 0, 1).data.tobytes() == data
        assert g_pooling(x, pm, mode).shape == (3, pm.graphs[2].n, 2)
    assert calls == []
