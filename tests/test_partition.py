"""Path-growing matching, exact path DP, coarsening, and the level hierarchy."""

import numpy as np
import pytest

from conftest import cycle_graph, path_graph, random_graph
from stunet.errors import PartitionError, UsageError
from stunet.graph import Graph
from stunet.partition import (
    Matching,
    PartitionMap,
    _grow_paths,
    brute_force_matching,
    coarsen,
    invert_map,
    max_weight_matching_path,
    multilevel_partition,
    path_grow_select,
)


def test_matching_validation():
    Matching(pairs=[(3, 2), (0, 1)])  # normalizes order
    with pytest.raises(PartitionError):
        Matching(pairs=[(0, 1), (1, 2)])  # node 1 reused
    with pytest.raises(PartitionError):
        Matching(pairs=[(2, 2)])


def test_matching_weight_requires_real_edges():
    g = path_graph(3)
    assert Matching(pairs=[(0, 1)]).weight(g) == 1.0
    with pytest.raises(PartitionError):
        Matching(pairs=[(0, 2)]).weight(g)


def test_path_dp_takes_outer_edges():
    # path 0-1-2-3 with weights 3,1,2: optimum picks the outer pair (weight 5)
    m = max_weight_matching_path([(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)])
    assert m.pairs == [(0, 1), (2, 3)]


def test_path_dp_takes_heavy_middle():
    # weights 1,5,1: the middle edge alone beats both outer edges
    m = max_weight_matching_path([(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
    assert m.pairs == [(1, 2)]


def test_path_dp_single_edge_and_empty():
    assert max_weight_matching_path([(4, 7, 2.0)]).pairs == [(4, 7)]
    assert max_weight_matching_path([]).pairs == []


def test_path_dp_matches_exhaustive_on_random_paths():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.1, 5.0, size=n - 1)
        edges = [(i, i + 1, float(w[i])) for i in range(n - 1)]
        got = max_weight_matching_path(edges)

        best = 0.0
        for mask in range(1 << (n - 1)):
            if mask & (mask << 1):
                continue  # adjacent edges conflict
            best = max(best, sum(w[i] for i in range(n - 1) if mask >> i & 1))
        got_w = sum(w[i] for i, _ in got.pairs)
        assert abs(got_w - best) < 1e-12


def test_path_dp_rejects_non_paths():
    with pytest.raises(UsageError):
        max_weight_matching_path([(0, 1, 1.0), (2, 3, 1.0)])  # disconnected
    with pytest.raises(UsageError):
        max_weight_matching_path([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])  # cycle
    with pytest.raises(UsageError):
        max_weight_matching_path([(0, 1, 1.0), (1, 1, 1.0)])


def test_select_on_triangle_takes_heaviest_edge():
    g = Graph.from_edges(3, [(0, 1, 5.0), (1, 2, 3.0), (0, 2, 1.0)])
    m = path_grow_select(g)
    assert m.pairs == [(0, 1)]
    assert m.is_maximal(g)


def test_select_is_deterministic():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 9, density=0.6)
    a = path_grow_select(g)
    b = path_grow_select(g)
    assert a.pairs == b.pairs


def test_select_valid_maximal_and_half_optimal():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, density=float(rng.uniform(0.2, 0.9)))
        m = path_grow_select(g)
        assert m.is_maximal(g)
        if g.edges():
            best = brute_force_matching(g).weight(g)
            assert m.weight(g) >= 0.5 * best - 1e-12


def test_coarsen_square_cycle_hand_value():
    # 4-cycle with unit weights: matching {01, 23}; the two crossing edges
    # (1-2 and 3-0) merge into one supernode edge of weight 2
    g = cycle_graph(4)
    m = path_grow_select(g)
    assert m.pairs == [(0, 1), (2, 3)]
    coarse, parent = coarsen(g, m)
    assert coarse.n == 2
    assert np.array_equal(parent, [0, 0, 1, 1])
    assert coarse.weights[0, 1] == 2.0


def test_coarsen_orders_supernodes_by_min_member():
    g = Graph.from_edges(4, [(1, 3, 4.0), (0, 2, 3.0), (2, 3, 1.0)])
    m = Matching(pairs=[(1, 3), (0, 2)])
    coarse, parent = coarsen(g, m)
    # supernode 0 holds min member 0 -> {0,2}; supernode 1 holds {1,3}
    assert np.array_equal(parent, [0, 1, 0, 1])
    assert coarse.weights[0, 1] == 1.0  # edge 2-3 crosses


def test_coarsen_node_count_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 12)))
        m = path_grow_select(g)
        coarse, parent = coarsen(g, m)
        assert coarse.n == g.n - len(m)
        assert parent.shape == (g.n,)
        assert sorted(set(int(p) for p in parent)) == list(range(coarse.n))


def test_coarsen_rejects_foreign_matching():
    g = path_graph(4)
    with pytest.raises(PartitionError):
        coarsen(g, Matching(pairs=[(0, 3)]))  # not an edge


def test_multilevel_eight_cycle_sizes():
    pm = multilevel_partition(cycle_graph(8), 2)
    assert [gr.n for gr in pm.graphs] == [8, 4, 2]
    assert pm.levels == 2
    # every finest node reaches a coarsest supernode
    comp = pm.compose()
    assert comp.shape == (8,)
    assert set(int(c) for c in comp) == {0, 1}


def test_multilevel_requires_positive_level():
    with pytest.raises(UsageError):
        multilevel_partition(path_graph(4), 0)


def test_members_partition_node_set():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 10, density=0.5)
    pm = multilevel_partition(g, 2)
    for level in range(pm.levels):
        members = pm.members(level)
        flat = sorted(v for group in members for v in group)
        assert flat == list(range(pm.graphs[level].n))
        assert all(1 <= len(group) <= 2 for group in members)


def test_partition_map_text_format():
    pm = multilevel_partition(cycle_graph(4), 1)
    lines = pm.to_text().splitlines()
    assert lines[0] == "level 0: node 0 -> super 0"
    assert len(lines) == 4


def test_invert_map_rejects_empty_supernode():
    with pytest.raises(PartitionError):
        invert_map(np.array([0, 0]), 2)
    with pytest.raises(PartitionError):
        invert_map(np.array([0, 2]), 2)


def test_brute_force_small_and_bounded():
    g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0), (0, 3, 1.0)])
    m = brute_force_matching(g)
    # 5 beats the outer pair 1+1
    assert m.pairs == [(1, 2)] or m.weight(g) >= 5.0
    with pytest.raises(UsageError):
        brute_force_matching(random_graph(np.random.default_rng(5), 13))


def test_single_node_graph_has_empty_matching():
    g = Graph(np.zeros((1, 1)))
    m = path_grow_select(g)
    assert m.pairs == []
    coarse, parent = coarsen(g, m)
    assert coarse.n == 1 and list(parent) == [0]


def _grow_paths_oracle(g):
    """Dense reference: zero the departed vertex's row and column."""
    w = g.weights.copy()
    paths = []
    for start in range(g.n):
        if w[start].max(initial=0.0) <= 0:
            continue
        path = []
        v = start
        while w[v].max(initial=0.0) > 0:
            nbrs = np.nonzero(w[v] > 0)[0]
            best = nbrs[np.argmax(w[v, nbrs])]
            path.append((int(v), int(best), float(w[v, best])))
            w[v, :] = 0.0
            w[:, v] = 0.0
            v = best
        w[v, :] = 0.0
        w[:, v] = 0.0
        paths.append(path)
    return paths


def _coarsen_oracle(g, matching):
    """Group and edge loop reference for coarsen."""
    matched = matching.matched_nodes()
    groups = list(matching.pairs) + [(v,) for v in range(g.n) if v not in matched]
    groups.sort(key=min)
    parent = np.empty(g.n, dtype=np.int64)
    for s, grp in enumerate(groups):
        for v in grp:
            parent[v] = s
    w = np.zeros((len(groups), len(groups)))
    for i, j, wt in g.edges():
        a, b = parent[i], parent[j]
        if a != b:
            w[a, b] += wt
            w[b, a] += wt
    return w, parent


def _invert_map_oracle(parent, n_super):
    out = [[] for _ in range(n_super)]
    for v, s in enumerate(parent):
        out[int(s)].append(int(v))
    return out


def _slot_oracle(pm, level):
    deg = pm.graphs[level].degrees()
    slot = np.zeros(pm.graphs[level].n, dtype=np.int64)
    for members in pm.members(level):
        for r, v in enumerate(sorted(members, key=lambda v: (-deg[v], v))):
            slot[v] = r
    return slot


def _member_stats_oracle(pm, level):
    deg = pm.graphs[level].degrees()
    max_deg = deg.max(initial=0.0)
    stats = np.zeros((pm.graphs[level].n, 3))
    for members in pm.members(level):
        for v in members:
            stats[v, 0] = deg[v] / max_deg if max_deg > 0 else 0.0
            stats[v, 1] = deg[v]
            stats[v, 2] = float(len(members))
    return stats


def _weighted_graphs():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(2, 30))
        w = np.triu(rng.uniform(0.1, 5.0, size=(n, n)), 1)
        w *= rng.random((n, n)) < rng.uniform(0.1, 0.8)
        if trial % 2:
            w = np.ceil(w)  # integer weights: ties in paths, leftovers and degrees
        yield Graph(w + w.T)


def test_partition_build_matches_loop_references():
    for g in _weighted_graphs():
        cur = g
        for _ in range(3):
            assert _grow_paths(cur) == _grow_paths_oracle(cur)
            m = path_grow_select(cur)
            coarse, parent = coarsen(cur, m)
            want_w, want_parent = _coarsen_oracle(cur, m)
            assert parent.tobytes() == want_parent.tobytes()
            assert coarse.weights.tobytes() == want_w.tobytes()
            cur = coarse


def test_partition_constants_match_loop_references():
    for g in _weighted_graphs():
        pm = multilevel_partition(g, 3)
        for level in range(pm.levels):
            slot = pm.slots[level]
            stats = pm.member_stats[level]
            assert slot.tobytes() == _slot_oracle(pm, level).tobytes()
            assert stats.tobytes() == _member_stats_oracle(pm, level).tobytes()
            n_super = pm.graphs[level + 1].n
            assert pm.members(level) == _invert_map_oracle(pm.parents[level], n_super)
