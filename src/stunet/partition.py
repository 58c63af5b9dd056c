"""Deterministic multilevel graph coarsening by matching contraction.

Each level contracts a maximal matching found in three stages: grow
vertex-disjoint paths by repeatedly following the heaviest incident edge,
solve the maximum-weight matching on each path exactly by dynamic
programming, then greedily extend with any remaining independent edges.
Every tie is broken by node id, so the result is a pure function of the
input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GraphError, PartitionError, UsageError
from .graph import Graph
from .tensor import member_table


@dataclass
class Matching:
    """Vertex-disjoint edge set; pairs stored as (i, j) with i < j, sorted."""

    pairs: list

    def __post_init__(self):
        self.pairs = sorted(tuple(sorted(p)) for p in self.pairs)
        seen = set()
        for i, j in self.pairs:
            if i == j:
                raise PartitionError(f"matching pairs node {i} with itself")
            if i in seen or j in seen:
                raise PartitionError("matching reuses a node")
            seen.add(i)
            seen.add(j)

    def __len__(self) -> int:
        return len(self.pairs)

    def matched_nodes(self) -> set:
        return {v for p in self.pairs for v in p}

    def weight(self, g: Graph) -> float:
        """Summed weight of the pairs, in pair order; each must be an edge of ``g``."""
        i, j, w = g.edge_arrays()
        keys = i * g.n + j
        pairs = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        want = pairs[:, 0] * g.n + pairs[:, 1]
        at = np.searchsorted(keys, want)
        found = (at < keys.size) & (pairs[:, 0] >= 0) & (pairs[:, 1] < g.n)  # i < j
        found[found] = keys[at[found]] == want[found]
        if not found.all():
            raise PartitionError(f"matching uses absent edge {self.pairs[np.argmin(found)]}")
        total = 0.0
        for x in w[at].tolist():
            total += x
        return total

    def is_maximal(self, g: Graph) -> bool:
        """No graph edge has both endpoints unmatched."""
        used = self.matched_nodes()
        for i, j, _ in g.edges():
            if i not in used and j not in used:
                return False
        return True


def _grow_paths(g: Graph):
    """Decompose the edge set into vertex-disjoint paths of (i, j, w) edges.

    Each path starts at the lowest-id vertex that still has an edge, walks to
    the heaviest incident neighbor (ties to the lower id), and removes the
    departed vertex so no vertex is revisited.
    """
    rows, cols, w = g.directed()
    ptr = np.searchsorted(rows, np.arange(g.n + 1))
    removed = np.zeros(g.n, dtype=bool)
    paths = []
    for start in range(g.n):
        if removed[start]:
            continue
        path = []
        v = start
        while True:
            nbrs, wts = cols[ptr[v] : ptr[v + 1]], w[ptr[v] : ptr[v + 1]]
            free = ~removed[nbrs]
            nbrs, wts = nbrs[free], wts[free]
            if nbrs.size == 0:
                break
            k = np.argmax(wts)  # argmax keeps the lowest id on ties
            best = nbrs[k]
            path.append((int(v), int(best), float(wts[k])))
            removed[v] = True
            v = best
        if path:
            paths.append(path)
    return paths


def max_weight_matching_path(q) -> Matching:
    """Exact maximum-weight matching on a path of (i, j, w) edges.

    best[i] = max(best[i-1], best[i-2] + w_i); ties prefer skipping the edge,
    so the earliest optimal edge set is returned.
    """
    q = list(q)
    nodes = set()
    for idx, (i, j, _) in enumerate(q):
        if idx == 0:
            nodes.update((i, j))
        else:
            pi, pj, _ = q[idx - 1]
            if len({i, j} & {pi, pj}) != 1 or (i in nodes and j in nodes):
                raise UsageError("edge list is not a simple path")
            nodes.update((i, j))
    m = len(q)
    best = [0.0] * (m + 1)
    take = [False] * (m + 1)
    for i in range(1, m + 1):
        skip = best[i - 1]
        with_edge = (best[i - 2] if i >= 2 else 0.0) + q[i - 1][2]
        if with_edge > skip:
            best[i] = with_edge
            take[i] = True
        else:
            best[i] = skip
    pairs = []
    i = m
    while i >= 1:
        if take[i]:
            pairs.append((q[i - 1][0], q[i - 1][1]))
            i -= 2
        else:
            i -= 1
    return Matching(pairs)


def path_grow_select(g: Graph) -> Matching:
    """One coarsening step's matching.

    Grows heaviest-edge paths, matches each path optimally, then greedily
    completes to a maximal matching over the remaining edges in descending
    weight (ties by endpoint ids).
    """
    pairs = []
    used = set()
    for path in _grow_paths(g):
        for i, j in max_weight_matching_path(path).pairs:
            pairs.append((i, j))
            used.add(i)
            used.add(j)
    leftovers = sorted(g.edges(), key=lambda e: (-e[2], e[0], e[1]))
    for i, j, _ in leftovers:
        if i not in used and j not in used:
            pairs.append((i, j))
            used.add(i)
            used.add(j)
    return Matching(pairs)


def coarsen(g: Graph, matching: Matching):
    """Contract matched pairs into supernodes, numbered by ascending minimum
    member id. Returns (coarse graph, parent array of length g.n)."""
    matching.weight(g)  # validates every pair is a real edge
    lowest = np.arange(g.n)
    pairs = np.array(matching.pairs, dtype=np.int64).reshape(-1, 2)
    lowest[pairs[:, 1]] = pairs[:, 0]
    _, parent = np.unique(lowest, return_inverse=True)
    return contract(g, parent), parent


def contract(g: Graph, parent: np.ndarray) -> Graph:
    """Graph of the supernodes 0..max(parent): inter-super weights are the
    sums of crossing edge weights and intra-super weight is dropped."""
    i, j, wt = g.edge_arrays()
    a, b = parent[i], parent[j]
    cross = a != b
    n_super = int(parent.max(initial=-1)) + 1
    keys, cell = np.unique((np.minimum(a, b) * n_super + np.maximum(a, b))[cross],
                           return_inverse=True)
    w = np.zeros(keys.size)
    np.add.at(w, cell, wt[cross])  # every supernode pair sums its edges in edge order
    if not np.all(np.isfinite(w)):
        raise GraphError("contracted weights overflow")
    return Graph._of(n_super, keys // n_super, keys % n_super, w)


@dataclass
class PartitionMap:
    """Hierarchy of graphs with the node-to-supernode map at each level.

    Built once per level k: ``tables[k]``, the ``member_table`` of the
    level's parent map (as pooling reads it, and whose width is the largest
    supernode), and for unpooling ``slots[k]``, the slot of each finer node
    within its supernode (heaviest finer-graph weighted degree first, ties to
    the lower id), and ``member_stats[k]``, per finer node its degree over the
    level's max degree, its degree and its supernode's size.
    """

    graphs: list  # graphs[0] finest, graphs[-1] coarsest
    parents: list  # parents[k][i] = supernode of node i when moving to level k+1

    def __post_init__(self):
        self.tables, self.slots, self.member_stats = [], [], []
        for fine, coarse, parent in zip(self.graphs, self.graphs[1:], self.parents):
            table, counts = member_table(parent, fine.n, coarse.n)
            deg = fine.degrees()
            # grouped by supernode, heaviest first; lexsort is stable, so ties
            # keep ascending node id
            ranked = np.lexsort((-deg, parent))
            slot = np.empty(fine.n, dtype=np.int64)
            slot[ranked] = np.arange(fine.n) - np.repeat(np.cumsum(counts) - counts, counts)
            max_deg = deg.max(initial=0.0)
            scaled = deg / max_deg if max_deg > 0 else np.zeros_like(deg)
            self.tables.append((table, counts))
            self.slots.append(slot)
            self.member_stats.append(np.column_stack((scaled, deg, counts[parent])))

    @classmethod
    def from_parents(cls, g: Graph, parents: list) -> "PartitionMap":
        """The hierarchy that ``parents`` (as ``multilevel_partition`` made
        them) define over ``g``, with no matching search."""
        graphs = [g]
        for parent in parents:
            graphs.append(contract(graphs[-1], parent))
        return cls(graphs=graphs, parents=list(parents))

    @property
    def levels(self) -> int:
        return len(self.parents)

    def members(self, level: int) -> list:
        """Members (finer-level node ids) of each supernode at level+1."""
        return invert_map(self.parents[level], self.graphs[level + 1].n)

    def compose(self) -> np.ndarray:
        """Map from finest nodes straight to coarsest supernodes."""
        acc = np.arange(self.graphs[0].n, dtype=np.int64)
        for parent in self.parents:
            acc = parent[acc]
        return acc

    def to_text(self) -> str:
        lines = []
        for k, parent in enumerate(self.parents):
            for v, s in enumerate(parent):
                lines.append(f"level {k}: node {v} -> super {int(s)}")
        return "\n".join(lines)


def multilevel_partition(g: Graph, p: int) -> PartitionMap:
    """Coarsen ``p`` times, contracting one maximal matching per level."""
    if p < 1:
        raise UsageError("partition level must be >= 1")
    graphs = [g]
    parents = []
    cur = g
    for _ in range(p):
        m = path_grow_select(cur)
        cur, parent = coarsen(cur, m)
        graphs.append(cur)
        parents.append(parent)
    return PartitionMap(graphs=graphs, parents=parents)


def invert_map(parent: np.ndarray, n_super: int) -> list:
    """Supernode -> sorted member list for one level transition."""
    parent = np.asarray(parent, dtype=np.int64)
    table, counts = member_table(parent, parent.size, n_super)
    return [row[:c] for row, c in zip(table.tolist(), counts.tolist())]


def brute_force_matching(g: Graph) -> Matching:
    """Exact maximum-weight matching by exhaustive search; n <= 12 only.

    Test oracle for matching quality.
    """
    if g.n > 12:
        raise UsageError("brute_force_matching is restricted to n <= 12")
    w = g.weights
    n = g.n
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def solve(mask: int):
        if mask == full:
            return 0.0, ()
        v = 0
        while mask & (1 << v):
            v += 1
        best_w, best_pairs = solve(mask | (1 << v))
        for u in range(v + 1, n):
            if mask & (1 << u) or w[v, u] <= 0:
                continue
            sub_w, sub_pairs = solve(mask | (1 << v) | (1 << u))
            cand = w[v, u] + sub_w
            if cand > best_w:
                best_w, best_pairs = cand, ((v, u),) + sub_pairs
        return best_w, best_pairs

    _, pairs = solve(0)
    solve.cache_clear()
    return Matching([tuple(p) for p in pairs])
