"""Spatial pooling and unpooling over a coarsening hierarchy.

``g_pooling`` and ``unpool`` each walk a range of levels, checking the node
extent at every level; the U model moves one level per stage. Pooling
reduces node signals with a per-supernode max or mean, so a mean round trip
through direct-copy unpooling reproduces within-supernode-constant features
exactly (each level merges at most two nodes and (v+v)/2 is exact in binary
floating point; a one-shot mean over four equal values is not). Unpooling
lifts coarse signals back with one of three strategies: plain copy, a
learned per-slot linear (slot order given by finer-graph degree), or the
slot output concatenated with member structure statistics and linearly
mixed. Every strategy reads each finer node from its supernode's row with
one gather; the learned ones first multiply the coarse rows by all slot
matrices in one product. The member tables, the lift index, the gather
tables and the statistics are built once, with the partition map. Every
learned level, ordered or weighted, is one op whose backward keeps only its
coarse input and the weights; for weighted_deconv it rebuilds the gathered
rows joined with the statistics, the mixing product's input, by the
forward's own calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError, PartitionError, UsageError
from .partition import MAX_GROUP, PartitionMap
from .tensor import Tensor

UNPOOL_MODES = ("direct_copy", "ordered_deconv", "weighted_deconv")

STRUCT_FEATURES = 3  # per-member structure statistics fed to weighted_deconv


@dataclass
class UnpoolStrategy:
    """One unpooling site: mode plus its parameters, reused at every level.

    ordered_deconv holds one (C, C) matrix per slot; weighted_deconv holds
    the slot matrices plus a (C + 3, C) mixing matrix applied to the slot
    output concatenated with structure statistics.
    """

    mode: str
    slot_w: list | None = None
    mix_w: Tensor | None = None

    def params(self) -> list:
        out = []
        if self.slot_w is not None:
            out.extend(self.slot_w)
        if self.mix_w is not None:
            out.append(self.mix_w)
        return out


def init_unpool(rng: np.random.Generator, mode: str, channels: int) -> UnpoolStrategy:
    """Create unpooling parameters; draws nothing for direct_copy."""
    if mode not in UNPOOL_MODES:
        raise UsageError(f"unknown unpooling strategy {mode!r}")
    if mode == "direct_copy":
        return UnpoolStrategy(mode)
    slots = [T.glorot_from(rng, (channels, channels)) for _ in range(MAX_GROUP)]
    if mode == "ordered_deconv":
        return UnpoolStrategy(mode, slot_w=slots)
    mix = T.glorot_from(rng, (channels + STRUCT_FEATURES, channels))
    return UnpoolStrategy(mode, slot_w=slots, mix_w=mix)


def g_pooling(
    x: Tensor,
    pm: PartitionMap,
    mode: str,
    from_level: int = 0,
    to_level: int | None = None,
) -> Tensor:
    """Pool level by level from ``from_level`` to ``to_level`` (coarser): each
    level reduces node extent graphs[k].n to graphs[k+1].n."""
    if to_level is None:
        to_level = pm.levels
    if not 0 <= from_level <= to_level <= pm.levels:
        raise UsageError(f"bad pooling range {from_level}..{to_level}")
    for k in range(from_level, to_level):
        _check_nodes(x, pm.graphs[k].n)
        x = T.segment_reduce(x, pm.parents[k], mode, pm.tables[k])
    return x


def st_pool_spatial(seq: Tensor, pm: PartitionMap, mode: str, from_level: int = 0,
                    to_level: int | None = None) -> Tensor:
    """Pool a whole sequence with the single shared map (time-invariant)."""
    if seq.data.ndim < 3:
        raise DimensionError("st_pool_spatial expects a stacked sequence")
    return g_pooling(seq, pm, mode, from_level, to_level)


def unpool(
    x: Tensor,
    pm: PartitionMap,
    strategy: UnpoolStrategy,
    from_level: int | None = None,
    to_level: int = 0,
    out: np.ndarray | None = None,
) -> Tensor:
    """Unpool level by level from ``from_level`` (default coarsest) down to
    ``to_level``, reusing the same strategy weights at every level.

    Each level lifts node extent graphs[k+1].n to graphs[k].n: every finer
    node gathers its supernode's row; the learned modes gather row
    ``parent * MAX_GROUP + slot`` of the coarse rows times all slot matrices,
    read as MAX_GROUP rows per supernode. The last level's gather (its mixing
    product, for weighted_deconv) writes into ``out`` when given, such as the
    left-hand channels of a skip join.
    """
    if from_level is None:
        from_level = pm.levels
    if not 0 <= to_level <= from_level <= pm.levels:
        raise UsageError(f"bad unpooling range {from_level}..{to_level}")
    if strategy.mode not in UNPOOL_MODES:
        raise UsageError(f"unknown unpooling strategy {strategy.mode!r}")
    for k in range(from_level - 1, to_level - 1, -1):
        _check_nodes(x, pm.graphs[k + 1].n)
        dest = out if k == to_level else None
        if strategy.mode == "direct_copy":
            x = T.gather_rows(x, pm.parents[k], dest, pm.copy_tables[k])
            continue
        if pm.tables[k][0].shape[1] > MAX_GROUP:  # the widest supernode
            raise PartitionError(f"level {k} has a supernode of over {MAX_GROUP} members")
        x = _lift(x, pm, k, strategy, dest)
    return x


def _lift(x: Tensor, pm: PartitionMap, k: int, strategy: UnpoolStrategy,
          out: np.ndarray | None) -> Tensor:
    """One learned unpool level as one op: the coarse rows times all slot
    matrices, read as MAX_GROUP rows per supernode and gathered by the lift
    index; for weighted_deconv, then joined with the member statistics and
    mixed. The level's result goes into ``out`` when given. The pullback
    keeps only ``x`` and the weights: it rebuilds the mixing product's input
    by the forward's own calls, so the weight gradients keep their bits."""
    xd = x.data
    slot_w = [w.data for w in strategy.slot_w]
    mix = None if strategy.mix_w is None else strategy.mix_w.data
    c = slot_w[0].shape[0]
    if xd.shape[-1] != c:
        raise DimensionError(f"unpool: {xd.shape[-1]} input channels, slot matrices {c}")
    lift, table = pm.lifts[k], pm.lift_tables[k]
    slotted_shape = xd.shape[:-2] + (MAX_GROUP * xd.shape[-2], c)
    T._check_out(out, xd.shape[:-2] + (lift.size, c), "unpool")

    def rows(dest=None):
        # the slotted rows are dropped once gathered, so under no_grad they
        # are freed
        slotted = T.flat_matmul(xd, np.concatenate(slot_w, axis=-1))
        return T.gather_rows_array(slotted.reshape(slotted_shape), lift, dest)

    def mix_input():
        gathered = rows()
        wide = np.broadcast_to(pm.member_stats[k], gathered.shape[:-1] + (STRUCT_FEATURES,))
        return np.concatenate([gathered, wide], axis=-1)

    def pull(g):
        gmix = ()
        if mix is not None:
            joined = mix_input()
            gmix = (joined.reshape(-1, c + STRUCT_FEATURES).T @ g.reshape(-1, g.shape[-1]),)
            del joined
            g = T.flat_matmul(g, mix.T)[..., :c]
        gslotted = T.gather_rows_pull(g, slotted_shape, table).reshape(
            xd.shape[:-1] + (MAX_GROUP * c,))
        del g
        gx = T.flat_matmul(gslotted, np.concatenate(slot_w, axis=-1).T)
        gslots = np.split(xd.reshape(-1, c).T @ gslotted.reshape(-1, MAX_GROUP * c),
                          MAX_GROUP, axis=-1)
        return (gx, *gslots, *gmix)

    y = rows(out) if mix is None else T.flat_matmul(mix_input(), mix, out)
    return T.apply_op(y, (x, *strategy.params()), pull)


def _check_nodes(x: Tensor, n: int) -> None:
    if x.data.ndim < 2 or x.data.shape[-2] != n:
        raise DimensionError(f"node extent {x.data.shape} does not match graph n={n}")
