"""Gated graph-convolutional recurrence with dilated skip connections.

The cell is a GRU whose input and hidden transforms are Chebyshev graph
convolutions. A dilated layer advances the hidden state from step t-s to
step t, so one layer with dilation s maintains s interleaved recurrence
chains. The layer runs them side by side: it walks the sequence in blocks of
s consecutive steps, which hold one step of every chain on the leading axis,
and one cell step advances a whole block from the previous block's output.
Encoding runs a stack of such layers with optional spatial pooling between
them; decoding rolls a cell forward step by step, feeding back its own
predictions (or, during training, the ground truth with the scheduled
sampling probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError, ModelError, UsageError
from .graph import ChebKernel, GraphLaplacian, cheb_basis, kernel_matrix
from .sampling import st_pool_spatial
from .tensor import Tensor

SS_TAU_DEFAULT = 1000.0


def scheduled_sampling_prob(iteration: int, tau: float = SS_TAU_DEFAULT) -> float:
    """Teacher-forcing probability after `iteration` global training steps,
    decaying along an inverse sigmoid from 1 toward 0."""
    if tau <= 0:
        return 0.0
    return tau / (tau + math.exp(iteration / tau))


@dataclass
class GCGRUWeights:
    """Parameters of one cell: three input kernels (K x D_h x D_x), three
    hidden kernels (K x D_h x D_h), three gate biases, and optional layer
    normalization gain/bias applied to the cell output."""

    w_z: ChebKernel
    w_r: ChebKernel
    w_h: ChebKernel
    u_z: ChebKernel
    u_r: ChebKernel
    u_h: ChebKernel
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor
    ln_gain: Tensor | None = None
    ln_bias: Tensor | None = None

    def __post_init__(self):
        kernels = (self.w_z, self.w_r, self.w_h, self.u_z, self.u_r, self.u_h)
        orders = {k.order for k in kernels}
        if len(orders) != 1:
            raise ModelError("all six cell kernels must share one order K")
        if not (
            self.w_z.c_in == self.w_r.c_in == self.w_h.c_in
            and self.u_z.c_in == self.u_r.c_in == self.u_h.c_in == self.d_h
            and {k.c_out for k in kernels} == {self.d_h}
        ):
            raise ModelError("cell kernel channel extents are inconsistent")

    @property
    def order(self) -> int:
        return self.w_z.order

    @property
    def d_x(self) -> int:
        return self.w_z.c_in

    @property
    def d_h(self) -> int:
        return self.w_z.c_out

    def params(self) -> list:
        out = [
            self.w_z.theta, self.w_r.theta, self.w_h.theta,
            self.u_z.theta, self.u_r.theta, self.u_h.theta,
            self.b_z, self.b_r, self.b_h,
        ]
        if self.ln_gain is not None:
            out.extend([self.ln_gain, self.ln_bias])
        return out


@dataclass
class GCGRUState:
    """Hidden state of one recurrence chain."""

    h: Tensor


@dataclass
class DilationSchedule:
    """Per-layer skip lengths; the input-facing layer always runs undilated."""

    dilations: list

    def __post_init__(self):
        if not self.dilations:
            raise UsageError("dilation schedule must cover at least one layer")
        if any(int(s) < 1 for s in self.dilations):
            raise UsageError("dilations must be >= 1")
        if int(self.dilations[0]) != 1:
            raise UsageError("layer 0 must have dilation 1")
        self.dilations = [int(s) for s in self.dilations]


def init_gcgru_weights(
    rng: np.random.Generator, k: int, d_x: int, d_h: int, layer_norm: bool = False
) -> GCGRUWeights:
    """Glorot kernels drawn in field order, zero biases, identity layer norm."""
    w_z = ChebKernel.init(rng, k, d_h, d_x)
    w_r = ChebKernel.init(rng, k, d_h, d_x)
    w_h = ChebKernel.init(rng, k, d_h, d_x)
    u_z = ChebKernel.init(rng, k, d_h, d_h)
    u_r = ChebKernel.init(rng, k, d_h, d_h)
    u_h = ChebKernel.init(rng, k, d_h, d_h)
    zeros = lambda: Tensor(np.zeros(d_h), requires_grad=True)
    ln_gain = Tensor(np.ones(d_h), requires_grad=True) if layer_norm else None
    ln_bias = Tensor(np.zeros(d_h), requires_grad=True) if layer_norm else None
    return GCGRUWeights(
        w_z, w_r, w_h, u_z, u_r, u_h, zeros(), zeros(), zeros(), ln_gain, ln_bias
    )


class FoldedCell:
    """One cell with its kernels pre-folded for repeated stepping.

    Folding happens once per forward pass; every time step then shares the
    same kernel-matrix tape nodes, and the Chebyshev bases of the input and
    state are each computed once per step and reused across the three gates.
    """

    __slots__ = ("w", "mats")

    def __init__(self, w: GCGRUWeights):
        self.w = w
        self.mats = tuple(
            kernel_matrix(k) for k in (w.w_z, w.w_r, w.w_h, w.u_z, w.u_r, w.u_h)
        )

    def step(self, lap: GraphLaplacian, x_t: Tensor, h_prev: Tensor) -> Tensor:
        w = self.w
        if x_t.data.shape[-1] != w.d_x or h_prev.data.shape[-1] != w.d_h:
            raise DimensionError(
                f"cell expects channels ({w.d_x}, {w.d_h}), got "
                f"({x_t.data.shape[-1]}, {h_prev.data.shape[-1]})"
            )
        mwz, mwr, mwh, muz, mur, muh = self.mats
        bx = cheb_basis(lap, x_t, w.order)
        bh = cheb_basis(lap, h_prev, w.order)
        z = T.sigmoid(T.add_bias(T.add(T.matmul(bx, mwz), T.matmul(bh, muz)), w.b_z))
        r = T.sigmoid(T.add_bias(T.add(T.matmul(bx, mwr), T.matmul(bh, mur)), w.b_r))
        br = cheb_basis(lap, T.hadamard(r, h_prev), w.order)
        cand = T.tanh(T.add_bias(T.add(T.matmul(bx, mwh), T.matmul(br, muh)), w.b_h))
        # z*h_prev + (1-z)*cand, written without materializing (1-z)
        h = T.add(cand, T.hadamard(z, T.sub(h_prev, cand)))
        if w.ln_gain is not None:
            h = T.layer_norm(h, w.ln_gain, w.ln_bias)
        return h

    def zero_state(self, x_t: Tensor) -> Tensor:
        return Tensor(np.zeros(x_t.data.shape[:-1] + (self.w.d_h,)))


def gcgru_cell(w: GCGRUWeights, lap: GraphLaplacian, x_t: Tensor, h_prev: Tensor) -> Tensor:
    """Single gated update; see FoldedCell.step for the gate equations."""
    return FoldedCell(w).step(lap, x_t, h_prev)


def dilated_layer_forward(
    w: GCGRUWeights, lap: GraphLaplacian, inputs: Tensor, s: int
) -> Tensor:
    """Run one layer over a stacked sequence (leading axis = time).

    The state consumed at step t is the output of step t-s; steps with
    t-s < 0 start from the zero state. Steps are taken in blocks of s, so
    block b is steps b*s .. b*s+s-1 and its previous-state block is the output
    of block b-1, row for row. A short last block (s not dividing the length)
    takes the first rows of that output. s=1 is a plain recurrent scan.
    """
    if s < 1:
        raise UsageError("dilation must be >= 1")
    steps = inputs.data.shape[0]
    if steps < 1:
        raise DimensionError("empty input sequence")
    cell = FoldedCell(w)
    blocks = []
    for lo in range(0, steps, s):
        x = T.select_step(inputs, slice(lo, lo + s))
        if not blocks:
            h = cell.zero_state(x)
        elif x.data.shape[0] < s:
            h = T.select_step(h, slice(0, x.data.shape[0]))
        h = cell.step(lap, x, h)
        blocks.append(h)
    return T.concat_steps(blocks)


def encode(
    layers: list,
    laps: list,
    inputs: Tensor,
    schedule: DilationSchedule,
    pm=None,
    pool_mode: str = "max",
    pool_levels: int = 0,
):
    """Run the downsampling-side stack.

    Layer k consumes the (possibly pooled) output of layer k-1 using laps[k]
    and dilation schedule.dilations[k]; after layer k the signal is pooled one
    spatial level when k < pool_levels. Returns (per-layer output sequences,
    per-layer final states); the sequences feed skip connections, the last
    final state seeds the decoder.
    """
    if len(layers) != len(laps) or len(layers) != len(schedule.dilations):
        raise ModelError("layers, laplacians and dilations must align")
    if pool_levels > 0 and pm is None:
        raise ModelError("pooling requested without a partition hierarchy")
    outputs = []
    finals = []
    x = inputs
    for k, w in enumerate(layers):
        y = dilated_layer_forward(w, laps[k], x, schedule.dilations[k])
        outputs.append(y)
        finals.append(GCGRUState(T.select_step(y, y.data.shape[0] - 1)))
        x = y
        if k < pool_levels and k + 1 < len(layers):
            x = st_pool_spatial(x, pm, pool_mode, from_level=k, to_level=k + 1)
    return outputs, finals


def decode(
    w: GCGRUWeights,
    lap: GraphLaplacian,
    initial: GCGRUState,
    horizon: int,
    go_symbol: Tensor,
    readout,
    eps: float = 0.0,
    targets: Tensor | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Roll the decoder cell for `horizon` steps.

    The first input is the go symbol; afterwards each step consumes the
    previous prediction, replaced by the previous ground-truth target with
    probability eps (scheduled sampling; eps=0 draws nothing and is fully
    deterministic). `readout` maps a hidden state to an output step.
    """
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if eps > 0 and targets is None:
        raise UsageError("scheduled sampling requires targets")
    if eps > 0 and rng is None:
        raise UsageError("scheduled sampling requires a random generator")
    h = initial.h
    cell = FoldedCell(w)
    x = go_symbol
    preds = []
    for t in range(horizon):
        h = cell.step(lap, x, h)
        y = readout(h)
        preds.append(y)
        if t + 1 < horizon:
            if eps > 0 and rng.random() < eps:
                x = T.select_step(targets, t)
            else:
                x = y
    return T.stack_steps(preds)
