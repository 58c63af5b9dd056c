"""Gated graph-convolutional recurrence with dilated skip connections.

The cell is a GRU whose input and hidden transforms are Chebyshev graph
convolutions. Its input side (one Chebyshev basis of the input and one product
with the three input kernels side by side) depends on no state, so a layer
computes it for a chunk of steps at once; one cell step is then one fused op
over the hidden path, whose pullback is written out by hand. A dilated layer
advances the hidden state from step t-s to step t, so one layer with dilation
s maintains s interleaved recurrence chains. The layer runs them side by side:
it walks the sequence in blocks of s consecutive steps, which hold one step of
every chain on the leading axis, and one cell step advances a whole block from
the previous block's output, writing it into one buffer for the layer. The
first block starts from the zero state, passed as ``h_prev=None``: its step
computes no basis or product of the state and keeps none for backward.
Encoding runs a stack of such layers, one dilation per layer with the first
undilated, and pools one spatial level between stages; decoding rolls a cell
forward step by step, feeding back its own predictions (or, during training,
the ground truth with the scheduled sampling probability), so its input side
is computed per step. A cell's parameters are its dataclass fields, read in
field order by ``GCGRUWeights.named_params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import DimensionError, ModelError, NumericError, UsageError
from .graph import ChebKernel, GraphLaplacian, cheb_basis, kernel_matrix
from .sampling import st_pool_spatial
from .tensor import Tensor

SS_TAU_DEFAULT = 1000.0
# a layer hoists its input side for a chunk of whole blocks whose basis and
# product hold at most about this many elements (4 MB), so a long or wide
# sequence never holds the input side of every step at once
_CHUNK_ELEMS = 1 << 19


def scheduled_sampling_prob(iteration: int, tau: float = SS_TAU_DEFAULT) -> float:
    """Teacher-forcing probability after `iteration` global training steps,
    decaying along an inverse sigmoid from 1 toward 0: tau / (tau + exp(i / tau)),
    and exactly 0 once exp(i / tau) overflows a float."""
    if tau <= 0:
        return 0.0
    try:
        return tau / (tau + math.exp(iteration / tau))
    except OverflowError:
        return 0.0


def teacher_steps(eps: float, horizon: int, rng: np.random.Generator | None) -> tuple:
    """Which decoder steps after the first take the previous target as input
    instead of the previous prediction: each with probability eps, one
    ``rng.random()`` per step in step order; eps=0 draws nothing."""
    if eps <= 0:
        return (False,) * (horizon - 1)
    if rng is None:
        raise UsageError("scheduled sampling requires a random generator")
    return tuple(rng.random() < eps for _ in range(horizon - 1))


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

    def named_params(self):
        """(field name, tensor) pairs in field order: a kernel gives its theta,
        and an absent layer norm gives nothing."""
        for f in fields(self):
            t = getattr(self, f.name)
            if t is not None:
                yield f.name, t.theta if isinstance(t, ChebKernel) else t

    def params(self) -> list:
        return [t for _, t in self.named_params()]


@dataclass
class GCGRUState:
    """Hidden state of one recurrence chain."""

    h: Tensor


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
    """One cell with its kernels folded for repeated stepping.

    Folding happens once per forward pass, as four ops: the input kernels
    [W_z|W_r|W_h] as one (K*D_x, 3*D_h) matrix, the gate kernels [U_z|U_r] as
    one (K*D_h, 2*D_h) matrix, U_h, and the three biases as one vector. Every
    step then shares these tape nodes.
    """

    __slots__ = ("w", "wx", "uzr", "uh", "b")

    def __init__(self, w: GCGRUWeights):
        self.w = w
        self.wx = kernel_matrix(w.w_z, w.w_r, w.w_h)
        self.uzr = kernel_matrix(w.u_z, w.u_r)
        self.uh = kernel_matrix(w.u_h)
        self.b = T.concat_channels(w.b_z, w.b_r, w.b_h)

    def input_side(self, lap: GraphLaplacian, x: Tensor) -> Tensor:
        """The input's share of the three gate pre-activations, (..., 3*D_h)."""
        if x.data.shape[-1] != self.w.d_x:
            raise DimensionError(
                f"cell expects {self.w.d_x} input channels, got {x.data.shape[-1]}"
            )
        return T.matmul(cheb_basis(lap, x, self.w.order), self.wx)

    def step(
        self, lap: GraphLaplacian, xw: Tensor, h_prev: Tensor | None, rows=None,
        out=None, t=0,
    ) -> Tensor:
        """Advance the state one step, as one op.

        ``xw`` is an ``input_side``; ``rows`` picks the slice of its leading
        axis that belongs to this step (all of it when None). With B(v) the
        Chebyshev basis of v:

            [z|r] = sigmoid((xw_zr + B(h_prev) [U_z|U_r]) + [b_z|b_r])
            c     = tanh((xw_h + B(r * h_prev) U_h) + b_h)
            h     = c + z * (h_prev - c),  then the optional layer norm

        written into ``out`` when given. ``h_prev=None`` is the zero state:
        the pre-activations are then the input side plus the biases, and the
        step computes no basis or product of the state, nor ``r * h_prev``,
        and takes no gradient for U_z, U_r or U_h. A step keeps neither of
        its two bases: backward rebuilds B(h_prev) and B(r * h_prev), K-1
        Laplacian products each, from arrays it holds anyway. A non-finite
        gate pre-activation raises NumericError naming the gate and ``t``, the
        time step of the first row; the checked [z|r] pre-activation then
        becomes the gates in place, with the same ``sigmoid_array`` as
        ``T.sigmoid``.
        """
        w, d = self.w, self.w.d_h
        xs = xw.data if rows is None else xw.data[rows]
        zero = h_prev is None
        hp = 0.0 if zero else h_prev.data
        hshape = xs.shape[:-1] + (d,) if zero else hp.shape
        if xs.shape[:-1] != hshape[:-1] or (xs.shape[-1], hshape[-1]) != (3 * d, d):
            raise DimensionError(
                f"cell expects input side (..., {3 * d}) and state (..., {d}) with "
                f"equal leading extents, got {xs.shape} and {hshape}"
            )
        k, uzr, uh, b = w.order, self.uzr.data, self.uh.data, self.b.data
        parents = (xw, self.b) if zero else (xw, h_prev, self.uzr, self.uh, self.b)
        if w.ln_gain is not None:
            parents += (w.ln_gain, w.ln_bias)
        if zero:
            zr = np.add(xs[..., : 2 * d], b[: 2 * d])
        else:
            zr = T.flat_matmul(lap.basis(hp, k), uzr)
            np.add(xs[..., : 2 * d], zr, out=zr)
            zr += b[: 2 * d]
        _check_finite(zr, "update/reset gate", t)
        T.sigmoid_array(zr, out=zr)
        z, r = zr[..., :d], zr[..., d:]
        if zero:
            c = np.add(xs[..., 2 * d :], b[2 * d :])
        else:
            c = T.flat_matmul(lap.basis(r * hp, k), uh)
            np.add(xs[..., 2 * d :], c, out=c)
            c += b[2 * d :]
        _check_finite(c, "candidate", t)
        np.tanh(c, out=c)
        ln = w.ln_gain is not None
        h = np.subtract(hp, c, out=None if ln else out)
        h *= z
        h += c
        if ln:
            h, xhat, inv_std = T.layer_norm_array(h, w.ln_gain.data, w.ln_bias.data, out)

        shape = xs.shape

        def pull(g):
            grads = T.layer_norm_pull(g, xhat, inv_std, w.ln_gain.data) if ln else (g,)
            g = grads[0]
            gx = np.empty(shape)  # [d pre_z | d pre_r | d pre_c]
            gz = g * z
            np.multiply(g - gz, 1.0 - c * c, out=gx[..., 2 * d :])
            np.multiply(g * (hp - c), z * (1.0 - z), out=gx[..., :d])
            dc = gx[..., 2 * d :]
            dxw = gx if rows is None else (rows, gx)
            if zero:  # r multiplies the zero state, so its gradient is zero
                gx[..., d : 2 * d] = 0.0
                return (dxw, _flat(gx).sum(axis=0)) + grads[1:]
            drh = lap.basis_transpose(T.flat_matmul(dc, uh.T), k)
            np.multiply(drh * hp, r * (1.0 - r), out=gx[..., d : 2 * d])
            dzr = gx[..., : 2 * d]
            dh_prev = gz + drh * r + lap.basis_transpose(T.flat_matmul(dzr, uzr.T), k)
            # the forward's two bases, rebuilt by the same calls on the same
            # arrays, so the weight gradients are its bits
            return (
                dxw,
                dh_prev,
                _flat(lap.basis(hp, k)).T @ _flat(dzr),
                _flat(lap.basis(r * hp, k)).T @ _flat(dc),
                _flat(gx).sum(axis=0),
            ) + grads[1:]

        return T.apply_op(h, parents, pull)


def _flat(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _check_finite(a: np.ndarray, gate: str, t: int) -> None:
    # a sum is non-finite whenever one of its terms is, and sigmoid and tanh
    # keep finite values finite, so this check and the op's output check see
    # every non-finite value the step could produce
    if not np.isfinite(a).all():
        raise NumericError(
            f"GCGRU {gate} pre-activation is non-finite in the block starting "
            f"at time step {t}"
        )


def gcgru_cell(w: GCGRUWeights, lap: GraphLaplacian, x_t: Tensor, h_prev: Tensor) -> Tensor:
    """Single gated update; see FoldedCell.step for the gate equations."""
    cell = FoldedCell(w)
    return cell.step(lap, cell.input_side(lap, x_t), h_prev)


def dilated_layer_forward(
    w: GCGRUWeights, lap: GraphLaplacian, inputs: Tensor, s: int
) -> Tensor:
    """Run one layer over a stacked sequence (leading axis = time).

    The state consumed at step t is the output of step t-s; steps with
    t-s < 0 start from the zero state (``h_prev=None``). Steps are taken in
    blocks of s, so block b is steps b*s .. b*s+s-1 and its previous-state
    block is the output of block b-1, row for row. A short last block (s not
    dividing the length) takes the first rows of that output. s=1 is a plain
    recurrent scan. The input side is computed for chunks of whole blocks
    (the whole sequence when it is small, see _CHUNK_ELEMS), and every block
    writes its output into one buffer, which is the layer's output.
    """
    if s < 1:
        raise UsageError("dilation must be >= 1")
    steps = inputs.data.shape[0]
    if steps < 1:
        raise DimensionError("empty input sequence")
    cell = FoldedCell(w)
    out = np.empty(inputs.data.shape[:-1] + (w.d_h,))
    block_elems = out[:s].size // w.d_h * (w.order * w.d_x + 3 * w.d_h)
    chunk = s * max(1, _CHUNK_ELEMS // block_elems)
    h = None  # the zero state
    blocks = []
    for c0 in range(0, steps, chunk):
        x = inputs if chunk >= steps else T.select_step(inputs, slice(c0, c0 + chunk))
        xw = cell.input_side(lap, x)
        for lo in range(c0, min(c0 + chunk, steps), s):
            hi = min(lo + s, steps)
            if h is not None and hi - lo < h.data.shape[0]:
                h = T.select_step(h, slice(0, hi - lo))
            h = cell.step(lap, xw, h, slice(lo - c0, hi - c0), out[lo:hi], lo)
            blocks.append(h)
    return T.concat_steps(blocks, out)


def encode(
    layers: list,
    laps: list,
    inputs: Tensor,
    dilations: list,
    pm=None,
    pool_mode: str = "max",
    pool_levels: int = 0,
):
    """Run the downsampling-side stack.

    Layer k consumes the (possibly pooled) output of layer k-1 using laps[k]
    and dilation dilations[k], where layer 0 runs undilated; after layer k the
    signal is pooled one spatial level when k < pool_levels. Returns the
    per-layer output sequences, which feed the skip connections.
    """
    if not len(layers) == len(laps) == len(dilations):
        raise ModelError("layers, laplacians and dilations must align")
    if not dilations or dilations[0] != 1:
        raise UsageError(f"dilations {dilations} must start with 1: layer 0 runs undilated")
    if pool_levels > 0 and pm is None:
        raise ModelError("pooling requested without a partition hierarchy")
    outputs = []
    x = inputs
    for k, w in enumerate(layers):
        y = dilated_layer_forward(w, laps[k], x, dilations[k])
        outputs.append(y)
        x = y
        if k < pool_levels and k + 1 < len(layers):
            x = st_pool_spatial(x, pm, pool_mode, from_level=k, to_level=k + 1)
    return outputs


def decode(
    w: GCGRUWeights,
    lap: GraphLaplacian,
    initial: GCGRUState,
    horizon: int,
    go_symbol: Tensor,
    readout,
    targets: Tensor | None = None,
    teacher: tuple | None = None,
) -> Tensor:
    """Roll the decoder cell for `horizon` steps.

    The first input is the go symbol; afterwards each step consumes the
    previous prediction, or the previous ground-truth target where
    ``teacher`` says: horizon - 1 choices drawn by ``teacher_steps``
    (scheduled sampling). None takes no target. `readout` maps a hidden
    state to an output step.
    """
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if any(teacher or ()) and targets is None:
        raise UsageError("scheduled sampling requires targets")
    if teacher is None:
        teacher = (False,) * (horizon - 1)
    if len(teacher) != horizon - 1:
        raise UsageError(f"teacher choices: {len(teacher)} for {horizon - 1} decoder steps")
    h = initial.h
    cell = FoldedCell(w)
    x = go_symbol
    preds = []
    for t in range(horizon):
        h = cell.step(lap, cell.input_side(lap, x), h, None, None, t)
        y = readout(h)
        preds.append(y)
        if t + 1 < horizon:
            if teacher[t]:
                x = T.select_step(targets, t)
            else:
                x = y
    return T.stack_steps(preds)
