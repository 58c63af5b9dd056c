"""U-shaped assembly of graph-convolutional recurrent layers.

The encoder runs a stack of GCGRU layers whose temporal dilation multiplies
by s at each stage and which pool one spatial level after each of the first
p stages. The decoder side mirrors it: unpool, concatenate the same-stage
encoder sequence, reconcile channels with a linear map, and run an undilated
GCGRU. The concatenation is built in place: the encoder sequence is copied
into one array first, and the unpool writes its result beside it, so under
no_grad neither is held next to a copy of itself. A plain seq2seq decoder
rolls out the horizon from the final state, with a Chebyshev-convolution
readout per step. With p=0 and s=1 the network degenerates to a plain
stacked-GCGRU seq2seq and is built as exactly that.

A checkpoint stores the config, every tensor and, since version 2, the
partition and λmax of the training graph under its fingerprint, so a load on
that graph derives neither again.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .errors import CheckpointError, DimensionError, ModelError, StunetError, UsageError
from .graph import ChebKernel, Graph, GraphLaplacian, cheb_filter, normalized_laplacian
from .partition import PartitionMap, multilevel_partition
from .recurrent import (
    GCGRUState, GCGRUWeights, decode, dilated_layer_forward, encode, init_gcgru_weights,
)
from .sampling import UNPOOL_MODES, init_unpool, unpool
from .tensor import Tensor, member_table

VARIANTS = ("GCGRU", "T-UNet", "S-UNet", "ST-UNet")

CHECKPOINT_MAGIC = b"STUN"
CHECKPOINT_VERSION = 2  # version 1 files, which hold no graph block, still load


@dataclass(frozen=True)
class STUNetConfig:
    """Architecture hyperparameters; hidden_sizes has one width per stage."""

    k: int = 3
    p: int = 2
    s: int = 2
    hidden_sizes: tuple = (64, 64, 64)
    pool_mode: str = "max"
    unpool_mode: str = "direct_copy"
    layer_norm: bool = True
    j: int = 12
    h: int = 3
    d_in: int = 1
    d_out: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.k < 1 or self.p < 0 or self.s < 1:
            raise ModelError("require K >= 1, p >= 0, s >= 1")
        if self.j < 1 or self.h < 1 or self.d_in < 1 or self.d_out < 1:
            raise ModelError("require J, H, D_in, D_out >= 1")
        if not self.hidden_sizes or any(int(c) < 1 for c in self.hidden_sizes):
            raise ModelError("hidden_sizes must be positive")
        if self.p > len(self.hidden_sizes) - 1:
            raise ModelError(
                f"pooling level {self.p} needs at least {self.p + 1} stages, "
                f"got {len(self.hidden_sizes)}"
            )
        if self.pool_mode not in ("max", "mean"):
            raise ModelError(f"unknown pooling mode {self.pool_mode!r}")
        if self.unpool_mode not in UNPOOL_MODES:
            raise ModelError(f"unknown unpooling strategy {self.unpool_mode!r}")

    @property
    def is_plain_stack(self) -> bool:
        """No pooling and no dilation: the U collapses to a layer stack."""
        return self.p == 0 and self.s == 1

    def to_lines(self) -> str:
        return "".join(
            f"{f.name}={_TO_TEXT.get(type(f.default), str)(getattr(self, f.name))}\n"
            for f in fields(self)
        )

    @classmethod
    def from_lines(cls, text: str) -> "STUNetConfig":
        kv = {}
        for line in filter(None, map(str.strip, text.splitlines())):
            key, eq, val = line.partition("=")
            if not eq:
                raise CheckpointError(f"bad config line {line!r}")
            kv[key] = val
        values = {}
        for f in fields(cls):
            if f.name not in kv:
                raise CheckpointError(f"config block missing key {f.name!r}")
            values[f.name] = parse_field(f.name, kv[f.name], f.default, CheckpointError)
        return cls(**values)


# config text of the field types that str() and the type's own parse do not round-trip
_TO_TEXT = {tuple: lambda v: ",".join(str(int(c)) for c in v), bool: lambda v: str(int(v))}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _int_tuple(text: str) -> tuple:
    values = tuple(int(c) for c in text.replace(" ", "").split(",") if c)
    if not values:
        raise ValueError(text)
    return values


_FROM_TEXT = {tuple: _int_tuple, bool: lambda t: _BOOL_WORDS[t.strip().lower()]}
_EXPECTS = {int: "an integer", float: "a number", bool: "true or false",
            tuple: "a comma list of integers"}


def parse_field(name: str, text: str, default, error: type, where: str = ""):
    """Command-line, checkpoint or manifest text of field ``name`` as a value of
    its default's type (a None default, as of ``horizons``, means a tuple). A
    bad value raises ``error``, prefixed by ``where``, naming field and text."""
    kind = tuple if default is None else type(default)
    try:
        return _FROM_TEXT.get(kind, kind)(text)
    except (ValueError, KeyError):
        raise error(
            f"{where}config field {name}={text!r} is malformed: "
            f"{name!r} expects {_EXPECTS[kind]}"
        ) from None


def variant(config: STUNetConfig, which: str) -> STUNetConfig:
    """Ablation variants: disable pooling, dilation, neither, or both."""
    if which == "GCGRU":
        return replace(config, p=0, s=1)
    if which == "T-UNet":
        return replace(config, p=0)
    if which == "S-UNet":
        return replace(config, s=1)
    if which == "ST-UNet":
        return config
    raise UsageError(f"unknown variant {which!r}; expected one of {VARIANTS}")


@dataclass
class STUNetParams:
    """Every learnable tensor and persistent buffer, each registered once; a
    buffer is a tensor that requires no gradient."""

    entries: list  # (name, Tensor) in registration order
    names: set = field(default_factory=set)

    def register(self, name: str, t: Tensor) -> Tensor:
        if name in self.names:
            raise ModelError(f"duplicate parameter name {name!r}")
        self.names.add(name)
        self.entries.append((name, t))
        return t

    def trainable(self) -> list:
        return [t for _, t in self.entries if t.requires_grad]


class STUNet:
    """Built model: parameters plus the cached partition and Laplacians, which
    ``derived`` (stored partition parents, λmax per level) spares deriving."""

    def __init__(self, config: STUNetConfig, graph: Graph, derived: tuple | None = None):
        config.validate()
        self.config = config
        self.graph = graph
        parents, lambdas = derived or (None, [None] * (config.p + 1))
        self.pm: PartitionMap | None = None
        if config.p > 0:
            self.pm = (multilevel_partition(graph, config.p) if parents is None
                       else PartitionMap.from_parents(graph, parents))
        graphs = self.pm.graphs if self.pm else [graph]
        self.laps = [normalized_laplacian(g, lam) for g, lam in zip(graphs, lambdas)]
        self.params = STUNetParams(entries=[])
        self._init_params(np.random.default_rng(config.seed))
        # persistent normalization buffers, identity until a trainer fits them
        self.norm_mean = self.params.register("norm.mean", Tensor(np.zeros(config.d_in)))
        self.norm_std = self.params.register("norm.std", Tensor(np.ones(config.d_in)))

    # -- construction ------------------------------------------------------

    def _lap_at_stage(self, k: int) -> GraphLaplacian:
        return self.laps[min(k, self.config.p)]

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        reg = self.params.register
        self.enc_layers = []
        widths = [cfg.d_in] + [int(c) for c in cfg.hidden_sizes]
        hidden = widths[1:]
        for k in range(len(hidden)):
            w = init_gcgru_weights(rng, cfg.k, widths[k], widths[k + 1], cfg.layer_norm)
            self._register_cell(f"enc{k}", w)
            self.enc_layers.append(w)
        self.up_fuse: list = []
        self.up_layers: list = []
        self.unpools: list = []
        if not cfg.is_plain_stack:
            for k in reversed(range(len(hidden) - 1)):
                if k < cfg.p:
                    up = init_unpool(rng, cfg.unpool_mode, hidden[k + 1])
                    for i, t in enumerate(up.params()):
                        reg(f"up{k}.unpool{i}", t)
                else:
                    up = None
                fuse = T.glorot_from(rng, (hidden[k + 1] + hidden[k], hidden[k]))
                reg(f"up{k}.fuse", fuse)
                cell = init_gcgru_weights(rng, cfg.k, hidden[k], hidden[k], cfg.layer_norm)
                self._register_cell(f"up{k}.cell", cell)
                self.unpools.insert(0, up)
                self.up_fuse.insert(0, fuse)
                self.up_layers.insert(0, cell)
        # the plain stack decodes from its last layer, the U from its stage-0 up layer
        dec_width = hidden[-1] if cfg.is_plain_stack else hidden[0]
        self.dec = init_gcgru_weights(rng, cfg.k, cfg.d_out, dec_width, cfg.layer_norm)
        self._register_cell("dec", self.dec)
        self.readout_k = ChebKernel.init(rng, cfg.k, cfg.d_out, dec_width)
        reg("readout.theta", self.readout_k.theta)
        self.readout_b = reg(
            "readout.bias", Tensor(np.zeros(cfg.d_out), requires_grad=True)
        )

    def _register_cell(self, prefix: str, w: GCGRUWeights) -> None:
        for name, t in w.named_params():
            self.params.register(f"{prefix}.{name}", t)

    # -- forward -----------------------------------------------------------

    def forward(
        self,
        inputs: Tensor,
        targets: Tensor | None = None,
        teacher: tuple | None = None,
    ) -> Tensor:
        cfg = self.config
        if inputs.data.ndim < 3 or inputs.data.shape[0] != cfg.j:
            raise DimensionError(
                f"inputs must be (J={cfg.j}, ..., N, D_in), got {inputs.data.shape}"
            )
        if inputs.data.shape[-2] != self.graph.n or inputs.data.shape[-1] != cfg.d_in:
            raise DimensionError(
                f"inputs trailing extents {inputs.data.shape[-2:]} do not match "
                f"(N={self.graph.n}, D_in={cfg.d_in})"
            )
        stages = len(cfg.hidden_sizes)
        enc_outs = encode(
            self.enc_layers,
            [self._lap_at_stage(k) for k in range(stages)],
            inputs,
            [cfg.s ** k for k in range(stages)],
            pm=self.pm,
            pool_mode=cfg.pool_mode,
            pool_levels=cfg.p,
        )
        # each output is dropped once its skip has used it: under no_grad that frees it
        x = enc_outs.pop()
        for k in reversed(range(len(self.up_layers))):  # none in the plain stack
            x = self._skip_join(k, x, enc_outs.pop())
            x = T.matmul(x, self.up_fuse[k])
            x = dilated_layer_forward(self.up_layers[k], self._lap_at_stage(k), x, 1)
        conv = cheb_filter(self.readout_k, self.laps[0])  # one kernel fold per forward
        go = Tensor(np.zeros(inputs.data.shape[1:-1] + (cfg.d_out,)))
        return decode(
            self.dec,
            self.laps[0],
            GCGRUState(T.select_step(x, cfg.j - 1)),
            cfg.h,
            go,
            lambda h: T.add_bias(conv(h), self.readout_b),
            targets=targets,
            teacher=teacher,
        )

    def _skip_join(self, k: int, x: Tensor, skip: Tensor) -> Tensor:
        """Up stage k's input ``x``, unpooled when k < p, joined with the
        encoder output ``skip`` (channels last) in one array built in place.
        The skip moves in first, so under no_grad its own array is freed before
        the unpool writes the left-hand channels."""
        c = x.data.shape[-1]
        join = np.empty(skip.data.shape[:-1] + (c + skip.data.shape[-1],))
        T.move_into(skip, join[..., c:])
        if k < self.config.p:
            x = unpool(x, self.pm, self.unpools[k], from_level=k + 1, to_level=k,
                       out=join[..., :c])
        else:
            T.move_into(x, join[..., :c])
        return T.concat_channels(x, skip, out=join)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Original-scale values (..., D_in) as the model reads them, scaled by
        its ``norm.mean``/``norm.std`` buffers, in a new array."""
        out = x - self.norm_mean.data
        out /= self.norm_std.data
        return out

    def denormalize(self, y: np.ndarray) -> np.ndarray:
        """Model outputs mapped back to the original scale, in a new array."""
        out = y * self.norm_std.data
        out += self.norm_mean.data
        return out

    def trainable_params(self) -> list:
        return self.params.trainable()


def build(config: STUNetConfig, graph: Graph, derived: tuple | None = None) -> STUNet:
    """Partition, precompute Laplacians, and draw all parameters from seed."""
    return STUNet(config, graph, derived)


def loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of the L1 and L2 losses over all elements."""
    if pred.data.shape != target.data.shape:
        raise DimensionError(
            f"loss shapes differ: {pred.data.shape} vs {target.data.shape}"
        )
    err = T.sub(pred, target)
    l1 = T._reduce_mean(T._abs(err))
    l2 = T._reduce_mean(T.hadamard(err, err))
    return T.scale(T.add(l1, l2), 0.5)


# -- checkpoint container ---------------------------------------------------


def _graph_fingerprint(graph: Graph) -> bytes:
    """Node count, edge count and SHA-256 of ``Graph.edge_arrays()``: 40 bytes."""
    i, j, w = graph.edge_arrays()
    body = i.astype("<i8").tobytes() + j.astype("<i8").tobytes() + w.astype("<f8").tobytes()
    return struct.pack("<II", graph.n, w.size) + hashlib.sha256(body).digest()


def save_checkpoint(model: STUNet, path: str) -> None:
    """Bit-exact container: magic, version, config text block, every
    registered tensor in registration order, then the graph block: a zero
    name length, the graph fingerprint, the partition parents of each level
    and each level's λmax."""
    # written beside the target and renamed over it, so a save that fails
    # halfway leaves the previous file whole
    tmp = f"{path}.{os.getpid()}.tmp"
    parents = model.pm.parents if model.pm else []
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            cfg_block = model.config.to_lines().encode("utf-8")
            fh.write(struct.pack("<I", len(cfg_block)))
            fh.write(cfg_block)
            for name, t in model.params.entries:
                nb = name.encode("utf-8")
                fh.write(struct.pack("<I", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<I", t.data.ndim))
                for extent in t.data.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
            fh.write(struct.pack("<I", 0) + _graph_fingerprint(model.graph))
            fh.write(struct.pack("<I", len(parents)))
            for parent in parents:
                fh.write(struct.pack("<I", parent.size) + parent.astype("<u4").tobytes())
            fh.write(np.array([lap.lambda_max for lap in model.laps], dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_exact(fh, n: int, path: str, part: str) -> bytes:
    b = fh.read(n)
    if len(b) != n:
        raise CheckpointError(f"{path}: checkpoint truncated in {part}")
    return b


def _unpack(fh, fmt: str, path: str, part: str) -> tuple:
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), path, part))


def _read_header(fh, path: str) -> tuple:
    """(config, version) from magic, version and config block; leaves ``fh``
    at the first tensor."""
    if _read_exact(fh, 4, path, "header") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    (version,) = _unpack(fh, "<I", path, "header")
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(f"{path}: unsupported version {version}")
    (n,) = _unpack(fh, "<I", path, "header")
    text = _read_exact(fh, n, path, "config")
    try:
        return STUNetConfig.from_lines(text.decode("utf-8")), version
    except (UnicodeDecodeError, CheckpointError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def read_checkpoint_config(path: str) -> STUNetConfig:
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def _read_graph_block(fh, path: str, config: STUNetConfig) -> tuple:
    """(fingerprint, parents, λmax per level), each field validated."""
    fingerprint = _read_exact(fh, 40, path, "graph block fingerprint")
    n = int.from_bytes(fingerprint[:4], "little")
    (levels,) = _unpack(fh, "<I", path, "graph block")
    if levels != config.p:
        raise CheckpointError(f"{path}: graph block holds {levels} parent arrays, p={config.p}")
    parents = []
    for k in range(levels):
        (size,) = _unpack(fh, "<I", path, f"graph block parents[{k}]")
        raw = _read_exact(fh, 4 * size, path, f"graph block parents[{k}]")
        parent = np.frombuffer(raw, dtype="<u4").astype(np.int64)
        try:  # ids past the level's size are out of range before any count is taken
            _, counts = member_table(parent, n, min(int(parent.max(initial=-1)) + 1, n))
        except StunetError as exc:
            raise CheckpointError(f"{path}: graph block parents[{k}]: {exc}") from None
        parents.append(parent)
        n = counts.size
    lambdas = np.frombuffer(_read_exact(fh, 8 * levels + 8, path, "graph block lambda_max"), "<f8")
    if not np.all(np.isfinite(lambdas) & (lambdas > 0)):
        raise CheckpointError(f"{path}: graph block lambda_max {lambdas} not all finite and > 0")
    return fingerprint, parents, lambdas.tolist()


def load_checkpoint(path: str, graph: Graph) -> STUNet:
    """Restore a model on ``graph`` from the stored config and tensors. A
    version 2 file whose graph fingerprint matches ``graph`` supplies the
    partition and λmax; a version 1 file or another graph derives them again.
    A tensor holding NaN or inf, or a ``norm.std`` not above 0, is an error
    naming it."""
    with open(path, "rb") as f:
        raw = f.read()
    fh = io.BytesIO(raw)  # a corrupt extent cannot ask for more than the file holds
    config, version = _read_header(fh, path)
    stored = []
    while version > 1 or fh.tell() < len(raw):  # a version 1 file ends with its last tensor
        (name_len,) = _unpack(fh, "<I", path, "tensor name")
        if name_len == 0:  # the graph block
            break
        name = _read_exact(fh, name_len, path, "tensor name").decode("utf-8", "replace")
        (rank,) = _unpack(fh, "<I", path, f"tensor {name}")
        shape = _unpack(fh, f"<{rank}I", path, f"tensor {name}")
        data = _read_exact(fh, 8 * math.prod(shape), path, f"tensor {name}")
        tensor = np.frombuffer(data, dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(tensor)):
            raise CheckpointError(f"{path}: tensor {name} holds NaN or inf")
        if name == "norm.std" and not np.all(tensor > 0):
            raise CheckpointError(f"{path}: tensor {name} holds a scale that is not above 0")
        stored.append((name, tensor))
    derived = None
    if version > 1:
        fingerprint, parents, lambdas = _read_graph_block(fh, path, config)
        if fingerprint == _graph_fingerprint(graph):
            derived = (parents, lambdas)
    if fh.read(1):
        raise CheckpointError(f"{path}: trailing bytes after the checkpoint")
    model = build(config, graph, derived)
    entries = model.params.entries
    for (got, data), (name, t) in zip(stored, entries):
        if got != name:
            raise CheckpointError(f"{path}: parameter order mismatch ({got!r} != {name!r})")
        if data.shape != t.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: {data.shape} != {t.shape}")
        t.data[...] = data
    if len(stored) != len(entries):
        raise CheckpointError(f"{path}: holds {len(stored)} tensors, config needs {len(entries)}")
    return model
