"""Dataset ingestion, windowing, normalization, and synthetic generation.

Series files are CSV with T rows and N*D columns, node-major (node0_f0,
node0_f1, ..., node1_f0, ...). Adjacency comes as a dense matrix, an edge
list, or a distance list mapped through a Gaussian kernel. Every file is one
table: a first line is a header only when it holds no number, the rows are
parsed in one call, and row by row only to name a bad line. Lists are checked
as arrays and reach ``Graph.from_edges`` as one (m, 3) array. The synthetic
generator runs a noisy diffusion along a graph's edges, so that each node's
future depends on its neighbors: structure a graph-aware forecaster can use.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GraphError, UsageError
from .graph import Graph

log = logging.getLogger(__name__)

DEFAULT_SPLITS = (0.7, 0.1, 0.2)


@dataclass
class WindowConfig:
    """History length J and forecast horizon H."""

    j: int
    h: int

    def __post_init__(self):
        if self.j < 1 or self.h < 1:
            raise UsageError("window lengths J and H must be >= 1")


@dataclass
class TimeSeriesDataset:
    """Graph signal series (T, N, D) with contiguous time splits."""

    series: np.ndarray
    graph: Graph
    splits: tuple = DEFAULT_SPLITS
    interval_minutes: float = 5.0

    def __post_init__(self):
        s = np.asarray(self.series, dtype=np.float64)
        if s.ndim != 3:
            raise DataError(f"series must be (T, N, D), got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise DataError("series holds non-finite values")
        if s.shape[1] != self.graph.n:
            raise DataError(
                f"series node extent {s.shape[1]} != graph size {self.graph.n}"
            )
        if len(self.splits) != 3 or any(f < 0 for f in self.splits) or not np.isclose(
            sum(self.splits), 1.0
        ):
            raise DataError("split fractions must be nonnegative and sum to 1")
        self.series = s

    @property
    def t(self) -> int:
        return self.series.shape[0]

    @property
    def d(self) -> int:
        return self.series.shape[2]

    def split_range(self, split: str) -> tuple:
        """Contiguous [start, stop) row range of a split.

        Each boundary length is floored independently so a fraction like
        0.7 + 0.1 never loses a row to float rounding.
        """
        t = self.t
        t1 = int(t * self.splits[0])
        t2 = t1 + int(t * self.splits[1])
        ranges = {"train": (0, t1), "val": (t1, t2), "test": (t2, t)}
        if split not in ranges:
            raise UsageError(f"unknown split {split!r}")
        return ranges[split]

    def split_series(self, split: str) -> np.ndarray:
        lo, hi = self.split_range(split)
        return self.series[lo:hi]


def make_windows(ds: TimeSeriesDataset, wc: WindowConfig, split: str, fn=None):
    """Stride-1 sliding (input, target) windows over one split.

    Returns (inputs (W, J, N, D), targets (W, H, N, D)); W = T_split - J - H + 1.
    Both are read-only strided views of the split's rows: no window is copied.
    ``fn``, an elementwise map such as ``STUNet.normalize``, is applied to
    those rows first, and the windows are views of its result, which holds
    the split's rows alone.
    """
    rows = ds.split_series(split)
    count = rows.shape[0] - wc.j - wc.h + 1
    if count < 1:
        raise DataError(
            f"split {split!r} has {rows.shape[0]} rows; needs >= {wc.j + wc.h}"
        )
    if fn is not None:
        rows = fn(rows)
    view = np.lib.stride_tricks.sliding_window_view  # window axis last, read-only
    inputs = view(rows[: count + wc.j - 1], wc.j, axis=0)
    targets = view(rows[wc.j :], wc.h, axis=0)
    return np.moveaxis(inputs, -1, 1), np.moveaxis(targets, -1, 1)


class Normalizer:
    """Per-feature z-score statistics of the training split (population
    variance), which a model keeps in its ``norm`` buffers and applies."""

    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def fit(self, rows: np.ndarray) -> "Normalizer":
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 3:
            raise DataError(f"normalizer expects (T, N, D) rows, got {rows.shape}")
        self.mean = rows.mean(axis=(0, 1))
        std = rows.std(axis=(0, 1))
        flat = std <= 0
        if np.any(flat):
            log.warning("constant feature(s) %s; std fallback 1", np.where(flat)[0])
            std = np.where(flat, 1.0, std)
        self.std = std
        return self


# -- file ingestion ----------------------------------------------------------


def _parse_float(tok: str, path: str, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: bad number {tok!r}") from exc
    if not np.isfinite(v):
        raise DataError(f"{path}:{lineno}: non-finite value {tok!r}")
    return v


def _parse_table(lines: list, path: str, width: int | None = None) -> np.ndarray:
    """Data lines as one (rows, columns) array, parsed in one call. Only if
    that fails, or yields a non-finite value or not ``width`` columns, are the
    lines parsed row by row, to raise DataError naming the line and token."""
    if not any(map(_is_number, lines[0][1].split(","))):
        lines = lines[1:]  # a header: none of its tokens is a number
    if not lines:
        raise DataError(f"{path}: no data rows")
    try:
        table = np.loadtxt([line for _, line in lines], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is not None and np.all(np.isfinite(table)) and width in (None, table.shape[1]):
        return table
    rows = []
    for lineno, line in lines:
        toks = line.split(",")
        expected = width or (len(rows[0]) if rows else len(toks))
        if len(toks) != expected:
            raise DataError(f"{path}:{lineno}: expected {expected} columns, got {len(toks)}")
        rows.append([_parse_float(t.strip(), path, lineno) for t in toks])
    return np.array(rows)


def _data_lines(path: str, error: type = DataError):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    out = []
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def load_adjacency(
    path: str,
    fmt: str = "dense_csv",
    sigma: float = 1.0,
    eps: float = 0.0,
) -> Graph:
    """Read a graph as a dense matrix, an `i,j,w` edge list (symmetrized by
    max), or an `i,j,d` distance list with W = exp(-d^2/sigma^2) when >= eps
    (sigma > 0). A list's node ids are integral values below 2**31, its node
    count the largest plus one; its self-loops are dropped. A file that breaks
    a rule of ``Graph`` raises DataError naming the file."""
    lines = _data_lines(path)
    if not lines:
        raise DataError(f"{path}: empty adjacency file")
    if fmt == "dense_csv":
        w = _parse_table(lines, path)
        if w.shape[0] != w.shape[1]:
            raise DataError(f"{path}: dense adjacency must be square, got {w.shape}")
        if np.any(w.diagonal() < 0):  # a self-loop is dropped, but not a bad one
            raise DataError(f"{path}: negative weight in adjacency")
        np.fill_diagonal(w, 0.0)
        try:
            return Graph(w)
        except GraphError as exc:
            raise DataError(f"{path}: {exc}") from None
    if fmt in ("edge_list", "distance_gaussian"):
        if fmt == "distance_gaussian" and not sigma > 0:
            raise DataError(f"{path}: distance_gaussian needs sigma > 0, got {sigma}")
        table = _parse_table(lines, path, 3)
        ends, val = table[:, :2], table[:, 2]
        # each row's first fault, in the order of the checks: 1, 2 or 3
        bad_id = ((ends != np.floor(ends)) | (ends >= 2**31)).any(axis=1)
        fault = np.select([bad_id, (ends < 0).any(axis=1), val < 0], [1, 2, 3])
        if fault.any():
            k = int(np.argmax(fault > 0))
            lineno, line = lines[k - len(table)]  # the table's rows: the lines past any header
            why = (f"bad node id in {line!r}", "negative node id", "negative weight/distance")
            raise DataError(f"{path}:{lineno}: {why[fault[k] - 1]}")
        edges = table[ends[:, 0] != ends[:, 1]]  # a self-loop's nodes still count
        if fmt == "distance_gaussian":
            d = edges[:, 2]
            edges[:, 2] = np.exp(-(d * d) / (sigma * sigma))
            edges = edges[~(edges[:, 2] < eps)]
        return Graph.from_edges(int(ends.max()) + 1, edges)
    raise UsageError(f"unknown adjacency format {fmt!r}")


def save_adjacency_dense(path: str, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in g.weights:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_series(path: str, n: int, d: int = 1) -> np.ndarray:
    """Read a (T, N, D) series from CSV rows of N*D node-major columns."""
    lines = _data_lines(path)
    if not lines:
        raise DataError(f"{path}: empty series file")
    rows = _parse_table(lines, path, n * d)
    return rows.reshape(len(rows), n, d)


def save_series(path: str, series: np.ndarray) -> None:
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 3:
        raise DataError(f"series must be (T, N, D), got {series.shape}")
    t, n, d = series.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"node{i}_f{k}" for i in range(n) for k in range(d)) + "\n")
        flat = series.reshape(t, n * d)
        for row in flat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_manifest(path: str, fields: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(fields):
            fh.write(f"{key}={fields[key]}\n")


def read_manifest(path: str, error: type = DataError) -> dict:
    """Flat key=value lines of a manifest, or of a run's config file; blank
    lines and # comments are skipped. Callers type the text values."""
    out = {}
    for lineno, line in _data_lines(path, error):
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


# -- synthetic generation ----------------------------------------------------


def knn_grid_graph(rows: int, cols: int) -> Graph:
    """Grid of rows x cols nodes, unit edges to the four axis neighbors."""
    if rows < 1 or cols < 1:
        raise UsageError("grid extents must be >= 1")
    ids = np.arange(rows * cols).reshape(rows, cols)
    i = np.concatenate((ids[:, :-1].ravel(), ids[:-1].ravel()))  # right, then down
    j = np.concatenate((ids[:, 1:].ravel(), ids[1:].ravel()))
    return Graph.from_edges(rows * cols, np.column_stack((i, j, np.ones(i.size))))


def synth_diffusion(
    graph: Graph,
    t: int,
    alpha: float,
    noise_sigma: float,
    seed: int,
    mode: str = "row",
    splits: tuple = DEFAULT_SPLITS,
    interval_minutes: float = 5.0,
) -> TimeSeriesDataset:
    """Noisy graph diffusion: X_{t+1} = alpha*A*X_t + (1-alpha)*X_t + noise.

    mode='row' averages each node's neighbors (A = D^-1 W; isolated nodes keep
    their value). mode='symmetric' uses the doubly stochastic A = I - (D-W)/
    d_max inside the same blend, which conserves the global mean when
    noise_sigma = 0. A*X comes from the edge arrays, O(|E|) per step.
    """
    if not 0 <= alpha < 1:
        raise UsageError("alpha must lie in [0, 1)")
    if t < 2:
        raise UsageError("need at least 2 steps")
    if not 0 <= noise_sigma < np.inf:
        raise UsageError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not 0 < interval_minutes < np.inf:
        raise UsageError(f"interval_minutes must be finite and > 0, got {interval_minutes}")
    rows, cols, w = graph.directed()
    deg = graph.degrees()
    if mode == "row":  # a_ij = w_ij / d_i; an isolated node keeps its value
        w, diag = w / deg[rows], (deg == 0) * 1.0
    elif mode == "symmetric":  # a_ij = w_ij / d_max, a_ii = 1 - d_i / d_max
        d_max = deg.max(initial=0.0) or 1.0  # no edges: A = I
        w, diag = w / d_max, 1.0 - deg / d_max
    else:
        raise UsageError(f"unknown diffusion mode {mode!r}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(graph.n)
    frames = [x]
    for _ in range(t - 1):
        ax = np.bincount(rows, w * x[cols], graph.n) + diag * x
        x = alpha * ax + (1.0 - alpha) * x
        if noise_sigma > 0:
            x = x + noise_sigma * rng.standard_normal(x.shape)
        frames.append(x)
    series = np.stack(frames)[..., None]
    return TimeSeriesDataset(
        series=series, graph=graph, splits=splits, interval_minutes=interval_minutes
    )
