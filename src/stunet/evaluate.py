"""Forecast metrics (MAE/MAPE/RMSE on original-scale values), the
historical-average baseline, and the experiment grids, with aligned-text and
CSV reports.

The variant ablation and the unpool-strategy comparison each give run_grid a
list of labels, a list of seeds and a ``configure(label, seed)`` that returns
the cell's RunConfig. run_grid trains and evaluates every (label, seed) cell
under one failure policy: a StunetError is recorded in its cell, a non-finite
MAE or RMSE marks the cell not converged, and any other exception propagates.
The two tables share ExperimentCell and the per-cell CSV rows of
ExperimentTable, whose metric columns are data.
"""

from __future__ import annotations

import math
import os
import subprocess
from dataclasses import dataclass, replace

import numpy as np

from .data import TimeSeriesDataset, WindowConfig, make_windows
from .errors import DimensionError, MetricError, StunetError, UsageError
from .model import STUNet, VARIANTS, variant
from .sampling import UNPOOL_MODES
from .training import RunConfig, predict_windows, train_model

MASK_THRESHOLD_DEFAULT = 1e-3
ABLATION_SEEDS_DEFAULT = 5


def _as_pair(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(
            f"prediction shape {pred.shape} does not match target shape {target.shape}"
        )
    return pred, target


def mae(pred, target) -> float:
    pred, target = _as_pair(pred, target)
    return float(np.mean(np.abs(pred - target)))


def mse(pred, target) -> float:
    pred, target = _as_pair(pred, target)
    err = pred - target
    return float(np.mean(err * err))


def rmse(pred, target) -> float:
    return math.sqrt(mse(pred, target))


def _mape_parts(pred, target, mask_threshold):
    """(percent value, used count, masked count); value is nan when nothing is used."""
    pred, target = _as_pair(pred, target)
    keep = np.abs(target) >= mask_threshold
    n_used = int(keep.sum())
    n_masked = int(target.size - n_used)
    if n_used == 0:
        return math.nan, 0, n_masked
    ratio = np.abs((pred[keep] - target[keep]) / target[keep])
    return float(np.mean(ratio) * 100.0), n_used, n_masked


def mape(pred, target, mask_threshold: float = MASK_THRESHOLD_DEFAULT) -> float:
    """Mean absolute percentage error over entries with |target| >= threshold."""
    value, n_used, _ = _mape_parts(pred, target, mask_threshold)
    if n_used == 0:
        raise MetricError("every target entry falls below the MAPE mask threshold")
    return value


@dataclass
class HorizonRow:
    """Metrics for one forecast step (step 0 aggregates all requested steps)."""

    step: int
    minutes: float
    mae: float
    mape: float  # percent; nan when every entry of the slice is masked
    mse: float
    rmse: float
    n_samples: int
    n_masked: int

    def label(self) -> str:
        return "all" if self.step == 0 else str(self.step)


@dataclass
class MetricReport:
    rows: list
    overall: HorizonRow

    def all_rows(self) -> list:
        return list(self.rows) + [self.overall]

    def rmse_dominates(self) -> bool:
        return all(r.rmse >= r.mae for r in self.all_rows())

    def render_text(self, provenance=()) -> str:
        lines = list(provenance)
        lines.append(
            f"{'step':>5} {'minutes':>8} {'mae':>12} {'mape%':>12} "
            f"{'rmse':>12} {'samples':>9} {'masked':>7}"
        )
        for r in self.all_rows():
            mins = f"{r.minutes:.1f}" if r.step else "-"
            lines.append(
                f"{r.label():>5} {mins:>8} {r.mae:>12.6f} {r.mape:>12.6f} "
                f"{r.rmse:>12.6f} {r.n_samples:>9d} {r.n_masked:>7d}"
            )
        return "\n".join(lines) + "\n"

    def render_csv(self, provenance=()) -> str:
        lines = list(provenance)
        lines.append("step,minutes,mae,mape_percent,mse,rmse,n_samples,n_masked")
        for r in self.all_rows():
            mins = f"{r.minutes:.6f}" if r.step else ""
            lines.append(
                f"{r.label()},{mins},{r.mae:.6f},{r.mape:.6f},"
                f"{r.mse:.6f},{r.rmse:.6f},{r.n_samples},{r.n_masked}"
            )
        return "\n".join(lines) + "\n"


def _slice_row(pred, target, step, minutes, mask_threshold) -> HorizonRow:
    value, _, n_masked = _mape_parts(pred, target, mask_threshold)
    sq = mse(pred, target)
    return HorizonRow(
        step=step,
        minutes=minutes,
        mae=mae(pred, target),
        mape=value,
        mse=sq,
        rmse=math.sqrt(sq),
        n_samples=int(pred.size),
        n_masked=n_masked,
    )


def horizon_report(pred, target, steps=None, interval_minutes: float = 5.0,
                   mask_threshold: float = MASK_THRESHOLD_DEFAULT) -> MetricReport:
    """Per-horizon metrics for stacked windows shaped (windows, H, nodes, features)."""
    pred, target = _as_pair(pred, target)
    if pred.ndim != 4:
        raise DimensionError(f"expected (windows, steps, nodes, features), got {pred.shape}")
    h = pred.shape[1]
    steps = tuple(range(1, h + 1)) if steps is None else tuple(int(s) for s in steps)
    if not steps or any(s < 1 or s > h for s in steps) or len(set(steps)) < len(steps):
        raise UsageError(f"metric steps {steps} must be distinct and lie in 1..{h}")
    rows = [
        _slice_row(pred[:, s - 1], target[:, s - 1], s, s * interval_minutes, mask_threshold)
        for s in steps
    ]
    sel = [s - 1 for s in steps]
    overall = _slice_row(pred[:, sel], target[:, sel], 0, 0.0, mask_threshold)
    return MetricReport(rows=rows, overall=overall)


def ha_baseline(ds: TimeSeriesDataset, wc: WindowConfig, period=None) -> np.ndarray:
    """Historical-average predictions for every test window, original scale.

    With a period, each target row is predicted by the mean of training rows
    sharing its phase (absolute time index modulo period); a phase absent
    from the training split falls back to the overall training mean. Without
    a period, every horizon step is predicted by the window's own input mean
    per node and feature.
    """
    inputs, targets = make_windows(ds, wc, "test")
    if period is None:
        return np.repeat(inputs.mean(axis=1, keepdims=True), wc.h, axis=1)
    period = int(period)
    if period < 1:
        raise UsageError("historical-average period must be >= 1")
    lo, hi = ds.split_range("train")
    train = ds.series[lo:hi]
    overall = train.mean(axis=0)
    phase_mean = np.empty((period,) + ds.series.shape[1:])
    phases = np.arange(lo, hi) % period
    for ph in range(period):
        rows = train[phases == ph]
        phase_mean[ph] = rows.mean(axis=0) if rows.shape[0] else overall
    t_lo, _ = ds.split_range("test")
    w = targets.shape[0]
    abs_idx = t_lo + wc.j + np.arange(w)[:, None] + np.arange(wc.h)[None, :]
    return phase_mean[abs_idx % period]


def model_predictions(model: STUNet, ds: TimeSeriesDataset, batch_size: int = 50,
                      split: str = "test"):
    """(predictions, targets) for the split's windows, both in original scale.

    The model scales the split's rows once with the statistics in its
    buffers, the inputs are windows of that copy, and predictions are mapped
    back before any metric sees them.
    """
    wc = WindowConfig(model.config.j, model.config.h)
    _, targets = make_windows(ds, wc, split)
    inputs, _ = make_windows(ds, wc, split, model.normalize)
    return model.denormalize(predict_windows(model, inputs, batch_size)), targets


def evaluate_model(model: STUNet, ds: TimeSeriesDataset, steps=None,
                   mask_threshold: float = MASK_THRESHOLD_DEFAULT,
                   batch_size: int = 50) -> MetricReport:
    pred, target = model_predictions(model, ds, batch_size)
    return horizon_report(pred, target, steps, ds.interval_minutes, mask_threshold)


def _commit_id() -> str:
    """The short HEAD of the checkout that holds this package, else 'unknown'."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=os.path.dirname(__file__),
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or past its timeout
        pass
    return "unknown"


def provenance_lines(rc: RunConfig, seeds) -> list:
    return [
        f"# config_hash: {rc.config_hash()}",
        f"# seeds: {','.join(str(s) for s in seeds)}",
        f"# commit: {_commit_id()}",
    ]


@dataclass
class ExperimentCell:
    """One (label, seed) cell of an experiment grid: its report, or why it
    failed (a StunetError's message, or 'not converged')."""

    label: str
    seed: int
    report: MetricReport | None
    error: str = ""

    def ok(self) -> bool:
        return not self.error


def run_grid(rc: RunConfig, ds: TimeSeriesDataset, labels, seeds, configure) -> list:
    """Train and evaluate one model per (label, seed) cell, label-major, on the
    RunConfig that ``configure(label, seed)`` returns. A StunetError is recorded
    in its cell, a cell whose MAE or RMSE is not finite has not converged, and
    any other exception propagates."""
    rc.validate()
    seeds = tuple(int(s) for s in seeds)
    if not seeds or len(set(seeds)) < len(seeds):
        raise UsageError(f"an experiment needs distinct seeds, got '{','.join(map(str, seeds))}'")
    cells = []
    for label in labels:
        for seed in seeds:
            cell_rc = configure(label, seed)
            try:
                model, _ = train_model(cell_rc, ds)
                report = evaluate_model(model, ds, cell_rc.metric_steps(),
                                        batch_size=cell_rc.batch_size)
            except StunetError as exc:
                cells.append(ExperimentCell(label, seed, None, str(exc)))
                continue
            finite = all(math.isfinite(r.mae) and math.isfinite(r.rmse) for r in report.all_rows())
            cells.append(ExperimentCell(label, seed, report, "" if finite else "not converged"))
    return cells


# overall metric columns: (name, text head, CSV head, value read from a report)
OVERALL_COLUMNS = (
    ("mae", "mae", "mae", lambda r: r.overall.mae),
    ("mape", "mape%", "mape_percent", lambda r: r.overall.mape),
    ("rmse", "rmse", "rmse", lambda r: r.overall.rmse),
)


@dataclass
class ExperimentTable:
    """The cells of an experiment grid, label-major, and the metric columns
    that each ok cell reports, given as in OVERALL_COLUMNS."""

    cells: list
    labels: tuple
    columns: tuple
    provenance: list

    HEADS = ("label", "status")  # CSV heads of the label and status columns
    STATUS = ("ok", "failed")  # CSV status of an ok and of a failed cell

    def values(self, report) -> list:
        return [read(report) for *_, read in self.columns]

    def render_csv(self) -> str:
        """Provenance, then one row per cell."""
        lines = list(self.provenance)
        heads = [self.HEADS[0], "seed", self.HEADS[1]] + [h for _, _, h, _ in self.columns]
        lines.append(",".join(heads))
        blank = [""] * len(self.columns)
        for c in self.cells:
            vals = [f"{v:.6f}" for v in self.values(c.report)] if c.ok() else blank
            lines.append(",".join([c.label, str(c.seed), self.STATUS[not c.ok()], *vals]))
        return "\n".join(lines) + "\n"


def _pm(pair) -> str:
    return f"{pair[0]:.6f}±{pair[1]:.6f}"


@dataclass
class AblationTable(ExperimentTable):
    """Variant x seed grid with mean +/- std summaries per metric."""

    HEADS = ("variant", "status")

    def cells_for(self, label) -> list:
        return [c for c in self.cells if c.label == label]

    def summary(self, label) -> dict:
        """{column name: (mean, std) over the label's ok cells}; {} when none is ok."""
        good = np.array([self.values(c.report) for c in self.cells_for(label) if c.ok()])
        if not good.size:
            return {}
        return {name: (float(good[:, i].mean()), float(good[:, i].std()))
                for i, (name, *_) in enumerate(self.columns)}

    def render_text(self) -> str:
        lines = list(self.provenance)
        lines.append(f"{'variant':<10} {'ok':>5}" + "".join(
            f" {head:>22}" for _, head, _, _ in self.columns))
        for label in self.labels:
            cells = self.cells_for(label)
            shown = [_pm(pair) for pair in self.summary(label).values()] or ["failed"]
            lines.append(f"{label:<10} {sum(c.ok() for c in cells):>2d}/{len(cells):<2d}"
                         + "".join(f" {v:>22}" for v in shown))
        failures = [f"  {c.label} seed {c.seed}: {c.error}" for c in self.cells if not c.ok()]
        if failures:
            lines += ["failures:", *failures]
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        """The cell rows, then a mean +/- std row per variant."""
        lines = ["variant,summary,status," + ",".join(
            f"{name}_mean_std" for name, *_ in self.columns)]
        for label in self.labels:
            shown = [_pm(pair) for pair in self.summary(label).values()]
            status = "ok" if shown else "failed"
            lines.append(",".join([label, "mean", status, *(shown or [""] * len(self.columns))]))
        return super().render_csv() + "\n".join(lines) + "\n"


def run_ablation(rc: RunConfig, ds: TimeSeriesDataset, seeds=None) -> AblationTable:
    """Train and evaluate the four variants per seed; summarize mean +/- std."""
    seeds = tuple(range(ABLATION_SEEDS_DEFAULT)) if seeds is None else tuple(seeds)

    def configure(label, seed):
        cfg = variant(replace(rc.model, seed=seed), label)
        return replace(rc, model=cfg, seed=seed, variant=label)

    cells = run_grid(rc, ds, VARIANTS, seeds, configure)
    prov = provenance_lines(rc, seeds)
    for label in VARIANTS:
        v = variant(rc.model, label)
        prov.append(f"# variant {label}: p={v.p} s={v.s}")
    return AblationTable(cells, VARIANTS, OVERALL_COLUMNS, prov)


@dataclass
class UpsampleTable(ExperimentTable):
    """Unpool-strategy x seed grid with per-horizon MSE and convergence flags."""

    HEADS = ("strategy", "converged")
    STATUS = ("yes", "no")

    def render_text(self) -> str:
        lines = list(self.provenance)
        lines.append(f"{'strategy':<16} {'seed':>4} {'conv':>5}" + "".join(
            f" {head:>12}" for _, head, _, _ in self.columns))
        for c in self.cells:
            shown = [f"{v:.6f}" for v in self.values(c.report)] if c.ok() else [c.error]
            lines.append(f"{c.label:<16} {c.seed:>4d} {self.STATUS[not c.ok()]:>5} "
                         + " ".join(f"{v:>12}" for v in shown))
        return "\n".join(lines) + "\n"


def run_upsampling_comparison(rc: RunConfig, ds: TimeSeriesDataset,
                              seeds=None) -> UpsampleTable:
    """Train once per unpool strategy and seed; failed and non-converged cells
    are recorded, not raised."""
    if rc.model.p < 1:
        raise UsageError("upsampling comparison needs at least one pooling level")
    seeds = (rc.seed,) if seeds is None else tuple(seeds)

    def configure(mode, seed):
        return replace(rc, model=replace(rc.model, unpool_mode=mode, seed=seed), seed=seed)

    cells = run_grid(rc, ds, UNPOOL_MODES, seeds, configure)
    columns = tuple(
        (f"mse@{s}", f"mse@{s}", f"mse_step{s}", lambda r, i=i: r.rows[i].mse)
        for i, s in enumerate(rc.metric_steps())
    ) + (OVERALL_COLUMNS[0], OVERALL_COLUMNS[2])
    return UpsampleTable(cells, UNPOOL_MODES, columns, provenance_lines(rc, seeds))


def write_report_files(out_dir: str, name: str, text: str, csv_text: str):
    """Write <name>.txt and <name>.csv under out_dir; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    text_path = os.path.join(out_dir, name + ".txt")
    csv_path = os.path.join(out_dir, name + ".csv")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    return text_path, csv_path
