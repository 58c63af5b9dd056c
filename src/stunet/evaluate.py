"""Forecast metrics (MAE/MAPE/RMSE on original-scale values), the
historical-average baseline, and the experiment runners for variant ablations
and unpooling-strategy comparisons, with aligned-text and CSV reports.
"""

from __future__ import annotations

import math
import os
import subprocess
from dataclasses import dataclass, replace

import numpy as np

from .data import TimeSeriesDataset, WindowConfig, make_windows
from .errors import DimensionError, MetricError, NumericError, StunetError, UsageError
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
    if not steps or any(s < 1 or s > h for s in steps):
        raise UsageError(f"metric steps {steps} must lie in 1..{h}")
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

    Inputs are normalized with the statistics stored in the model's buffers,
    and predictions are mapped back before any metric sees them.
    """
    mean = model.norm_mean.data
    std = model.norm_std.data
    wc = WindowConfig(model.config.j, model.config.h)
    inputs, targets = make_windows(ds, wc, split)
    pred = predict_windows(model, (inputs - mean) / std, batch_size)
    return pred * std + mean, targets


def evaluate_model(model: STUNet, ds: TimeSeriesDataset, steps=None,
                   mask_threshold: float = MASK_THRESHOLD_DEFAULT,
                   batch_size: int = 50) -> MetricReport:
    pred, target = model_predictions(model, ds, batch_size)
    return horizon_report(pred, target, steps, ds.interval_minutes, mask_threshold)


def _commit_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
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
    """One (label, seed) training/evaluation outcome."""

    label: str
    seed: int
    report: MetricReport | None
    error: str = ""
    converged: bool = True

    def ok(self) -> bool:
        return self.report is not None and self.converged


def _mean_std(values) -> tuple:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _pm(pair) -> str:
    return f"{pair[0]:.6f}±{pair[1]:.6f}"


@dataclass
class AblationTable:
    """Variant x seed grid with mean +/- std summaries per metric."""

    cells: list
    labels: tuple
    seeds: tuple
    provenance: list

    def cells_for(self, label) -> list:
        return [c for c in self.cells if c.label == label]

    def summary(self, label) -> dict:
        good = [c for c in self.cells_for(label) if c.ok()]
        if not good:
            return {}
        return {
            "mae": _mean_std([c.report.overall.mae for c in good]),
            "mape": _mean_std([c.report.overall.mape for c in good]),
            "rmse": _mean_std([c.report.overall.rmse for c in good]),
        }

    def render_text(self) -> str:
        lines = list(self.provenance)
        lines.append(
            f"{'variant':<10} {'ok':>5} {'mae':>22} {'mape%':>22} {'rmse':>22}"
        )
        for label in self.labels:
            cells = self.cells_for(label)
            ok = sum(c.ok() for c in cells)
            s = self.summary(label)
            if s:
                lines.append(
                    f"{label:<10} {ok:>2d}/{len(cells):<2d} "
                    f"{_pm(s['mae']):>22} {_pm(s['mape']):>22} {_pm(s['rmse']):>22}"
                )
            else:
                lines.append(f"{label:<10} {ok:>2d}/{len(cells):<2d} {'failed':>22}")
        failures = [c for c in self.cells if not c.ok()]
        if failures:
            lines.append("failures:")
            for c in failures:
                lines.append(f"  {c.label} seed {c.seed}: {c.error or 'not converged'}")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        lines = list(self.provenance)
        lines.append("variant,seed,status,mae,mape_percent,rmse")
        for c in self.cells:
            if c.ok():
                o = c.report.overall
                lines.append(
                    f"{c.label},{c.seed},ok,{o.mae:.6f},{o.mape:.6f},{o.rmse:.6f}"
                )
            else:
                lines.append(f"{c.label},{c.seed},failed,,,")
        lines.append("variant,summary,status,mae_mean_std,mape_mean_std,rmse_mean_std")
        for label in self.labels:
            s = self.summary(label)
            if s:
                lines.append(
                    f"{label},mean,ok,{_pm(s['mae'])},{_pm(s['mape'])},{_pm(s['rmse'])}"
                )
            else:
                lines.append(f"{label},mean,failed,,,")
        return "\n".join(lines) + "\n"


def run_ablation(rc: RunConfig, ds: TimeSeriesDataset, seeds=None) -> AblationTable:
    """Train and evaluate the four variants per seed; summarize mean +/- std."""
    seeds = tuple(range(ABLATION_SEEDS_DEFAULT)) if seeds is None else tuple(seeds)
    if not seeds:
        raise UsageError("ablation needs at least one seed")
    prov = provenance_lines(rc, seeds)
    for label in VARIANTS:
        v = variant(rc.model, label)
        prov.append(f"# variant {label}: p={v.p} s={v.s}")
    cells = []
    for label in VARIANTS:
        for s in seeds:
            cfg = variant(replace(rc.model, seed=int(s)), label)
            cell_rc = replace(rc, model=cfg, seed=int(s), variant=label)
            try:
                model, _ = train_model(cell_rc, ds)
                report = evaluate_model(
                    model, ds, cell_rc.metric_steps(), batch_size=rc.batch_size
                )
                cells.append(ExperimentCell(label, int(s), report))
            except StunetError as exc:
                cells.append(ExperimentCell(label, int(s), None, error=str(exc)))
    return AblationTable(cells=cells, labels=VARIANTS, seeds=seeds, provenance=prov)


@dataclass
class UpsampleTable:
    """Unpool-strategy x seed grid with per-horizon MSE and convergence flags."""

    cells: list
    steps: tuple
    seeds: tuple
    provenance: list

    def _mse_cols(self, report) -> list:
        by_step = {r.step: r for r in report.rows}
        return [by_step[s].mse for s in self.steps]

    def render_text(self) -> str:
        lines = list(self.provenance)
        head = f"{'strategy':<16} {'seed':>4} {'conv':>5}"
        head += "".join(f" {f'mse@{s}':>12}" for s in self.steps)
        head += f" {'mae':>12} {'rmse':>12}"
        lines.append(head)
        for c in self.cells:
            row = f"{c.label:<16} {c.seed:>4d} {'yes' if c.converged else 'no':>5}"
            if c.ok():
                row += "".join(f" {v:>12.6f}" for v in self._mse_cols(c.report))
                row += f" {c.report.overall.mae:>12.6f} {c.report.overall.rmse:>12.6f}"
            else:
                row += f" {c.error or 'not converged':>12}"
            lines.append(row)
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        lines = list(self.provenance)
        cols = ",".join(f"mse_step{s}" for s in self.steps)
        lines.append(f"strategy,seed,converged,{cols},mae,rmse")
        for c in self.cells:
            flag = "yes" if c.converged else "no"
            if c.ok():
                vals = ",".join(f"{v:.6f}" for v in self._mse_cols(c.report))
                lines.append(
                    f"{c.label},{c.seed},{flag},{vals},"
                    f"{c.report.overall.mae:.6f},{c.report.overall.rmse:.6f}"
                )
            else:
                empty = "," * len(self.steps)
                lines.append(f"{c.label},{c.seed},{flag}{empty},,")
        return "\n".join(lines) + "\n"


def run_upsampling_comparison(rc: RunConfig, ds: TimeSeriesDataset,
                              seeds=None) -> UpsampleTable:
    """Train once per unpool strategy and seed; non-convergence is recorded,
    not raised."""
    if rc.model.p < 1:
        raise UsageError("upsampling comparison needs at least one pooling level")
    seeds = (rc.seed,) if seeds is None else tuple(seeds)
    if not seeds:
        raise UsageError("upsampling comparison needs at least one seed")
    steps = rc.metric_steps()
    cells = []
    for mode in UNPOOL_MODES:
        for s in seeds:
            cfg = replace(rc.model, unpool_mode=mode, seed=int(s))
            cell_rc = replace(rc, model=cfg, seed=int(s))
            try:
                model, _ = train_model(cell_rc, ds)
                report = evaluate_model(model, ds, steps, batch_size=rc.batch_size)
                finite = all(
                    math.isfinite(r.mae) and math.isfinite(r.rmse)
                    for r in report.all_rows()
                )
                cells.append(ExperimentCell(mode, int(s), report, converged=finite))
            except NumericError as exc:
                cells.append(
                    ExperimentCell(mode, int(s), None, error=str(exc), converged=False)
                )
    return UpsampleTable(
        cells=cells, steps=steps, seeds=seeds, provenance=provenance_lines(rc, seeds)
    )


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
