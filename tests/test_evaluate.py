"""Metrics, historical-average baseline, reports, and experiment tables."""

import math
import os
import shutil
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from conftest import path_graph, scaling_model
from stunet import evaluate
from stunet.data import (
    Normalizer,
    TimeSeriesDataset,
    WindowConfig,
    knn_grid_graph,
    make_windows,
    synth_diffusion,
)
from stunet.errors import DataError, DimensionError, MetricError, NumericError, UsageError
from stunet.evaluate import (
    ha_baseline,
    horizon_report,
    mae,
    mape,
    model_predictions,
    mse,
    rmse,
    run_ablation,
    run_upsampling_comparison,
    write_report_files,
)
from stunet.model import VARIANTS, STUNetConfig
from stunet.sampling import UNPOOL_MODES
from stunet.training import RunConfig, train_model


def test_metric_hand_values():
    assert mae([1.0, 2.0], [2.0, 4.0]) == 1.5
    assert abs(rmse([1.0, 2.0], [2.0, 4.0]) - math.sqrt(2.5)) < 1e-15
    assert mse([1.0, 2.0], [2.0, 4.0]) == 2.5
    assert mae([3.0], [3.0]) == 0.0 and rmse([3.0], [3.0]) == 0.0
    with pytest.raises(DimensionError):
        mae([1.0], [1.0, 2.0])


def test_mape_masks_small_targets():
    # the zero target is excluded; only |1-2|/2 = 50% remains
    assert abs(mape([1.0, 9.0], [2.0, 0.0]) - 50.0) < 1e-12
    assert abs(mape([1.0, 9.0], [2.0, 1e-4]) - 50.0) < 1e-12
    with pytest.raises(MetricError):
        mape([1.0], [1e-9])


def test_rmse_never_below_mae():
    rng = np.random.default_rng(0)
    for _ in range(50):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        pred = rng.normal(size=shape) * rng.uniform(0.1, 10)
        target = rng.normal(size=shape)
        assert rmse(pred, target) >= mae(pred, target)


def test_horizon_report_structure_and_minutes():
    rng = np.random.default_rng(1)
    target = rng.normal(size=(10, 12, 3, 1)) + 4.0
    pred = target + 0.1
    rep = horizon_report(pred, target, steps=(3, 6, 12), interval_minutes=5.0)
    assert [r.step for r in rep.rows] == [3, 6, 12]
    assert [r.minutes for r in rep.rows] == [15.0, 30.0, 60.0]
    assert rep.overall.step == 0
    assert rep.overall.n_samples == 3 * 10 * 3
    assert rep.rmse_dominates()
    for bad in ((13,), (3, 6, 3)):
        with pytest.raises(UsageError):
            horizon_report(pred, target, steps=bad)
    with pytest.raises(DimensionError):
        horizon_report(pred[0], target[0])


def test_perfect_predictions_report_zero():
    rng = np.random.default_rng(2)
    target = rng.normal(size=(6, 3, 4, 1)) + 5.0
    rep = horizon_report(target.copy(), target)
    for row in rep.all_rows():
        assert row.mae == 0.0 and row.rmse == 0.0 and row.mape == 0.0


def test_report_rendering_includes_provenance():
    rng = np.random.default_rng(3)
    target = rng.normal(size=(4, 2, 3, 1)) + 3.0
    rep = horizon_report(target + 0.2, target)
    prov = ["# config_hash: abc", "# seeds: 0"]
    text = rep.render_text(prov)
    csv = rep.render_csv(prov)
    assert text.startswith("# config_hash: abc\n# seeds: 0\n")
    assert "mape%" in text
    header = [l for l in csv.splitlines() if not l.startswith("#")][0]
    assert header == "step,minutes,mae,mape_percent,mse,rmse,n_samples,n_masked"
    # one line per step plus the aggregate
    rows = [l for l in csv.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 3 and rows[-1].startswith("all,")


def test_metrics_invariant_under_normalization_roundtrip():
    rng = np.random.default_rng(4)
    target = rng.normal(loc=5.0, size=(40, 3, 2))
    pred = target + rng.normal(size=target.shape)
    norm = Normalizer().fit(target)
    model = scaling_model(norm, 3)
    back_p = model.denormalize(model.normalize(pred))
    back_t = model.denormalize(model.normalize(target))
    assert abs(mae(back_p, back_t) - mae(pred, target)) < 1e-10
    assert abs(rmse(back_p, back_t) - rmse(pred, target)) < 1e-10


def test_ha_period_mode_exact_on_periodic_series():
    g = path_graph(2)
    series = np.array(
        [[1.0, 1.0] if t % 2 == 0 else [3.0, 3.0] for t in range(40)]
    )[:, :, None]
    ds = TimeSeriesDataset(series=series, graph=g)
    wc = WindowConfig(3, 2)
    pred = ha_baseline(ds, wc, period=2)
    _, targets = make_windows(ds, wc, "test")
    assert np.array_equal(pred, targets)
    assert mae(pred, targets) == 0.0


def test_ha_fallback_predicts_window_mean():
    g = path_graph(2)
    series = np.arange(1.0, 31.0)[:, None, None] * np.ones((1, 2, 1))
    ds = TimeSeriesDataset(series=series, graph=g)
    wc = WindowConfig(3, 2)
    pred = ha_baseline(ds, wc)
    inputs, _ = make_windows(ds, wc, "test")
    assert np.allclose(pred[:, 0], inputs.mean(axis=1), atol=1e-12)
    assert np.array_equal(pred[:, 0], pred[:, 1])  # same guess at every step


def test_ha_constant_series_is_exact():
    g = path_graph(3)
    series = np.full((30, 3, 1), 7.5)
    ds = TimeSeriesDataset(series=series, graph=g)
    wc = WindowConfig(4, 2)
    for period in (None, 3, 5):
        pred = ha_baseline(ds, wc, period=period)
        _, targets = make_windows(ds, wc, "test")
        assert mae(pred, targets) == 0.0
    with pytest.raises(UsageError):
        ha_baseline(ds, wc, period=0)


def micro_setup(epochs=1):
    ds = synth_diffusion(
        knn_grid_graph(2, 4), t=220, alpha=0.6, noise_sigma=0.05, seed=3
    )
    cfg = STUNetConfig(k=2, p=1, s=2, hidden_sizes=(6, 6), j=6, h=2, seed=0)
    rc = RunConfig(model=cfg, epochs=epochs, batch_size=32, seed=0)
    return ds, rc


def test_model_predictions_are_denormalized():
    ds, rc = micro_setup()
    model, _ = train_model(rc, ds)
    pred, target = model_predictions(model, ds)
    _, raw_targets = make_windows(ds, WindowConfig(6, 2), "test")
    assert np.array_equal(target, raw_targets)  # original scale
    # predictions live on the target scale, not the z-scored one
    assert abs(pred.mean() - target.mean()) < 5 * ds.series.std()


def test_run_ablation_table_structure():
    ds, rc = micro_setup()
    table = run_ablation(rc, ds, seeds=(0,))
    assert table.labels == ("GCGRU", "T-UNet", "S-UNet", "ST-UNet")
    assert len(table.cells) == 4
    assert all(c.ok() for c in table.cells)
    for label in table.labels:
        s = table.summary(label)
        assert set(s) == {"mae", "mape", "rmse"}
        assert s["mae"][1] == 0.0  # single seed: zero spread
    text = table.render_text()
    assert "# variant GCGRU: p=0 s=1" in text
    assert "±" in text
    csv = table.render_csv()
    assert "variant,seed,status,mae,mape_percent,rmse" in csv
    with pytest.raises(UsageError):
        run_ablation(rc, ds, seeds=())


def test_run_upsampling_comparison_structure():
    ds, rc = micro_setup()
    table = run_upsampling_comparison(rc, ds, seeds=(0,))
    labels = [c.label for c in table.cells]
    assert labels == ["direct_copy", "ordered_deconv", "weighted_deconv"]
    assert all(c.ok() for c in table.cells)
    text = table.render_text()
    assert "mse@1" in text and "mse@2" in text
    csv = table.render_csv()
    assert "strategy,seed,converged,mse_step1,mse_step2,mae,rmse" in csv

    flat = RunConfig(model=STUNetConfig(k=2, p=0, s=1, hidden_sizes=(6,), j=6, h=2))
    with pytest.raises(UsageError):
        run_upsampling_comparison(flat, ds, seeds=(0,))


def test_write_report_files(tmp_path):
    text_path, csv_path = write_report_files(
        str(tmp_path / "reports"), "metrics", "hello\n", "a,b\n"
    )
    assert open(text_path).read() == "hello\n"
    assert open(csv_path).read() == "a,b\n"


# The two experiment tables rendered from fixed reports: training and evaluation
# are replaced by fakes, so the golden files pin the rendering and the failure
# policy, not the numbers of a real run. Each case maps (label, seed) cells to
# how they end: "fail" raises a NumericError in training, "nan" evaluates to a
# report whose first prediction is not finite.
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "grid_golden")
GRID_CASES = {
    "one_failed": {("S-UNet", 1): "fail", ("ordered_deconv", 1): "fail"},
    "label_failed": {
        ("T-UNet", 0): "fail", ("T-UNet", 1): "fail",
        ("weighted_deconv", 0): "fail", ("weighted_deconv", 1): "fail",
    },
    "not_converged": {("GCGRU", 0): "nan", ("direct_copy", 1): "nan"},
}
GRID_TABLES = {
    "ablation": (evaluate.run_ablation, lambda rc: rc.variant),
    "upsample_compare": (evaluate.run_upsampling_comparison, lambda rc: rc.model.unpool_mode),
}


def fake_grid(monkeypatch, outcomes, label_of, error=NumericError):
    """Replace training with the cell's RunConfig and evaluation with a report
    whose errors are multiples of 1/8, set by the cell's label and seed."""
    labels = VARIANTS + UNPOOL_MODES

    def train(rc, ds):
        key = (label_of(rc), rc.seed)
        if outcomes.get(key) == "fail":
            raise error(f"loss is nan at epoch 1 ({key[0]} seed {key[1]})")
        return rc, []

    def evaluate_model(rc, ds, steps, batch_size):
        target = np.arange(24.0).reshape(3, 2, 4, 1) % 5 + 1
        pattern = np.arange(24.0).reshape(target.shape) % 5 - 2
        label = label_of(rc)
        pred = target + pattern * ((1 + rc.seed) * 0.25 + 0.125 * labels.index(label))
        if outcomes.get((label, rc.seed)) == "nan":
            pred[0, 0, 0, 0] = np.nan
        return horizon_report(pred, target, steps, 5.0)

    monkeypatch.setattr(evaluate, "train_model", train)
    monkeypatch.setattr(evaluate, "evaluate_model", evaluate_model)
    monkeypatch.setattr(evaluate, "_commit_id", lambda: "0000000")


@pytest.mark.parametrize("case", sorted(GRID_CASES))
@pytest.mark.parametrize("name", sorted(GRID_TABLES))
def test_experiment_tables_match_golden(monkeypatch, name, case):
    runner, label_of = GRID_TABLES[name]
    fake_grid(monkeypatch, GRID_CASES[case], label_of)
    ds, rc = micro_setup()
    table = runner(rc, ds, seeds=(0, 1))
    for ext, got in (("txt", table.render_text()), ("csv", table.render_csv())):
        with open(os.path.join(GOLDEN, f"{case}_{name}.{ext}"), "rb") as fh:
            assert got.encode("utf-8") == fh.read(), f"{case}_{name}.{ext}"


def test_upsampling_records_any_stunet_error_in_its_cell(monkeypatch):
    fake_grid(monkeypatch, {("ordered_deconv", 0): "fail"}, GRID_TABLES["upsample_compare"][1],
              error=DataError)
    ds, rc = micro_setup()
    table = run_upsampling_comparison(rc, ds, seeds=(0, 1))
    failed = [(c.label, c.seed, c.error) for c in table.cells if not c.ok()]
    assert failed == [("ordered_deconv", 0, "loss is nan at epoch 1 (ordered_deconv seed 0)")]
    assert len(table.cells) == 6


def test_run_grid_propagates_errors_outside_the_package(monkeypatch):
    fake_grid(monkeypatch, {("T-UNet", 1): "fail"}, lambda rc: rc.variant, error=RuntimeError)
    ds, rc = micro_setup()

    def configure(label, seed):
        return replace(rc, variant=label, seed=seed)

    with pytest.raises(RuntimeError, match="T-UNet seed 1"):
        evaluate.run_grid(rc, ds, ("GCGRU", "T-UNet"), (0, 1), configure)


def test_run_grid_rejects_bad_seeds_and_horizons_before_training(monkeypatch):
    def train(rc, ds):
        raise AssertionError("a cell was trained")

    monkeypatch.setattr(evaluate, "train_model", train)
    ds, rc = micro_setup()
    with pytest.raises(UsageError, match="'0,1,0'"):
        run_ablation(rc, ds, seeds=(0, 1, 0))
    with pytest.raises(UsageError):
        run_upsampling_comparison(rc, ds, seeds=())
    for horizons, step in (((3,), "3"), ((1, 2, 1), "1")):
        bad = replace(rc, horizons=horizons)
        for runner in (run_ablation, run_upsampling_comparison):
            with pytest.raises(UsageError, match=f"horizon {step} "):
                runner(bad, ds, seeds=(0,))


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_id_names_the_package_checkout_not_the_cwd(tmp_path, monkeypatch):
    def git(*args, cwd):
        out = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    monkeypatch.chdir(tmp_path)
    git("init", "-q", cwd=tmp_path)
    git("-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", "commit",
        "-q", "--allow-empty", "-m", "other", cwd=tmp_path)
    other = git("rev-parse", "--short", "HEAD", cwd=tmp_path)
    assert other != "unknown"
    package = os.path.dirname(evaluate.__file__)
    assert evaluate._commit_id() == git("rev-parse", "--short", "HEAD", cwd=package)
    assert evaluate._commit_id() != other


def test_commit_id_is_unknown_when_git_runs_past_its_timeout(monkeypatch):
    def run(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", run)
    assert evaluate._commit_id() == "unknown"
