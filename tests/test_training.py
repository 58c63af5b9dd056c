"""Training loop: schedule, determinism, best-on-validation selection."""

from dataclasses import replace

import numpy as np
import pytest

from stunet import tensor as T
from stunet.data import knn_grid_graph, synth_diffusion
from stunet.errors import UsageError
from stunet.model import STUNetConfig, build, loss
from stunet.tensor import Tensor
from stunet.training import (
    RunConfig,
    dataset_loss,
    predict_windows,
    train_model,
)
from stunet.data import WindowConfig, make_windows


def tiny_run(epochs=2, seed=5, **model_kw):
    base = dict(k=2, p=1, s=2, hidden_sizes=(6, 6), j=6, h=2, seed=1)
    base.update(model_kw)
    return RunConfig(
        model=STUNetConfig(**base), epochs=epochs, batch_size=16, seed=seed
    )


def tiny_data(t=260, seed=3):
    return synth_diffusion(
        knn_grid_graph(2, 4), t=t, alpha=0.6, noise_sigma=0.05, seed=seed
    )


def test_lr_schedule_hand_value():
    rc = tiny_run()
    assert rc.lr_at(0) == 1e-2
    assert rc.lr_at(7) == 1e-2
    assert abs(rc.lr_at(8) - 7e-3) < 1e-15
    assert abs(rc.lr_at(16) - 4.9e-3) < 1e-15  # 1e-2 * 0.7^2


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(model=STUNetConfig(), epochs=-1).validate()
    with pytest.raises(UsageError):
        RunConfig(model=STUNetConfig(), batch_size=0).validate()
    with pytest.raises(UsageError):
        RunConfig(model=STUNetConfig(), lr_decay=1.5).validate()
    with pytest.raises(UsageError):
        RunConfig(model=STUNetConfig(), horizons=(0,)).validate()
    for horizons, message in (((4,), "horizon 4 lies outside 1..3"), ((2, 2), "horizon 2 is "),
                              ((), "name no step")):
        with pytest.raises(UsageError, match=message):
            RunConfig(model=STUNetConfig(h=3), horizons=horizons).validate()
    for bad in (0.0, -5.0):
        with pytest.raises(UsageError, match=f"interval_minutes must be > 0, got {bad}"):
            RunConfig(model=STUNetConfig(), interval_minutes=bad).validate()
    rc = RunConfig(model=STUNetConfig(h=3))
    assert rc.metric_steps() == (1, 2, 3)


@pytest.mark.parametrize("name", ["lr", "clip_norm", "ss_tau", "interval_minutes"])
def test_run_config_rejects_non_finite_floats(name):
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError, match=f"^{name} must be finite"):
            RunConfig(model=STUNetConfig(), **{name: bad}).validate()


def test_epochs_zero_keeps_initial_weights():
    ds = tiny_data()
    rc = tiny_run(epochs=0)
    model, history = train_model(rc, ds)
    fresh = build(rc.model, ds.graph)
    assert history == []
    for a, b in zip(model.trainable_params(), fresh.trainable_params()):
        assert np.array_equal(a.data, b.data)
    # but the normalizer buffers are fitted
    assert np.abs(model.norm_std.data - 1.0).max() > 0


def test_training_reduces_loss_and_is_deterministic():
    ds = tiny_data()
    rc = tiny_run(epochs=3)
    model_a, hist_a = train_model(rc, ds)
    model_b, hist_b = train_model(rc, ds)
    assert hist_a[-1].train_loss < hist_a[0].train_loss
    assert [e.line() for e in hist_a] == [e.line() for e in hist_b]
    for a, b in zip(model_a.trainable_params(), model_b.trainable_params()):
        assert np.array_equal(a.data, b.data)


def test_best_validation_weights_are_restored():
    ds = tiny_data()
    rc = tiny_run(epochs=4)
    model, history = train_model(rc, ds)
    best = min(e.val_loss for e in history)
    val_in, val_tg = make_windows(  # scaled by the statistics the model holds
        replace(ds, series=model.normalize(ds.series)), WindowConfig(rc.model.j, rc.model.h), "val"
    )
    recomputed = dataset_loss(model, val_in, val_tg, rc.batch_size)
    assert abs(recomputed - best) < 1e-12


def test_history_lines_record_schedule():
    ds = tiny_data()
    rc = tiny_run(epochs=2)
    _, history = train_model(rc, ds)
    assert [e.epoch for e in history] == [0, 1]
    assert all(e.lr == 1e-2 for e in history)
    assert all(0.0 < e.eps <= 1.0 for e in history)
    assert "train" in history[0].line() and "val" in history[0].line()


def test_predict_windows_batching_consistency():
    ds = tiny_data()
    rc = tiny_run(epochs=1)
    model, _ = train_model(rc, ds)
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(9, 6, 8, 1))
    small = predict_windows(model, windows, batch_size=2)
    large = predict_windows(model, windows, batch_size=64)
    assert small.shape == (9, 2, 8, 1)
    assert np.allclose(small, large, atol=1e-12)
    for bad in (0, -1):
        with pytest.raises(UsageError, match=f"batch size must be >= 1, got {bad}"):
            predict_windows(model, windows, batch_size=bad)
        with pytest.raises(UsageError, match=f"batch size must be >= 1, got {bad}"):
            dataset_loss(model, windows, large, batch_size=bad)


def test_config_hash_tracks_settings():
    a = tiny_run().config_hash()
    b = tiny_run().config_hash()
    c = tiny_run(epochs=9).config_hash()
    assert a == b and a != c
    assert len(a) == 16


def test_evaluation_calls_keep_a_recorded_tape():
    ds = tiny_data()
    rc = tiny_run()
    model = build(rc.model, ds.graph)
    rng = np.random.default_rng(1)
    windows = rng.normal(size=(3, 6, 8, 1))
    targets = rng.normal(size=(3, 2, 8, 1))
    xb = Tensor(np.transpose(windows, (1, 0, 2, 3)))
    yb = Tensor(np.transpose(targets, (1, 0, 2, 3)))
    params = model.trainable_params()

    def grads_after(evaluate):
        T.reset_tape()
        out = loss(model.forward(xb), yb)
        evaluate()
        return T.grads(out, params)

    plain = grads_after(lambda: None)
    interleaved = grads_after(lambda: (
        predict_windows(model, windows), dataset_loss(model, windows, targets)
    ))
    assert all(np.array_equal(a, b) for a, b in zip(plain, interleaved))
