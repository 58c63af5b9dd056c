"""Command-line interface: config plumbing, subcommands, determinism."""

import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from stunet import cli
from stunet.data import load_series
from stunet.errors import UsageError
from stunet.evaluate import model_predictions
from stunet.model import STUNetConfig, load_checkpoint
from stunet.training import RunConfig
from stunet.data import load_adjacency, TimeSeriesDataset


MODEL_FLAGS = [
    "--set", "k=2", "--set", "p=1", "--set", "s=2", "--set", "hidden_sizes=6,6",
    "--set", "j=6", "--set", "h=2", "--set", "epochs=2", "--set", "batch_size=32",
]


def test_run_config_from_mapping_types():
    rc, extras = cli.run_config_from_mapping(
        {
            "k": "3",
            "hidden_sizes": "8,16",
            "layer_norm": "false",
            "pool_mode": "mean",
            "epochs": "7",
            "lr": "0.02",
            "horizons": "1,2",
            "seed": "11",
            "variant": "S-UNet",
            "adj_format": "edge_list",
        }
    )
    assert rc.model.k == 3
    assert rc.model.hidden_sizes == (8, 16)
    assert rc.model.layer_norm is False
    assert rc.model.pool_mode == "mean"
    assert rc.model.seed == 11 and rc.seed == 11
    assert rc.epochs == 7 and rc.lr == 0.02
    assert rc.horizons == (1, 2)
    assert rc.variant == "S-UNet"
    assert extras == {"adj_format": "edge_list"}


def test_every_config_field_reads_back_from_set():
    # field: (--set text, value), each value different from the field's default
    values = {
        "k": ("4", 4), "p": ("1", 1), "s": ("3", 3), "hidden_sizes": ("8, 16", (8, 16)),
        "pool_mode": ("mean", "mean"), "unpool_mode": ("weighted_deconv", "weighted_deconv"),
        "layer_norm": ("off", False), "j": ("7", 7), "h": ("5", 5), "d_in": ("2", 2),
        "d_out": ("3", 3), "seed": ("11", 11), "epochs": ("6", 6), "batch_size": ("9", 9),
        "lr": ("0.02", 0.02), "lr_decay": ("0.5", 0.5), "lr_decay_every": ("3", 3),
        "clip_norm": ("2.5", 2.5), "ss_tau": ("50", 50.0), "variant": ("S-UNet", "S-UNet"),
        "horizons": ("1,3", (1, 3)), "interval_minutes": ("15", 15.0),
        "adj_path": ("a.csv", "a.csv"), "series_path": ("s.csv", "s.csv"),
        "ckpt_path": ("m.ckpt", "m.ckpt"), "out_dir": ("runs", "runs"),
    }
    model_fields = {f.name: f.default for f in fields(STUNetConfig)}
    run_fields = {f.name: f.default for f in fields(RunConfig) if f.name != "model"}
    assert set(values) == set(model_fields) | set(run_fields)
    argv = ["train"]
    for key, (text, _) in values.items():
        argv += ["--set", f"{key}={text}"]
    rc, extras = cli.run_config_from_mapping(
        cli._mapping_from_args(cli.build_parser().parse_args(argv))
    )
    assert extras == {}
    for key, (_, want) in values.items():
        for owner, defaults in ((rc.model, model_fields), (rc, run_fields)):
            if key in defaults:
                got = getattr(owner, key)
                assert got == want and type(got) is type(want), key
                assert want != defaults[key], key


def test_run_config_rejects_unknown_and_bad_values():
    with pytest.raises(UsageError) as err:
        cli.run_config_from_mapping({"bogus_key": "1"})
    assert "bogus_key" in str(err.value)
    with pytest.raises(UsageError):
        cli.run_config_from_mapping({"epochs": "three"})
    with pytest.raises(UsageError):
        cli.run_config_from_mapping({"layer_norm": "maybe"})
    with pytest.raises(UsageError):
        cli.run_config_from_mapping({"hidden_sizes": ""})


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nepochs=3\nlr = 0.005\n\nhidden_sizes=4,4\n")
    mapping = cli.parse_config_file(str(path))
    assert mapping == {"epochs": "3", "lr": "0.005", "hidden_sizes": "4,4"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 3\n")
    with pytest.raises(UsageError):
        cli.parse_config_file(str(bad))


def synth_dir(tmp_path, name="data", t=240):
    out = os.path.join(str(tmp_path), name)
    rv = cli.main(
        [
            "synth", "--rows", "2", "--cols", "4", "--t", str(t),
            "--alpha", "0.6", "--noise-sigma", "0.05", "--seed", "7", "--out", out,
        ]
    )
    assert rv == 0
    return out


def test_synth_writes_dataset_files(tmp_path, capsys):
    out = synth_dir(tmp_path)
    assert sorted(os.listdir(out)) == ["adjacency.csv", "manifest.txt", "series.csv"]
    series = load_series(os.path.join(out, "series.csv"), 8, 1)
    assert series.shape == (240, 8, 1)
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "seed=7" in manifest and "alpha=0.6" in manifest


def test_synth_manifest_regeneration_is_byte_identical(tmp_path):
    out = synth_dir(tmp_path, "a")
    again = os.path.join(str(tmp_path), "b")
    rv = cli.main(["synth", "--manifest", os.path.join(out, "manifest.txt"), "--out", again])
    assert rv == 0
    for name in ("adjacency.csv", "series.csv", "manifest.txt"):
        a = open(os.path.join(out, name), "rb").read()
        b = open(os.path.join(again, name), "rb").read()
        assert a == b


def train_run(tmp_path, data, run_name, extra=()):
    run = os.path.join(str(tmp_path), run_name)
    argv = [
        "train",
        "--adj", os.path.join(data, "adjacency.csv"),
        "--series", os.path.join(data, "series.csv"),
        "--out", run,
        "--seed", "4",
        *MODEL_FLAGS,
        *extra,
    ]
    assert cli.main(argv) == 0
    return run


def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    data = synth_dir(tmp_path)
    run = train_run(tmp_path, data, "run")
    assert os.path.exists(os.path.join(run, "model.ckpt"))
    log = open(os.path.join(run, "training_log.txt")).read().splitlines()
    assert len(log) == 2 and log[0].startswith("epoch ")
    out = capsys.readouterr().out
    assert "checkpoint written" in out


def test_train_epochs_zero_still_writes_checkpoint(tmp_path):
    data = synth_dir(tmp_path)
    run = train_run(tmp_path, data, "run0", extra=["--set", "epochs=0"])
    assert os.path.exists(os.path.join(run, "model.ckpt"))
    assert open(os.path.join(run, "training_log.txt")).read() == ""


def test_train_determinism_bitwise(tmp_path):
    data = synth_dir(tmp_path)
    run_a = train_run(tmp_path, data, "a")
    run_b = train_run(tmp_path, data, "b")
    a = open(os.path.join(run_a, "model.ckpt"), "rb").read()
    b = open(os.path.join(run_b, "model.ckpt"), "rb").read()
    assert a == b


def test_eval_writes_reports(tmp_path, capsys):
    data = synth_dir(tmp_path)
    run = train_run(tmp_path, data, "run")
    rv = cli.main(
        [
            "eval",
            "--adj", os.path.join(data, "adjacency.csv"),
            "--series", os.path.join(data, "series.csv"),
            "--ckpt", os.path.join(run, "model.ckpt"),
            "--out", run,
        ]
    )
    assert rv == 0
    text = open(os.path.join(run, "metrics.txt")).read()
    assert "# config_hash:" in text and "mape%" in text
    assert os.path.exists(os.path.join(run, "metrics.csv"))
    # repeated runs are deterministic
    first = open(os.path.join(run, "metrics.txt")).read()
    assert cli.main(
        [
            "eval",
            "--adj", os.path.join(data, "adjacency.csv"),
            "--series", os.path.join(data, "series.csv"),
            "--ckpt", os.path.join(run, "model.ckpt"),
            "--out", run,
        ]
    ) == 0
    assert open(os.path.join(run, "metrics.txt")).read() == first


def test_predict_matches_eval_pipeline_bitwise(tmp_path):
    data = synth_dir(tmp_path)
    run = train_run(tmp_path, data, "run")
    adj = os.path.join(data, "adjacency.csv")
    series_path = os.path.join(data, "series.csv")

    model = load_checkpoint(os.path.join(run, "model.ckpt"), load_adjacency(adj))
    ds = TimeSeriesDataset(
        series=load_series(series_path, 8, 1), graph=load_adjacency(adj)
    )
    pred, _ = model_predictions(model, ds)

    # write the first test window to its own CSV and predict from it
    from stunet.data import save_series

    lo, _ = ds.split_range("test")
    window_path = os.path.join(str(tmp_path), "window.csv")
    save_series(window_path, ds.series[lo : lo + 6])
    forecast_path = os.path.join(str(tmp_path), "forecast.csv")
    rv = cli.main(
        ["predict", "--adj", adj, "--series", window_path,
         "--ckpt", os.path.join(run, "model.ckpt"), "--out", forecast_path]
    )
    assert rv == 0
    forecast = load_series(forecast_path, 8, 1)
    assert forecast.shape == (2, 8, 1)
    assert np.array_equal(forecast, pred[0])


def saved_model(tmp_path, adj, name="model.ckpt", **config):
    from stunet.model import build, save_checkpoint

    ckpt = os.path.join(str(tmp_path), name)
    cfg = STUNetConfig(**{"k": 2, "p": 1, "hidden_sizes": (4, 4), "j": 6, "h": 2, **config})
    save_checkpoint(build(cfg, load_adjacency(adj)), ckpt)
    return ckpt


@pytest.mark.parametrize("source", ["set", "config"])
def test_predict_writes_to_the_out_dir_of_config_and_set(tmp_path, monkeypatch, source):
    from stunet.data import save_series

    data = synth_dir(tmp_path)
    adj = os.path.join(data, "adjacency.csv")
    window = os.path.join(str(tmp_path), "window.csv")
    save_series(window, load_series(os.path.join(data, "series.csv"), 8, 1)[:6])
    wanted = os.path.join(str(tmp_path), "out", "wanted.csv")
    if source == "set":
        flags = ["--set", f"out_dir={wanted}"]
    else:
        (tmp_path / "run.cfg").write_text(f"out_dir={wanted}\n")
        flags = ["--config", str(tmp_path / "run.cfg")]
    monkeypatch.chdir(tmp_path)
    rv = cli.main(["predict", "--adj", adj, "--series", window,
                   "--ckpt", saved_model(tmp_path, adj), *flags])
    assert rv == 0
    assert load_series(wanted, 8, 1).shape == (2, 8, 1)
    assert not os.path.exists(os.path.join(str(tmp_path), "forecast.csv"))


def test_eval_hashes_the_model_config_of_its_checkpoint(tmp_path):
    from dataclasses import replace

    data = synth_dir(tmp_path)
    adj = os.path.join(data, "adjacency.csv")
    hashes = []
    for hidden in ((4, 4), (6, 6)):
        name = "h" + "_".join(map(str, hidden))
        ckpt = saved_model(tmp_path, adj, name + ".ckpt", hidden_sizes=hidden)
        out = os.path.join(str(tmp_path), name)
        assert cli.main(["eval", "--adj", adj, "--series", os.path.join(data, "series.csv"),
                         "--ckpt", ckpt, "--out", out]) == 0
        first = open(os.path.join(out, "metrics.txt")).readline()
        want = replace(RunConfig(), model=load_checkpoint(ckpt, load_adjacency(adj)).config)
        assert first == f"# config_hash: {want.config_hash()}\n"
        hashes.append(first)
    assert hashes[0] != hashes[1]


def test_predict_rejects_wrong_window_length(tmp_path, capsys):
    data = synth_dir(tmp_path)
    run = train_run(tmp_path, data, "run")
    rv = cli.main(
        [
            "predict",
            "--adj", os.path.join(data, "adjacency.csv"),
            "--series", os.path.join(data, "series.csv"),  # 240 rows, not J
            "--ckpt", os.path.join(run, "model.ckpt"),
        ]
    )
    assert rv == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "6 rows" in err


def test_partition_command(tmp_path, capsys):
    data = synth_dir(tmp_path)
    out = os.path.join(str(tmp_path), "pmap.txt")
    rv = cli.main(
        ["partition", "--adj", os.path.join(data, "adjacency.csv"),
         "--level", "2", "--out", out]
    )
    assert rv == 0
    printed = capsys.readouterr().out
    assert "level 0: 8 nodes" in printed
    assert "level 2: 2 nodes" in printed
    body = open(out).read()
    assert body.splitlines()[0].startswith("level 0: node 0 -> super ")

    # identical rerun produces identical bytes
    again = os.path.join(str(tmp_path), "pmap2.txt")
    cli.main(
        ["partition", "--adj", os.path.join(data, "adjacency.csv"),
         "--level", "2", "--out", again]
    )
    assert open(out).read() == open(again).read()


def test_partition_honours_the_graph_keys_of_a_run(tmp_path):
    from stunet.partition import multilevel_partition

    rng = np.random.default_rng(3)
    path = os.path.join(str(tmp_path), "dist.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("from,to,km\n")
        for i in range(12):
            for j in range(i + 1, 12):
                fh.write(f"{i},{j},{rng.uniform(0.3, 3.0)!r}\n")
    maps = {}
    for sigma, eps in ((1.0, 0.0), (0.5, 0.3)):
        out = os.path.join(str(tmp_path), f"pmap_{sigma}.txt")
        rv = cli.main(
            ["partition", "--adj", path, "--level", "1", "--out", out,
             "--set", "adj_format=distance_gaussian",
             "--set", f"gauss_sigma={sigma}", "--set", f"gauss_eps={eps}"]
        )
        assert rv == 0
        g = load_adjacency(path, "distance_gaussian", sigma, eps)
        maps[sigma] = open(out).read()
        assert maps[sigma] == multilevel_partition(g, 1).to_text()
    assert maps[1.0] != maps[0.5]
    assert len(load_adjacency(path, "distance_gaussian", 0.5, 0.3).edges()) < 66


def test_partition_has_no_adj_format_flag():
    with pytest.raises(SystemExit):
        cli.main(["partition", "--adj", "a.csv", "--adj-format", "edge_list"])


def test_cli_reports_memory_exhaustion_as_an_error(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli, "load_adjacency", exhausted)
    assert cli.main(["partition", "--adj", "huge.csv"]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 298. GiB for an array\n"


def test_cli_reports_missing_files_as_errors(tmp_path, capsys):
    rv = cli.main(["train", "--adj", "missing.csv", "--series", "missing2.csv"])
    assert rv == 1
    assert capsys.readouterr().err.startswith("error:")

    rv = cli.main(
        ["train", "--adj", "x.csv", "--series", "y.csv", "--set", "bogus=1"]
    )
    assert rv == 1
    assert "bogus" in capsys.readouterr().err


MICRO_FLAGS = [
    "--set", "k=2", "--set", "p=1", "--set", "s=2", "--set", "hidden_sizes=6,6",
    "--set", "j=6", "--set", "h=2", "--set", "epochs=1", "--set", "batch_size=32",
    "--set", "seeds=0",
]


def test_ablation_command(tmp_path, capsys):
    data = synth_dir(tmp_path)
    out = os.path.join(str(tmp_path), "ab")
    rv = cli.main(
        ["ablation", "--adj", os.path.join(data, "adjacency.csv"),
         "--series", os.path.join(data, "series.csv"), "--out", out,
         "--seed", "3", *MICRO_FLAGS]
    )
    assert rv == 0
    text = open(os.path.join(out, "ablation.txt")).read()
    for label in ("GCGRU", "T-UNet", "S-UNet", "ST-UNet"):
        assert label in text
    assert "±" in text
    assert os.path.exists(os.path.join(out, "ablation.csv"))


def test_upsample_compare_command(tmp_path):
    data = synth_dir(tmp_path)
    out = os.path.join(str(tmp_path), "up")
    rv = cli.main(
        ["upsample-compare", "--adj", os.path.join(data, "adjacency.csv"),
         "--series", os.path.join(data, "series.csv"), "--out", out,
         "--seed", "3", *MICRO_FLAGS]
    )
    assert rv == 0
    text = open(os.path.join(out, "upsample_compare.txt")).read()
    for label in ("direct_copy", "ordered_deconv", "weighted_deconv"):
        assert label in text
    csv = open(os.path.join(out, "upsample_compare.csv")).read()
    assert csv.splitlines()[-3].startswith("direct_copy,0,")


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=9\nlr=0.005\nseed=2\n")
    mapping = cli._mapping_from_args(
        cli.build_parser().parse_args(
            ["train", "--config", str(cfg), "--seed", "8", "--set", "epochs=1"]
        )
    )
    rc, _ = cli.run_config_from_mapping(mapping)
    assert rc.epochs == 1  # --set wins over file
    assert rc.seed == 8  # flag wins over file
    assert rc.lr == 0.005


def test_predict_reports_a_bad_checkpoint_config_as_an_error(tmp_path, capsys):
    from stunet.model import STUNetConfig, build, save_checkpoint

    data = synth_dir(tmp_path)
    adj = os.path.join(data, "adjacency.csv")
    ckpt = os.path.join(str(tmp_path), "model.ckpt")
    save_checkpoint(build(STUNetConfig(k=2, hidden_sizes=(4, 4, 4), j=6), load_adjacency(adj)), ckpt)
    raw = open(ckpt, "rb").read()
    open(ckpt, "wb").write(raw.replace(b"\nj=6\n", b"\nj=x\n", 1))
    rv = cli.main(
        ["predict", "--adj", adj, "--series", os.path.join(data, "series.csv"), "--ckpt", ckpt]
    )
    assert rv == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.ckpt" in err and "j='x'" in err


@pytest.mark.parametrize("flags, message", [
    (["--set", "batch_size=0"], "batch size >= 1"),
    (["--horizons", "3"], "metric horizon 3 lies outside 1..2"),
])
def test_eval_rejects_bad_settings_before_forecasting(tmp_path, monkeypatch, capsys,
                                                      flags, message):
    from stunet import evaluate, training
    from stunet.model import build, save_checkpoint

    data = synth_dir(tmp_path)
    adj = os.path.join(data, "adjacency.csv")
    ckpt = os.path.join(str(tmp_path), "model.ckpt")
    save_checkpoint(build(STUNetConfig(k=2, p=1, hidden_sizes=(4, 4), j=6, h=2),
                          load_adjacency(adj)), ckpt)

    def no_forecast(*args, **kwargs):
        raise AssertionError("a window was forecast")

    monkeypatch.setattr(evaluate, "predict_windows", no_forecast)
    monkeypatch.setattr(training, "predict_windows", no_forecast)
    capsys.readouterr()
    rv = cli.main(["eval", "--adj", adj, "--series", os.path.join(data, "series.csv"),
                   "--ckpt", ckpt, "--out", str(tmp_path), *flags])
    assert rv == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not os.path.exists(os.path.join(str(tmp_path), "metrics.txt"))


@pytest.mark.parametrize("flag, value, message", [
    ("--noise-sigma", "-1", "noise_sigma must be finite and >= 0, got -1.0"),
    ("--interval", "nan", "interval_minutes must be finite and > 0, got nan"),
    ("--interval", "-5", "interval_minutes must be finite and > 0, got -5.0"),
])
def test_synth_rejects_a_bad_noise_sigma_or_interval(tmp_path, capsys, flag, value, message):
    out = os.path.join(str(tmp_path), "data")
    rv = cli.main(["synth", "--t", "20", flag, value, "--out", out])
    assert rv == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


def test_synth_manifest_errors_name_the_field(tmp_path, capsys):
    out = synth_dir(tmp_path)
    text = open(os.path.join(out, "manifest.txt")).read()
    for name, bad_text, key in (
        ("value.txt", text.replace("cols=4", "cols=x"), "'cols'"),
        ("missing.txt", text.replace("t=240\n", ""), "'t'"),
    ):
        manifest = tmp_path / name
        manifest.write_text(bad_text)
        capsys.readouterr()
        rv = cli.main(["synth", "--manifest", str(manifest), "--out", str(tmp_path / "again")])
        assert rv == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and key in err


def test_cli_import_leaves_evaluate_and_subprocess_unloaded():
    import stunet

    code = "import sys, stunet.cli; print('stunet.evaluate' in sys.modules, 'subprocess' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stunet.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]
