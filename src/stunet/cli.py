"""Command-line entry point: train, eval, predict, partition, synth,
ablation, and upsample-compare subcommands over flat key=value configs.
"""

from __future__ import annotations

import os


def _configure_threads() -> None:
    """Honor STUNET_THREADS before any numerical library spins up a pool."""
    count = os.environ.get("STUNET_THREADS")
    if count:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ):
            os.environ.setdefault(var, count)


_configure_threads()

import argparse
import sys

import numpy as np

from .data import (
    TimeSeriesDataset,
    knn_grid_graph,
    load_adjacency,
    load_series,
    read_manifest,
    save_adjacency_dense,
    save_series,
    synth_diffusion,
    write_manifest,
)
from .errors import DataError, StunetError, UsageError
from .model import STUNetConfig, load_checkpoint, save_checkpoint, variant
from .partition import multilevel_partition
from .training import RunConfig, train_model, write_history

MODEL_INT_FIELDS = ("k", "p", "s", "j", "h", "d_in", "d_out")
MODEL_BOOL_FIELDS = ("layer_norm",)
MODEL_STR_FIELDS = ("pool_mode", "unpool_mode")
RUN_INT_FIELDS = ("epochs", "batch_size", "lr_decay_every", "ha_period")
RUN_FLOAT_FIELDS = ("lr", "lr_decay", "clip_norm", "ss_tau", "interval_minutes")
RUN_STR_FIELDS = ("variant", "adj_path", "series_path", "ckpt_path", "out_dir")
EXTRA_FIELDS = ("adj_format", "gauss_sigma", "gauss_eps", "seeds")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"config field '{key}' expects an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"config field '{key}' expects a number, got {raw!r}") from None


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config field '{key}' expects true/false, got {raw!r}")


def _parse_int_tuple(raw: str, key: str) -> tuple:
    toks = [t for t in raw.replace(" ", "").split(",") if t]
    if not toks:
        raise UsageError(f"config field '{key}' expects a comma list of integers")
    return tuple(_parse_int(t, key) for t in toks)


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    mapping = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, value = text.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def run_config_from_mapping(mapping: dict):
    """(RunConfig, extras) from flat keys; unknown keys name the field."""
    model_kwargs = {}
    run_kwargs = {}
    extras = {}
    for key, raw in mapping.items():
        if key == "seed":
            value = _parse_int(raw, key)
            model_kwargs["seed"] = value
            run_kwargs["seed"] = value
        elif key == "hidden_sizes":
            model_kwargs["hidden_sizes"] = _parse_int_tuple(raw, key)
        elif key in MODEL_INT_FIELDS:
            model_kwargs[key] = _parse_int(raw, key)
        elif key in MODEL_BOOL_FIELDS:
            model_kwargs[key] = _parse_bool(raw, key)
        elif key in MODEL_STR_FIELDS:
            model_kwargs[key] = raw
        elif key == "horizons":
            run_kwargs["horizons"] = _parse_int_tuple(raw, key)
        elif key in RUN_INT_FIELDS:
            run_kwargs[key] = _parse_int(raw, key)
        elif key in RUN_FLOAT_FIELDS:
            run_kwargs[key] = _parse_float(raw, key)
        elif key in RUN_STR_FIELDS:
            run_kwargs[key] = raw
        elif key in EXTRA_FIELDS:
            extras[key] = raw
        else:
            raise UsageError(f"unknown config field '{key}'")
    rc = RunConfig(model=STUNetConfig(**model_kwargs), **run_kwargs)
    return rc, extras


def _mapping_from_args(args) -> dict:
    mapping = parse_config_file(args.config) if args.config else {}
    for item in getattr(args, "overrides", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    if getattr(args, "adj", None):
        mapping["adj_path"] = args.adj
    if getattr(args, "series", None):
        mapping["series_path"] = args.series
    if getattr(args, "ckpt", None):
        mapping["ckpt_path"] = args.ckpt
    if getattr(args, "out", None):
        mapping["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        mapping["seed"] = str(args.seed)
    if getattr(args, "variant", None):
        mapping["variant"] = args.variant
    if getattr(args, "horizons", None):
        mapping["horizons"] = args.horizons
    return mapping


def _require(value: str, hint: str) -> str:
    if not value:
        raise UsageError(f"missing {hint}")
    return value


def _load_graph(rc: RunConfig, extras: dict):
    adj = _require(rc.adj_path, "adjacency path (--adj or adj_path=)")
    fmt = extras.get("adj_format", "dense_csv")
    sigma = _parse_float(extras.get("gauss_sigma", "1.0"), "gauss_sigma")
    eps = _parse_float(extras.get("gauss_eps", "0.0"), "gauss_eps")
    return load_adjacency(adj, fmt, sigma=sigma, eps=eps)


def _load_dataset(rc: RunConfig, extras: dict) -> TimeSeriesDataset:
    series_path = _require(rc.series_path, "series path (--series or series_path=)")
    g = _load_graph(rc, extras)
    series = load_series(series_path, g.n, rc.model.d_in)
    return TimeSeriesDataset(series=series, graph=g, interval_minutes=rc.interval_minutes)


def _out_dir(rc: RunConfig) -> str:
    return rc.out_dir or "."


def cmd_train(args) -> int:
    rc, extras = run_config_from_mapping(_mapping_from_args(args))
    rc.model = variant(rc.model, rc.variant)
    rc.validate()
    ds = _load_dataset(rc, extras)
    model, history = train_model(rc, ds)
    out = _out_dir(rc)
    os.makedirs(out, exist_ok=True)
    ckpt = rc.ckpt_path or os.path.join(out, "model.ckpt")
    save_checkpoint(model, ckpt)
    write_history(os.path.join(out, "training_log.txt"), history)
    for entry in history:
        print(entry.line())
    print(f"checkpoint written to {ckpt}")
    return 0


def cmd_eval(args) -> int:
    from .evaluate import evaluate_model, provenance_lines, write_report_files

    rc, extras = run_config_from_mapping(_mapping_from_args(args))
    ckpt = _require(rc.ckpt_path, "checkpoint path (--ckpt or ckpt_path=)")
    ds = _load_dataset(rc, extras)
    model = load_checkpoint(ckpt, ds.graph)
    report = evaluate_model(model, ds, rc.horizons, batch_size=rc.batch_size)
    prov = provenance_lines(rc, (rc.seed,))
    text = report.render_text(prov)
    paths = write_report_files(_out_dir(rc), "metrics", text, report.render_csv(prov))
    print(text, end="")
    print(f"report written to {paths[0]} and {paths[1]}")
    return 0


def cmd_predict(args) -> int:
    rc, extras = run_config_from_mapping(_mapping_from_args(args))
    ckpt = _require(rc.ckpt_path, "checkpoint path (--ckpt or ckpt_path=)")
    window_path = _require(rc.series_path, "recent-window path (--series or series_path=)")
    g = _load_graph(rc, extras)
    model = load_checkpoint(ckpt, g)
    cfg = model.config
    window = load_series(window_path, g.n, cfg.d_in)
    if window.shape[0] != cfg.j:
        raise UsageError(
            f"recent window must have exactly {cfg.j} rows, got {window.shape[0]}"
        )
    mean = model.norm_mean.data
    std = model.norm_std.data
    from .training import predict_windows  # a call-time lookup, so a tracer can wrap it

    pred = predict_windows(model, ((window - mean) / std)[None])[0] * std + mean
    out_path = args.out or "forecast.csv"
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    save_series(out_path, pred)
    print(f"forecast ({pred.shape[0]} steps x {g.n} nodes) written to {out_path}")
    return 0


def cmd_partition(args) -> int:
    adj = _require(args.adj, "adjacency path (--adj)")
    g = load_adjacency(adj, args.adj_format)
    pm = multilevel_partition(g, args.level)
    out_path = args.out or "partition.txt"
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(pm.to_text())
    for level, graph in enumerate(pm.graphs):
        print(f"level {level}: {graph.n} nodes")
    print(f"partition map written to {out_path}")
    return 0


def cmd_synth(args) -> int:
    params = {
        "rows": args.rows,
        "cols": args.cols,
        "t": args.t,
        "alpha": args.alpha,
        "noise_sigma": args.noise_sigma,
        "seed": args.seed if args.seed is not None else 0,
        "mode": args.mode,
        "interval_minutes": args.interval,
    }
    if args.manifest:
        stored = read_manifest(args.manifest)
        for key, default in params.items():  # each keeps its option's type
            if key not in stored:
                raise DataError(f"{args.manifest}: manifest has no {key!r}")
            try:
                params[key] = type(default)(stored[key])
            except ValueError:
                raise DataError(
                    f"{args.manifest}: manifest field {key!r} has bad value {stored[key]!r}"
                ) from None
    g = knn_grid_graph(params["rows"], params["cols"])
    ds = synth_diffusion(
        g,
        t=params["t"],
        alpha=params["alpha"],
        noise_sigma=params["noise_sigma"],
        seed=params["seed"],
        mode=params["mode"],
        interval_minutes=params["interval_minutes"],
    )
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    save_adjacency_dense(os.path.join(out, "adjacency.csv"), g)
    save_series(os.path.join(out, "series.csv"), ds.series)
    write_manifest(os.path.join(out, "manifest.txt"), params)
    print(
        f"wrote {params['rows']}x{params['cols']} grid adjacency and "
        f"{params['t']}-step series to {out}"
    )
    return 0


def _write_comparison(args, runner, report: str) -> int:
    """Train and compare models with an ``evaluate`` runner; write its report."""
    from .evaluate import write_report_files

    rc, extras = run_config_from_mapping(_mapping_from_args(args))
    rc.validate()
    ds = _load_dataset(rc, extras)
    seeds = _parse_int_tuple(extras["seeds"], "seeds") if "seeds" in extras else None
    table = runner(rc, ds, seeds)
    paths = write_report_files(_out_dir(rc), report, table.render_text(), table.render_csv())
    print(table.render_text(), end="")
    print(f"report written to {paths[0]} and {paths[1]}")
    return 0


def cmd_ablation(args) -> int:
    from .evaluate import run_ablation

    return _write_comparison(args, run_ablation, "ablation")


def cmd_upsample_compare(args) -> int:
    from .evaluate import run_upsampling_comparison

    return _write_comparison(args, run_upsampling_comparison, "upsample_compare")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--adj", help="adjacency file path")
    common.add_argument("--series", help="series CSV path")
    common.add_argument("--ckpt", help="checkpoint path")
    common.add_argument("--out", help="output directory (or file for predict)")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--variant", help="GCGRU, T-UNet, S-UNet, or ST-UNet")
    common.add_argument("--horizons", help="comma list of metric steps, e.g. 3,6,12")
    common.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="override any config field",
    )
    parser = argparse.ArgumentParser(
        prog="stunet",
        description="Graph-structured time-series forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[common]).set_defaults(fn=cmd_train)
    sub.add_parser("eval", parents=[common]).set_defaults(fn=cmd_eval)
    sub.add_parser("predict", parents=[common]).set_defaults(fn=cmd_predict)

    part = sub.add_parser("partition")
    part.add_argument("--adj", help="adjacency file path")
    part.add_argument("--adj-format", default="dense_csv", dest="adj_format")
    part.add_argument("--level", type=int, default=1, help="coarsening levels")
    part.add_argument("--out", help="partition map output path")
    part.set_defaults(fn=cmd_partition)

    synth = sub.add_parser("synth")
    synth.add_argument("--rows", type=int, default=4)
    synth.add_argument("--cols", type=int, default=8)
    synth.add_argument("--t", type=int, default=2000)
    synth.add_argument("--alpha", type=float, default=0.6)
    synth.add_argument("--noise-sigma", type=float, default=0.05, dest="noise_sigma")
    synth.add_argument("--mode", default="row", choices=("row", "symmetric"))
    synth.add_argument("--interval", type=float, default=5.0)
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--manifest", help="regenerate from an existing manifest")
    synth.add_argument("--out", help="output directory")
    synth.set_defaults(fn=cmd_synth)

    sub.add_parser("ablation", parents=[common]).set_defaults(fn=cmd_ablation)
    sub.add_parser("upsample-compare", parents=[common]).set_defaults(
        fn=cmd_upsample_compare
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StunetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
