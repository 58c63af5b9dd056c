"""Command-line entry point: train, eval, predict, partition, synth,
ablation, and upsample-compare subcommands.

The run commands and partition take flat key=value text from a --config
file, then --set overrides, then the common flags (COMMON_FLAGS), each source
winning over the one before, and all load their graph with _load_graph. The
keys are the fields of STUNetConfig and RunConfig plus the data keys of
EXTRA_DEFAULTS, and model.parse_field types each value from the default of
the field it names, as it types checkpoint and manifest text.
"""

from __future__ import annotations

import os
import sys

from . import thread_cap
from .errors import DataError, StunetError, UsageError

# the thread counts BLAS libraries read when NumPy loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _configure_threads() -> None:
    """Give each BLAS call one thread before NumPy loads, so the package's own
    threads (thread_budget, up to STUNET_THREADS) share the CPUs instead of
    BLAS taking them all. A user's BLAS count, any one of BLAS_THREAD_VARS,
    is kept as it is; once NumPy has loaded, BLAS has its threads already and
    nothing is set, so thread_budget reads what BLAS really runs."""
    if "numpy" in sys.modules or any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


_configure_threads()

import argparse
from dataclasses import fields, replace

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
from .model import (
    STUNetConfig, load_checkpoint, parse_field, read_checkpoint_config, save_checkpoint, variant,
)
from .partition import multilevel_partition
from .training import RunConfig, train_model, write_history

# keys beyond the two config dataclasses, with the defaults that type them: the
# adjacency format and Gaussian kernel of load_adjacency, and the experiment
# drivers' seed list (None: the run's own seed)
EXTRA_DEFAULTS = {"adj_format": "dense_csv", "gauss_sigma": 1.0, "gauss_eps": 0.0, "seeds": None}

# the flags every run command shares: flag, the config key it sets, help text
COMMON_FLAGS = (
    ("--adj", "adj_path", "adjacency file path"),
    ("--series", "series_path", "series CSV path"),
    ("--ckpt", "ckpt_path", "checkpoint path"),
    ("--out", "out_dir", "output directory (or file for predict and partition)"),
    ("--seed", "seed", "seed override"),
    ("--variant", "variant", "GCGRU, T-UNet, S-UNet, or ST-UNet"),
    ("--horizons", "horizons", "comma list of metric steps, e.g. 3,6,12"),
)


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    return read_manifest(path, UsageError)


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name != "model"}


def run_config_from_mapping(mapping: dict):
    """(RunConfig, extras) from flat text keys, each typed from the default of
    the field it names. ``seed`` names a field of both dataclasses and sets
    both; an unknown key raises UsageError naming it."""
    tables = [(_defaults(STUNetConfig), {}), (_defaults(RunConfig), {}), (EXTRA_DEFAULTS, {})]
    for key, raw in mapping.items():
        owners = [(defaults[key], values) for defaults, values in tables if key in defaults]
        if not owners:
            raise UsageError(f"unknown config field '{key}'")
        for default, values in owners:
            values[key] = parse_field(key, raw, default, UsageError)
    (_, model_kwargs), (_, run_kwargs), (_, extras) = tables
    return RunConfig(model=STUNetConfig(**model_kwargs), **run_kwargs), extras


def _mapping_from_args(args) -> dict:
    """The config file, then --set overrides, then the common flags."""
    mapping = parse_config_file(args.config) if args.config else {}
    for item in args.overrides:
        key, eq, value = item.partition("=")
        if not eq:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        mapping[key.strip()] = value.strip()
    for _, key, _ in COMMON_FLAGS:
        if getattr(args, key):
            mapping[key] = getattr(args, key)
    return mapping


def _require(value: str, hint: str) -> str:
    if not value:
        raise UsageError(f"missing {hint}")
    return value


def _load_graph(rc: RunConfig, extras: dict):
    adj = _require(rc.adj_path, "adjacency path (--adj or adj_path=)")
    opts = {**EXTRA_DEFAULTS, **extras}
    return load_adjacency(adj, opts["adj_format"], opts["gauss_sigma"], opts["gauss_eps"])


def _load_dataset(rc: RunConfig, extras: dict) -> TimeSeriesDataset:
    series_path = _require(rc.series_path, "series path (--series or series_path=)")
    g = _load_graph(rc, extras)
    series = load_series(series_path, g.n, rc.model.d_in)
    return TimeSeriesDataset(series=series, graph=g, interval_minutes=rc.interval_minutes)


def cmd_train(args) -> int:
    rc, extras = run_config_from_mapping(_mapping_from_args(args))
    rc.model = variant(rc.model, rc.variant)
    rc.validate()
    ds = _load_dataset(rc, extras)
    model, history = train_model(rc, ds)
    out = rc.out_dir or "."
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
    # the run keys, and the horizons against the stored h, fail before any data is read
    rc = replace(rc, model=read_checkpoint_config(ckpt))
    rc.validate()
    ds = _load_dataset(rc, extras)
    model = load_checkpoint(ckpt, ds.graph)
    report = evaluate_model(model, ds, rc.horizons, batch_size=rc.batch_size)
    prov = provenance_lines(rc, (rc.seed,))
    text = report.render_text(prov)
    paths = write_report_files(rc.out_dir or ".", "metrics", text, report.render_csv(prov))
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
    from .training import predict_windows  # a call-time lookup, so a tracer can wrap it

    pred = model.denormalize(predict_windows(model, model.normalize(window)[None])[0])
    out_path = rc.out_dir or "forecast.csv"
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    save_series(out_path, pred)
    print(f"forecast ({pred.shape[0]} steps x {g.n} nodes) written to {out_path}")
    return 0


def cmd_partition(args) -> int:
    rc, extras = run_config_from_mapping(_mapping_from_args(args))
    pm = multilevel_partition(_load_graph(rc, extras), args.level)
    out_path = rc.out_dir or "partition.txt"
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
        "seed": args.seed,
        "mode": args.mode,
        "interval_minutes": args.interval,
    }
    if args.manifest:
        stored = read_manifest(args.manifest)
        where = f"{args.manifest}: "
        for key, default in params.items():  # each keeps its option's type
            if key not in stored:
                raise DataError(f"{where}manifest has no {key!r}")
            params[key] = parse_field(key, stored[key], default, DataError, where)
    g = knn_grid_graph(params["rows"], params["cols"])
    ds = synth_diffusion(g, **{k: v for k, v in params.items() if k not in ("rows", "cols")})
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
    table = runner(rc, ds, extras.get("seeds"))
    paths = write_report_files(rc.out_dir or ".", report, table.render_text(), table.render_csv())
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
    for flag, key, text in COMMON_FLAGS:
        common.add_argument(flag, dest=key, help=text)
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

    part = sub.add_parser("partition", parents=[common], description="The partition map of "
                          "the graph a run builds from --adj and --set adj_format=, gauss_*=.")
    part.add_argument("--level", type=int, default=1, help="coarsening levels")
    part.set_defaults(fn=cmd_partition)

    synth = sub.add_parser("synth")
    synth.add_argument("--rows", type=int, default=4)
    synth.add_argument("--cols", type=int, default=8)
    synth.add_argument("--t", type=int, default=2000)
    synth.add_argument("--alpha", type=float, default=0.6)
    synth.add_argument("--noise-sigma", type=float, default=0.05, dest="noise_sigma")
    synth.add_argument("--mode", default="row", choices=("row", "symmetric"))
    synth.add_argument("--interval", type=float, default=5.0)
    synth.add_argument("--seed", type=int, default=0)
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
        thread_cap()
        return args.fn(args)
    except (StunetError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
