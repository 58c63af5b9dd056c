"""stunet benchmark: one workload per run, or all four with ``--workload all``.

    python3 perfbench/run.py --workload serve_grid64 --seed 1 --seconds 15 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it name every metric with its unit, the checks,
a digest of the inputs and outputs, and the environment. Exits 1 when an
output check fails and 2 when the package source is missing.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads: one BLAS thread (never more than nproc), the same
# for the CLI subprocesses, which inherit the environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "windows_per_s": "1/s",
    "p50_ms": "ms",
}

# Workload-specific names, printed beside the generic JSON names.
ALIASES = {
    "train_grid64": {"windows_per_s": "train_windows_per_s"},
    "serve_grid64": {"p50_ms": "serve_p50_ms"},
    "eval_grid576": {"windows_per_s": "eval_windows_per_s"},
    "predict_cli_grid576": {"p50_ms": "cold_predict_s"},
}


def environment_line() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return (
        f"env nproc={nproc} blas_threads={BLAS_THREADS} numpy={np.__version__} "
        f"blas={blas.get('name')}-{blas.get('version')} python={platform.python_version()}"
    )


def layer_metrics(tr, wl, units: int, setups: int, trace_p50_ms: float) -> dict:
    """Per-layer values: run-phase layers per unit (step, request or pass),
    set-up layers per set-up (per request for the CLI, which sets up in every
    request)."""
    inc, cnt, calls = tr.incl, tr.counted, tr.calls
    run = "run"
    sp, sn = ("run", units) if wl.setup_in_requests else ("setup", setups)
    grads = cnt(run, "tensor.pullback_grads")
    levels = cnt(sp, "partition.levels")
    saves = calls("inputs", "model.save_checkpoint")
    values = [
        ("tensor.ops", cnt(run, "tensor.ops") / units, "count"),
        ("tensor.tape_nodes", cnt(run, "tensor.tape_nodes") / units, "count"),
        ("tensor.tape_mb", cnt(run, "tensor.tape_bytes") / units / 1e6, "MB"),
        ("tensor.discarded_grad_ratio",
         cnt(run, "tensor.discarded_grads") / grads if grads else 0.0, "ratio"),
        ("tensor.backward_s", inc(run, "tensor.backward") / units, "s"),
        ("tensor.adam_step_s", inc(run, "tensor.adam_step") / units, "s"),
        ("tensor.clip_global_norm_s", inc(run, "tensor.clip_global_norm") / units, "s"),
        ("graph.cheb_basis_calls", calls(run, "graph.cheb_basis") / units, "count"),
        ("graph.cheb_basis_s", inc(run, "graph.cheb_basis") / units, "s"),
        ("graph.cheb_basis_self_s", tr.self_time(run, "graph.cheb_basis") / units, "s"),
        ("graph.lap_products", cnt(run, "graph.lap_products") / units, "count"),
        ("graph.lap_gflop", cnt(run, "graph.lap_flop") / units / 1e9, "GFLOP"),
        ("graph.lap_product_s", inc(run, "graph.lap_product") / units, "s"),
        ("graph.normalized_laplacian_s", inc(sp, "graph.normalized_laplacian") / sn, "s"),
        ("graph.lambda_max_fallbacks", cnt(sp, "graph.lambda_max_fallbacks") / sn, "count"),
        ("partition.multilevel_partition_s",
         inc(sp, "partition.multilevel_partition") / sn, "s"),
        ("partition.coarsen_ratio",
         cnt(sp, "partition.ratio_sum") / levels if levels else 0.0, "ratio"),
        ("sampling.pool_calls", calls(run, "sampling.pool") / units, "count"),
        ("sampling.pool_s", inc(run, "sampling.pool") / units, "s"),
        ("sampling.unpool_calls", calls(run, "sampling.unpool") / units, "count"),
        ("sampling.unpool_s", inc(run, "sampling.unpool") / units, "s"),
        ("recurrent.cell_steps", calls(run, "recurrent.cell_step") / units, "count"),
        ("recurrent.cell_step_s", inc(run, "recurrent.cell_step") / units, "s"),
        ("recurrent.encode_s", inc(run, "recurrent.encode") / units, "s"),
        ("recurrent.decode_s", inc(run, "recurrent.decode") / units, "s"),
        ("model.forward_s", inc(run, "model.forward") / units, "s"),
        ("model.build_s", inc(sp, "model.build") / sn, "s"),
        ("model.load_checkpoint_s", inc(sp, "model.load_checkpoint") / sn, "s"),
        ("model.save_checkpoint_s",
         inc("inputs", "model.save_checkpoint") / saves if saves else 0.0, "s"),
        ("data.load_adjacency_s", inc(sp, "data.load_adjacency") / sn, "s"),
        ("data.load_series_s", inc(sp, "data.load_series") / sn, "s"),
        ("data.series_mb", cnt(sp, "data.series_bytes") / sn / 1e6, "MB"),
        ("data.make_windows_s", inc(run, "data.make_windows") / units, "s"),
        ("training.batch_wait_s", inc(run, "training.batch_wait") / units, "s"),
        ("training.forward_s",
         (inc(run, "training.forward") + inc(run, "training.loss")) / units, "s"),
        ("training.backward_s", inc(run, "tensor.backward") / units, "s"),
        ("training.optimizer_s",
         (inc(run, "tensor.adam_step") + inc(run, "tensor.clip_global_norm")) / units, "s"),
        ("training.predict_windows_s", inc(run, "training.predict_windows") / units, "s"),
        ("evaluate.model_predictions_s",
         inc(run, "evaluate.model_predictions") / units, "s"),
        ("evaluate.horizon_report_s", inc(run, "evaluate.horizon_report") / units, "s"),
        ("cli.import_s", inc(run, "cli.import") / units, "s"),
        ("cli.overhead_s", cnt(run, "cli.overhead_s") / units, "s"),
        ("trace.p50_ms", trace_p50_ms, "ms"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import calibration
    import tracing
    from workloads import WORKLOADS, Context, Outcome, digest

    wl = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    tr = tracing.Tracer() if trace else None
    inst = tracing.install(tr) if trace else None
    # Traced runs probe only between operations, so layer times hold no probe.
    probes = calibration.Probes(max(wl.probe_points, 1) if trace else wl.probe_points,
                                wl.probe_kind)
    ctx = Context(seed=seed, work=work, src=SRC, tracer=tr, probes=probes)

    def phase(p: str) -> None:
        if tr is not None:
            tr.phase = p

    print(environment_line())
    print(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"loop=closed clients=1 unit={wl.unit}")
    try:
        phase("inputs")
        inp = wl.make_inputs(ctx)
        if wl.probe_timer and not trace:
            probes.start_timer(calibration.TIMER_S)
        setup_at = []  # (start, stop) of each set-up
        phase("setup")
        for _ in range(wl.setups):
            probes.between()
            t0 = time.perf_counter()
            state = wl.setup(ctx, inp)
            setup_at.append((t0, time.perf_counter()))
        probes.between()

        phase("run")
        outcomes = []
        start = time.perf_counter()
        while len(outcomes) < wl.min_ops or time.perf_counter() - start < seconds:
            i = len(outcomes)
            if tr is not None:
                tr.op = i
            t0 = time.perf_counter()
            try:
                outcomes.append(wl.op(ctx, state, i))
            except Exception:
                traceback.print_exc()
                outcomes.append(Outcome(t0, time.perf_counter(), wl.units_per_op, 0,
                                        wl.units_per_op))
            probes.between()
        probes.stop_timer()
        peak_rss_mb = wl.peak_rss_mb()

        phase("check")
        attempted = sum(o.units for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        try:
            bad, out_digest, lines = wl.finish(ctx, inp, state)
            failed = min(attempted, failed + bad)
        except Exception:
            traceback.print_exc()
            failed, out_digest, lines = attempted, "none", []
    finally:
        probes.stop_timer()
        if inst is not None:
            inst.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    setups = [probes.calibrate(a, b) for a, b in setup_at]
    ops = [probes.calibrate(o.start, o.stop) for o in outcomes]
    raw = sorted(r for r, _ in ops)
    cal = sorted(c for _, c in ops)
    windows = sum(o.windows for o in outcomes)
    e2e = {
        "setup_s": (statistics.median(c for _, c in setups),
                    statistics.median(r for r, _ in setups)),
        "peak_rss_mb": (peak_rss_mb, peak_rss_mb),
        "windows_per_s": (windows / sum(cal), windows / sum(raw)),
        "p50_ms": (statistics.median(cal) * 1e3, statistics.median(raw) * 1e3),
    }
    print(f"calibration probe {probes.kind} {probes.median():.6f} s (median of "
          f"{len(probes.at)}), nominal {probes.nominal} s; times are calibrated, "
          f"raw in brackets")
    aliases = ALIASES[name]
    for key, (value, measured) in e2e.items():
        unit = END_TO_END_UNITS[key]
        alias = aliases.get(key, key)
        if alias == "cold_predict_s":
            value, measured, unit = value / 1e3, measured / 1e3, "s"
        print(f"metric {name} {alias} {value!r} {unit} [raw {measured!r}]")
    if name == "serve_grid64":
        rank = math.ceil(0.9 * len(cal))  # nearest-rank p90
        print(f"metric {name} serve_p90_ms {cal[rank - 1] * 1e3!r} ms "
              f"[raw {raw[rank - 1] * 1e3!r}] (n={len(cal)}, {len(cal) - rank} beyond)")
    print(f"metric {name} failed_ratio {failed / attempted!r} ratio "
          f"({failed} of {attempted}, unit {wl.unit})")
    for line in lines:
        print(line)
    print(f"digest {name} inputs={digest(inp['series'], 9)} {out_digest}")

    correct = failed == 0
    if trace:
        metrics = layer_metrics(tr, wl, attempted, len(setups), e2e["p50_ms"][0])
        path = os.path.join(OUT_DIR, f"trace-{name}.tsv")
        tr.write(path)
        print(f"trace {name} spans={len(tr.spans)} written to "
              f"{os.path.relpath(path, ROOT)}")
        for line in tr.summary_lines():
            print("span " + line)
        for key, m in metrics.items():
            print(f"layer {name} {key} {m['value']!r} {m['unit']}")
    else:
        metrics = {k: {"value": v[0], "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process; prints
    the tracing overhead as traced over untraced median operation time."""
    from workloads import WORKLOADS

    results = {}
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                if not line.startswith(("span ", "layer ")):
                    print(line)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                code = 1
                print(f"workload {name} trace={trace} exited {proc.returncode}")
                continue
            results[(name, trace)] = json.loads(lines[-1])
    metrics = {}
    attempted = failed = 0
    correct = code == 0
    for (name, trace), res in results.items():
        correct = correct and res["correct"]
        if trace == 0:
            attempted += res["attempted"]
            failed += res["failed"]
            for key, m in res["metrics"].items():
                metrics[f"{name}.{key}"] = m
        elif (name, 0) in results:
            untraced = results[(name, 0)]["metrics"]["p50_ms"]["value"]
            traced = res["metrics"]["trace.p50_ms"]["value"]
            overhead = (traced / untraced - 1.0) * 100.0
            print(f"tracing {name} overhead {overhead:.1f}% "
                  f"(p50 {untraced:.3f} ms untraced, {traced:.3f} ms traced)")
            metrics[f"{name}.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and code == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train_grid64, serve_grid64, eval_grid576, "
                             "predict_cli_grid576, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stunet", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
