"""The four benchmark workloads: inputs, set-up, one timed operation, checks.

Every workload builds its inputs from the benchmark seed with
``data.knn_grid_graph`` and ``data.synth_diffusion``; the seed changes the
series values only, so the work done per operation (and every traced count)
is the same for every seed. Model weights always come from model seed 0.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from stunet import data, evaluate, training
from stunet import model as stmodel
from stunet.model import STUNetConfig

MODEL = STUNetConfig(k=3, p=2, s=2, hidden_sizes=(32, 32, 32), j=12, h=3, seed=0)
ALPHA = 0.6
NOISE_SIGMA = 0.05
MATCH_TOL = 1e-9
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """Result of one timed operation."""

    start: float  # perf_counter at the start of the timed section
    stop: float
    units: int  # steps or requests the operation attempted
    windows: int  # windows trained on or forecast
    failed: int = 0  # units that raised or failed a check


@dataclass
class Context:
    """What a workload needs from the runner."""

    seed: int
    work: str  # scratch directory for generated files
    src: str  # the package source root
    tracer: object = None  # tracing.Tracer in a traced run, else None
    probes: object = None  # calibration.Probes, told which child to stop


def digest(arr: np.ndarray, decimals: int = 6) -> str:
    """Short hash of values rounded to ``decimals``; adding 0.0 folds -0 into 0."""
    rounded = np.round(np.asarray(arr, dtype=np.float64), decimals) + 0.0
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def synth(rows: int, cols: int, t: int, seed: int) -> data.TimeSeriesDataset:
    return data.synth_diffusion(data.knn_grid_graph(rows, cols), t, ALPHA, NOISE_SIGMA, seed)


def write_checkpoint(ds: data.TimeSeriesDataset, cfg: STUNetConfig, path: str) -> None:
    """Freshly initialized weights with the normalizer fitted on the train split."""
    m = stmodel.build(cfg, ds.graph)
    norm = data.Normalizer().fit(ds.split_series("train"))
    m.norm_mean.data[...] = norm.mean
    m.norm_std.data[...] = norm.std
    stmodel.save_checkpoint(m, path)


def run_child(ctx: Context, cmd: list, env: dict, timeout: float):
    """Run a child process to completion; the calibration probe stops it
    while it runs (a pidfd names the child, so a reused pid is never hit)."""
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        ctx.probes.child_pidfd = os.pidfd_open(proc.pid)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        finally:
            fd, ctx.probes.child_pidfd = ctx.probes.child_pidfd, None
            os.close(fd)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def cli_env(ctx: Context) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx.src
    env["STUNET_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"]
    return env


class Workload:
    name = ""
    why = ""
    unit = "request"  # what one unit of `attempted` is
    setups = 5  # set-up repetitions; setup_s is their median
    min_ops = 1
    setup_in_requests = False  # set-up layers run inside every request
    units_per_op = 1
    probe_points = 3  # calibration probes between operations
    probe_kind = "full"
    probe_timer = True  # also probe every TIMER_S during an operation

    def make_inputs(self, ctx: Context) -> dict:
        raise NotImplementedError

    def setup(self, ctx: Context, inp: dict):
        raise NotImplementedError

    def op(self, ctx: Context, state, i: int) -> Outcome:
        raise NotImplementedError

    def finish(self, ctx: Context, inp: dict, state) -> tuple:
        """(units that failed a final check, output digest, report lines)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- train_grid64 --------------------------------------------------------------


class TrainGrid64(Workload):
    name = "train_grid64"
    why = ("only workload that records a tape and runs backward, Adam, clipping "
           "and the weighted_deconv unpool")
    unit = "step"
    setups = 15
    # 203 rows: 142 train rows -> 128 windows = 4 full batches of 32; 20 val rows
    T = 203
    EPOCHS = 2
    BATCH = 32
    units_per_op = EPOCHS * math.ceil((int(T * 0.7) - MODEL.j - MODEL.h + 1) / BATCH)

    def make_inputs(self, ctx):
        ds = synth(8, 8, self.T, ctx.seed)
        rc = training.RunConfig(
            model=replace(MODEL, unpool_mode="weighted_deconv"),
            epochs=self.EPOCHS, batch_size=self.BATCH, seed=0,
        )
        windows = ds.split_series("train").shape[0] - MODEL.j - MODEL.h + 1
        return {"series": ds.series, "graph": ds.graph, "rc": rc, "windows": windows}

    def setup(self, ctx, inp):
        ds = data.TimeSeriesDataset(series=inp["series"], graph=inp["graph"])
        stmodel.build(inp["rc"].model, ds.graph)
        return {"ds": ds, "rc": inp["rc"], "windows": inp["windows"], "losses": []}

    def op(self, ctx, state, i):
        steps = self.units_per_op
        t0 = time.perf_counter()
        _, history = training.train_model(state["rc"], state["ds"])
        t1 = time.perf_counter()
        first, final = history[0].train_loss, history[-1].train_loss
        state["losses"].append((first, final))
        ok = math.isfinite(final) and final < first and (first, final) == state["losses"][0]
        return Outcome(t0, t1, steps, self.EPOCHS * state["windows"], 0 if ok else steps)

    def finish(self, ctx, inp, state):
        first, final = state["losses"][0]
        lines = [f"metric {self.name} train_loss_final {final!r} loss"]
        return 0, f"loss_first={first:.6f} loss_final={final:.6f}", lines


# -- serve_grid64 --------------------------------------------------------------


class ServeGrid64(Workload):
    name = "serve_grid64"
    why = ("closed loop, one client, batch-1 forecasts: tiny tensors, so per-op "
           "dispatch and finite checks dominate and Laplacian cost is negligible")
    setups = 15
    min_ops = 100  # p90 keeps at least 10 requests beyond it
    probe_points = 1
    probe_kind = "small"  # 64-node arrays: cache contention does not reach them
    probe_timer = False  # requests are short; a probe after each one suffices
    T = 400  # 80 test rows -> 66 distinct request windows

    def make_inputs(self, ctx):
        ds = synth(8, 8, self.T, ctx.seed)
        adj = os.path.join(ctx.work, "adjacency.csv")
        ckpt = os.path.join(ctx.work, "model.ckpt")
        data.save_adjacency_dense(adj, ds.graph)
        write_checkpoint(ds, MODEL, ckpt)
        windows, _ = data.make_windows(ds, data.WindowConfig(MODEL.j, MODEL.h), "test")
        return {"adj": adj, "ckpt": ckpt, "windows": windows, "series": ds.series}

    def setup(self, ctx, inp):
        g = data.load_adjacency(inp["adj"])
        m = stmodel.load_checkpoint(inp["ckpt"], g)
        return {"model": m, "windows": inp["windows"], "out": []}

    def op(self, ctx, state, i):
        m = state["model"]
        window = state["windows"][i % len(state["windows"])]
        t0 = time.perf_counter()
        mean, std = m.norm_mean.data, m.norm_std.data
        pred = training.predict_windows(m, ((window - mean) / std)[None], batch_size=1)
        forecast = pred[0] * std + mean
        t1 = time.perf_counter()
        state["out"].append(forecast)
        ok = forecast.shape == (MODEL.h, window.shape[1], MODEL.d_out) and np.all(
            np.isfinite(forecast)
        )
        return Outcome(t0, t1, 1, 1, 0 if ok else 1)

    def finish(self, ctx, inp, state):
        m, windows = state["model"], state["windows"]
        mean, std = m.norm_mean.data, m.norm_std.data
        batched = training.predict_windows(
            m, (windows - mean) / std, batch_size=len(windows)
        ) * std + mean
        bad = sum(
            1 for i, f in enumerate(state["out"])
            if np.max(np.abs(f - batched[i % len(windows)])) > MATCH_TOL
        )
        lines = [f"check {self.name} single_equals_batched "
                 f"{len(state['out']) - bad}/{len(state['out'])}"]
        return bad, f"forecasts={digest(batched)}", lines


# -- eval_grid576 ----------------------------------------------------------------


def write_grid576(ctx: Context, t: int) -> dict:
    ds = synth(24, 24, t, ctx.seed)
    paths = {k: os.path.join(ctx.work, v) for k, v in
             (("adj", "adjacency.csv"), ("series_csv", "series.csv"), ("ckpt", "model.ckpt"))}
    data.save_adjacency_dense(paths["adj"], ds.graph)
    data.save_series(paths["series_csv"], ds.series)
    write_checkpoint(ds, MODEL, paths["ckpt"])
    paths["ds"] = ds
    paths["series"] = ds.series
    return paths


class EvalGrid576(Workload):
    name = "eval_grid576"
    why = ("stunet eval in process on 576 nodes: dense NxN Laplacian products, "
           "concatenation copies and finite checks on large arrays; CSV parsing "
           "and Laplacian power iteration in set-up")
    unit = "pass"
    setups = 3
    T = 150  # 30 test rows -> 16 windows, one batch of 16
    BATCH = 16

    def make_inputs(self, ctx):
        return write_grid576(ctx, self.T)

    def setup(self, ctx, inp):
        g = data.load_adjacency(inp["adj"])
        series = data.load_series(inp["series_csv"], g.n, MODEL.d_in)
        ds = data.TimeSeriesDataset(series=series, graph=g)
        m = stmodel.load_checkpoint(inp["ckpt"], g)
        return {"model": m, "ds": ds, "reports": []}

    def op(self, ctx, state, i):
        ds = state["ds"]
        windows = ds.split_series("test").shape[0] - MODEL.j - MODEL.h + 1
        t0 = time.perf_counter()
        report = evaluate.evaluate_model(state["model"], ds, None, batch_size=self.BATCH)
        t1 = time.perf_counter()
        rows = report.all_rows()
        values = [(r.mae, r.mse, r.rmse) for r in rows]
        state["reports"].append(values)
        ok = (
            report.rmse_dominates()
            and all(math.isfinite(v) for row in values for v in row)
            and all(math.isfinite(r.mape) for r in rows)
            and values == state["reports"][0]
        )
        return Outcome(t0, t1, 1, windows, 0 if ok else 1)

    def finish(self, ctx, inp, state):
        mae, _, rmse = state["reports"][0][-1]
        return 0, f"mae={mae:.6f} rmse={rmse:.6f}", []


# -- predict_cli_grid576 -----------------------------------------------------------


class PredictCliGrid576(Workload):
    name = "predict_cli_grid576"
    why = ("cold `stunet predict` subprocess per request: interpreter start, "
           "imports and the checkpoint rebuild (partition, Laplacians) paid every time")
    setups = 3
    setup_in_requests = True
    T = 150
    WINDOWS = 4  # distinct request windows from the 30 test rows, cycled
    WINDOW_STRIDE = 5

    def make_inputs(self, ctx):
        inp = write_grid576(ctx, self.T)
        lo, _ = inp["ds"].split_range("test")
        inp["windows"] = []
        for k in range(self.WINDOWS):
            start = lo + k * self.WINDOW_STRIDE
            rows = inp["ds"].series[start : start + MODEL.j]
            path = os.path.join(ctx.work, f"window{k}.csv")
            data.save_series(path, rows)
            inp["windows"].append((path, rows))
        return inp

    def setup(self, ctx, inp):
        # the set-up a CLI user pays before any work: interpreter, imports, parser
        proc = run_child(ctx, [sys.executable, "-m", "stunet.cli", "--help"],
                         cli_env(ctx), timeout=120)
        proc.check_returncode()
        return {"inp": inp, "out": [], "env": cli_env(ctx)}

    def op(self, ctx, state, i):
        k = i % self.WINDOWS
        window_path, _ = state["inp"]["windows"][k]
        out_path = os.path.join(ctx.work, f"forecast{k}.csv")
        args = ["predict", "--adj", state["inp"]["adj"], "--series", window_path,
                "--ckpt", state["inp"]["ckpt"], "--out", out_path]
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "stunet.cli", *args]
        else:
            trace_path = os.path.join(ctx.work, "child_trace.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), trace_path, *args]
        t0 = time.perf_counter()
        proc = run_child(ctx, cmd, state["env"], timeout=170)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            return Outcome(t0, t1, 1, 0, 1)
        if ctx.tracer is not None:
            from tracing import load_export

            exported = load_export(trace_path)
            ctx.tracer.merge(exported, "run", i)
            inside = sum(incl for _, name, _, incl, _ in exported["agg"]
                         if name in ("cli.import", "cli.main"))
            ctx.tracer.count("cli.overhead_s", t1 - t0 - inside)
        forecast = np.loadtxt(out_path, delimiter=",", skiprows=1, ndmin=2)
        state["out"].append((k, forecast))
        return Outcome(t0, t1, 1, 1, 0)

    def finish(self, ctx, inp, state):
        g = data.load_adjacency(inp["adj"])
        m = stmodel.load_checkpoint(inp["ckpt"], g)
        mean, std = m.norm_mean.data, m.norm_std.data
        expected = []
        for _, rows in inp["windows"]:
            pred = training.predict_windows(m, ((rows - mean) / std)[None])[0]
            expected.append((pred * std + mean).reshape(MODEL.h, -1))
        bad = sum(
            1 for k, f in state["out"]
            if f.shape != expected[k].shape or np.max(np.abs(f - expected[k])) > MATCH_TOL
        )
        lines = [f"check {self.name} cli_equals_in_process "
                 f"{len(state['out']) - bad}/{len(state['out'])}"]
        return bad, f"forecasts={digest(np.stack(expected))}", lines

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (TrainGrid64(), ServeGrid64(), EvalGrid576(),
                                 PredictCliGrid576())}
