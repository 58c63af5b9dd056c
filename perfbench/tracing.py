"""Spans and counters recorded around calls into stunet's public functions.

Nothing under ``src/`` knows about tracing: ``install`` replaces the names
that callers actually look up (``recurrent.cheb_basis``, ``model.unpool``,
``training.adam_step``, ``stunet.tensor.backward``, ``STUNet.forward``, ...)
with wrappers, and ``uninstall`` puts the originals back.

Every span carries a name, start, end, parent span and the index of the
benchmark operation (request, step or pass) it belongs to. Spans stay in
memory and are written out once, when the run ends. Aggregates keep inclusive
and self time per (phase, name); self time is a span's duration minus the
time its child spans cover.

This module imports no stunet or numpy code at import time, so the traced CLI
child can time ``import stunet.cli`` before loading it.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from collections import defaultdict


class Tracer:
    """In-memory span store plus per-phase aggregates and counters."""

    def __init__(self):
        self.phase = "inputs"
        self.op = -1
        self.spans: list = []  # (id, parent, op, phase, name, start, end)
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, name) -> calls, incl, self
        self.counts = defaultdict(int)  # (phase, name) -> number
        self._stack: list = []  # [id, name, start, covered-by-children]
        self._next_id = 0
        self._laps: dict = {}  # id(rescaled Laplacian tensor) -> tensor, kept alive
        self._wait_mark: float | None = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        stop = time.perf_counter()
        sid, name, start, covered = self._stack.pop()
        self._close(sid, name, start, stop, covered)

    def record(self, name: str, start: float, stop: float) -> None:
        """Add a span measured outside begin/end, as a child of the open span."""
        sid = self._next_id
        self._next_id += 1
        self._close(sid, name, start, stop, 0.0)

    def _close(self, sid, name, start, stop, covered) -> None:
        parent = self._stack[-1] if self._stack else None
        dur = stop - start
        if parent is not None:
            parent[3] += dur
        self.spans.append(
            (sid, parent[0] if parent else -1, self.op, self.phase, name, start, stop)
        )
        a = self.agg[(self.phase, name)]
        a[0] += 1
        a[1] += dur
        a[2] += dur - covered

    def count(self, name: str, amount=1) -> None:
        self.counts[(self.phase, name)] += amount

    # -- results ---------------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.agg[(phase, name)][0] if (phase, name) in self.agg else 0

    def incl(self, phase: str, name: str) -> float:
        return self.agg[(phase, name)][1] if (phase, name) in self.agg else 0.0

    def self_time(self, phase: str, name: str) -> float:
        return self.agg[(phase, name)][2] if (phase, name) in self.agg else 0.0

    def counted(self, phase: str, name: str):
        return self.counts.get((phase, name), 0)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "agg": [[p, n, *v] for (p, n), v in self.agg.items()],
            "counts": [[p, n, v] for (p, n), v in self.counts.items()],
        }

    def merge(self, exported: dict, phase: str, op: int) -> None:
        """Fold a child process's export in as spans of one operation."""
        base = self._next_id
        for sid, parent, _, _, name, start, stop in exported["spans"]:
            self.spans.append(
                (base + sid, base + parent if parent >= 0 else -1, op, phase, name, start, stop)
            )
            self._next_id = max(self._next_id, base + sid + 1)
        for _, name, calls, incl, self_s in exported["agg"]:
            a = self.agg[(phase, name)]
            a[0] += calls
            a[1] += incl
            a[2] += self_s
        for _, name, value in exported["counts"]:
            self.counts[(phase, name)] += value

    def write(self, path: str) -> None:
        """Every span as one tab-separated line, times relative to the first."""
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tphase\tname\tstart_s\tend_s\n")
            for sid, parent, op, phase, name, start, stop in self.spans:
                fh.write(
                    f"{sid}\t{parent}\t{op}\t{phase}\t{name}\t"
                    f"{start - origin:.9f}\t{stop - origin:.9f}\n"
                )

    def summary_lines(self) -> list:
        """Inclusive and self time per (phase, name), largest inclusive first."""
        rows = sorted(self.agg.items(), key=lambda kv: -kv[1][1])
        out = [f"{'phase':<7} {'span':<32} {'calls':>9} {'incl_s':>11} {'self_s':>11}"]
        for (phase, name), (calls, incl, self_s) in rows:
            out.append(f"{phase:<7} {name:<32} {calls:>9d} {incl:>11.6f} {self_s:>11.6f}")
        return out


class _FallbackCounter(logging.Handler):
    """Counts the lambda_max power-iteration fallback warnings."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "did not converge" in record.getMessage():
            self.tracer.count("graph.lambda_max_fallbacks")


class Installation:
    """Original attributes replaced by ``install``; ``uninstall`` restores them."""

    def __init__(self):
        self.saved: list = []
        self.handler: logging.Handler | None = None

    def patch(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()
        if self.handler is not None:
            logging.getLogger("stunet.graph").removeHandler(self.handler)
            self.handler = None


def _timed(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end()

    return wrapper


def install(tr: Tracer) -> Installation:
    """Wrap the stunet entry points each workload goes through."""
    from stunet import cli, data, evaluate, graph, model, recurrent, training
    from stunet import tensor as T

    inst = Installation()

    def patch_all(owners, attr: str, new) -> None:
        for owner in owners:
            inst.patch(owner, attr, new)

    # tensor: every recorded or unrecorded op goes through apply_op
    orig_apply = T.apply_op
    counts = tr.counts

    @functools.wraps(orig_apply)
    def apply_op(data_, parents, pullback):
        counts[(tr.phase, "tensor.ops")] += 1
        return orig_apply(data_, parents, pullback)

    patch_all((T, graph), "apply_op", apply_op)

    orig_matmul = T.matmul
    laps = tr._laps

    @functools.wraps(orig_matmul)
    def matmul(a, b):
        if id(a) not in laps:
            return orig_matmul(a, b)
        tr.count("graph.lap_products")
        # dense (n x n) @ (n x m) product, forward only
        tr.count("graph.lap_flop", 2 * a.data.shape[0] * b.data.size)
        tr.begin("graph.lap_product")
        try:
            return orig_matmul(a, b)
        finally:
            tr.end()

    inst.patch(T, "matmul", matmul)

    orig_backward = T.backward

    @functools.wraps(orig_backward)
    def backward(loss):
        if loss.tape_id is None:  # not recorded: let backward raise its error
            return orig_backward(loss)
        nodes = T.tape().nodes
        tr.count("tensor.backward_calls")
        tr.count("tensor.tape_nodes", len(nodes))
        tr.count("tensor.tape_bytes", sum(n.out.data.nbytes for n in nodes))
        reached = {loss.tape_id}
        total = discarded = 0
        for idx in range(loss.tape_id, -1, -1):
            if idx not in reached:
                continue
            for parent in nodes[idx].parents:
                total += 1
                if not parent.requires_grad:
                    discarded += 1
                if parent.tape_id is not None:
                    reached.add(parent.tape_id)
        tr.count("tensor.pullback_grads", total)
        tr.count("tensor.discarded_grads", discarded)
        tr.begin("tensor.backward")
        try:
            return orig_backward(loss)
        finally:
            tr.end()

    inst.patch(T, "backward", backward)

    # graph
    orig_cheb = graph.cheb_basis

    @functools.wraps(orig_cheb)
    def cheb_basis(lap, x, order):
        lt = lap.rescaled_tensor()
        laps[id(lt)] = lt
        tr.begin("graph.cheb_basis")
        try:
            return orig_cheb(lap, x, order)
        finally:
            tr.end()

    patch_all((graph, recurrent), "cheb_basis", cheb_basis)
    patch_all((model,), "normalized_laplacian",
              _timed(tr, "graph.normalized_laplacian", model.normalized_laplacian))
    inst.handler = _FallbackCounter(tr)
    logging.getLogger("stunet.graph").addHandler(inst.handler)

    # partition
    orig_partition = model.multilevel_partition

    @functools.wraps(orig_partition)
    def multilevel_partition(g, p):
        tr.begin("partition.multilevel_partition")
        try:
            pm = orig_partition(g, p)
        finally:
            tr.end()
        for fine, coarse in zip(pm.graphs, pm.graphs[1:]):
            tr.count("partition.levels")
            tr.count("partition.ratio_sum", coarse.n / fine.n)
        return pm

    inst.patch(model, "multilevel_partition", multilevel_partition)

    # sampling
    inst.patch(recurrent, "st_pool_spatial",
               _timed(tr, "sampling.pool", recurrent.st_pool_spatial))
    inst.patch(model, "unpool", _timed(tr, "sampling.unpool", model.unpool))

    # recurrent
    inst.patch(recurrent.FoldedCell, "step",
               _timed(tr, "recurrent.cell_step", recurrent.FoldedCell.step))
    inst.patch(model, "encode", _timed(tr, "recurrent.encode", model.encode))
    inst.patch(model, "decode", _timed(tr, "recurrent.decode", model.decode))

    # model
    orig_forward = model.STUNet.forward

    @functools.wraps(orig_forward)
    def forward(self, *args, **kwargs):
        training_step = T._GRAD_ENABLED
        if training_step and tr._wait_mark is not None:
            tr.record("training.batch_wait", tr._wait_mark, time.perf_counter())
            tr._wait_mark = None
        if training_step:
            tr.begin("training.forward")
        tr.begin("model.forward")
        try:
            return orig_forward(self, *args, **kwargs)
        finally:
            tr.end()
            if training_step:
                tr.end()

    inst.patch(model.STUNet, "forward", forward)
    patch_all((model, training), "build", _timed(tr, "model.build", model.build))
    patch_all((model, cli), "load_checkpoint",
              _timed(tr, "model.load_checkpoint", model.load_checkpoint))
    patch_all((model, cli), "save_checkpoint",
              _timed(tr, "model.save_checkpoint", model.save_checkpoint))

    # data
    patch_all((data, cli), "load_adjacency",
              _timed(tr, "data.load_adjacency", data.load_adjacency))
    orig_load_series = data.load_series

    @functools.wraps(orig_load_series)
    def load_series(path, n, d=1):
        tr.begin("data.load_series")
        try:
            series = orig_load_series(path, n, d)
        finally:
            tr.end()
        tr.count("data.series_bytes", series.nbytes)
        return series

    patch_all((data, cli), "load_series", load_series)
    patch_all((data, training, evaluate), "make_windows",
              _timed(tr, "data.make_windows", data.make_windows))

    # training: batch wait is the gap between the optimizer (or validation)
    # finishing and the next recorded forward starting
    def marks_wait(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end()
                tr._wait_mark = time.perf_counter()

        return wrapper

    orig_train = training.train_model

    @functools.wraps(orig_train)
    def train_model(rc, ds):
        tr._wait_mark = None
        tr.begin("training.train_model")
        try:
            return orig_train(rc, ds)
        finally:
            tr.end()
            tr._wait_mark = None

    inst.patch(training, "train_model", train_model)
    inst.patch(training, "loss", _timed(tr, "training.loss", training.loss))
    inst.patch(training, "adam_step", marks_wait("tensor.adam_step", training.adam_step))
    inst.patch(training, "clip_global_norm",
               _timed(tr, "tensor.clip_global_norm", training.clip_global_norm))
    inst.patch(training, "dataset_loss",
               marks_wait("training.dataset_loss", training.dataset_loss))
    patch_all((training, evaluate), "predict_windows",
              _timed(tr, "training.predict_windows", training.predict_windows))

    # evaluate
    inst.patch(evaluate, "model_predictions",
               _timed(tr, "evaluate.model_predictions", evaluate.model_predictions))
    inst.patch(evaluate, "horizon_report",
               _timed(tr, "evaluate.horizon_report", evaluate.horizon_report))
    inst.patch(evaluate, "evaluate_model",
               _timed(tr, "evaluate.evaluate_model", evaluate.evaluate_model))
    return inst


def load_export(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
