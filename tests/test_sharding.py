"""Sharded no-grad forecasts: a batch's windows split across threads give the
bits of one forward, the shard rule, errors raised in a shard, thread and
module hygiene, and the forward's memory under no_grad. Micro-batch training:
one micro-batch is the whole-batch step bit for bit, two sum to the batch
gradient, the bytes do not depend on the thread count, and a micro-batch's
error, threads and tape end with the step."""

import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import stunet
import stunet.cli
from stunet import tensor as T
from stunet import training
from stunet.data import knn_grid_graph, synth_diffusion
from stunet.errors import DimensionError, NumericError, UsageError
from stunet.model import STUNet, STUNetConfig, build, loss, save_checkpoint
from stunet.recurrent import teacher_steps
from stunet.tensor import Tensor
from stunet.training import (
    RunConfig, batch_grads, dataset_loss, predict_windows, shard_count, train_model,
    write_history,
)

SRC = os.path.dirname(os.path.dirname(stunet.__file__))


def small_model(rows, cols, **kw):
    cfg = dict(k=3, p=2, s=2, hidden_sizes=(8, 8, 8), j=12, h=3, seed=0)
    cfg.update(kw)
    return build(STUNetConfig(**cfg), knn_grid_graph(rows, cols))


def windows_for(model, count, seed=0):
    n = model.graph.n
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 12, n, 1)), rng.standard_normal((count, 3, n, 1))


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the shard rule sees, with one BLAS thread and no
    STUNET_THREADS, and let shards be as small as one window."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("STUNET_THREADS", raising=False)
    monkeypatch.setattr(training, "MIN_SHARD_ROWS", 1)

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return set_cpus


def counted_forwards(monkeypatch, model):
    """Record (shard size, thread) of every forward, appended once it ends."""
    done = []
    forward = model.forward

    def wrapper(inputs, *args, **kwargs):
        out = forward(inputs, *args, **kwargs)
        done.append((inputs.data.shape[1], threading.get_ident()))
        return out

    monkeypatch.setattr(model, "forward", wrapper)
    return done


# a 6x6 grid applies L~ as a dense matrix, a 12x12 grid through its ELL gathers
@pytest.mark.parametrize("rows", (6, 12))
@pytest.mark.parametrize("unpool_mode", ("direct_copy", "ordered_deconv", "weighted_deconv"))
@pytest.mark.parametrize("layer_norm", (False, True))
def test_sharded_forecasts_equal_one_forward_bytes(cpus, monkeypatch, rows, unpool_mode,
                                                   layer_norm):
    model = small_model(rows, rows, unpool_mode=unpool_mode, layer_norm=layer_norm)
    assert (model.laps[0].ell is None) == (rows == 6)
    inputs, targets = windows_for(model, 7)
    done = counted_forwards(monkeypatch, model)
    results = {}
    for shards, sizes in ((1, [7]), (2, [3, 4]), (3, [2, 2, 3])):
        cpus(shards)
        assert shard_count(7, model.graph.n) == shards
        done.clear()
        results[shards] = (predict_windows(model, inputs).tobytes(),
                           dataset_loss(model, inputs, targets))
        assert sorted(size for size, _ in done) == sorted(sizes * 2)  # one forward a shard
    assert results[2] == results[1] and results[3] == results[1]


def test_shards_cut_on_whole_blas_row_blocks(cpus, monkeypatch):
    # 81 nodes: a shard's node rows fill whole blocks of 4 only in steps of 4
    # windows, and a row in a partial block rounds differently, so the batch of
    # 12 is cut in three and the batch of 7 is not cut at all
    model = small_model(9, 9)
    inputs, targets = windows_for(model, 19)
    cpus(1)
    one = predict_windows(model, inputs, batch_size=12).tobytes()
    loss_one = dataset_loss(model, inputs, targets, batch_size=12)
    cpus(3)
    done = counted_forwards(monkeypatch, model)
    assert predict_windows(model, inputs, batch_size=12).tobytes() == one
    assert sorted(size for size, _ in done) == [4, 4, 4, 7]
    assert dataset_loss(model, inputs, targets, batch_size=12) == loss_one


@pytest.mark.parametrize(
    "stunet_threads, openblas, omp, cpu_count, windows, nodes, expected",
    [
        (None, None, None, 2, 16, 576, 1),  # BLAS takes every CPU itself
        (None, "1", None, 2, 16, 576, 2),
        (None, None, "1", 2, 16, 576, 2),  # OMP_NUM_THREADS when OpenBLAS's is unset
        (None, "abc", "1", 2, 16, 576, 2),  # ... or not a count
        (None, "0", None, 2, 16, 576, 1),  # 0 reads as unset, as OpenBLAS reads it
        (None, "2", "1", 2, 16, 576, 1),  # two BLAS threads fill both CPUs
        (None, "2", None, 5, 16, 576, 2),
        ("1", "1", None, 2, 16, 576, 1),
        ("3", "1", None, 8, 16, 576, 3),
        ("8", "1", None, 4, 16, 576, 4),
        (None, "1", None, 8, 3, 576, 3),  # at most one shard per window
        (None, "1", None, 2, 1, 576, 1),
        (None, "1", None, 2, 6, 64, 1),  # 384 node rows: under 256 per shard
        (None, "1", None, 2, 8, 64, 2),
        (None, "1", None, 8, 16, 64, 4),
        (None, "1", None, 4, 7, 81, 1),  # 567 node rows end in a partial block
        (None, "1", None, 4, 8, 81, 2),  # whole blocks in steps of 4 windows
        (None, "1", None, 4, 12, 81, 3),
        (None, "1", None, 4, 14, 18, 1),  # 252 node rows: too few to split
        (None, "1", None, 4, 30, 18, 2),  # steps of 2 windows
    ],
)
def test_shard_rule(monkeypatch, stunet_threads, openblas, omp, cpu_count, windows, nodes,
                    expected):
    for var, value in (("STUNET_THREADS", stunet_threads), ("OPENBLAS_NUM_THREADS", openblas),
                       ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpu_count)))
    assert shard_count(windows, nodes) == expected


@pytest.mark.parametrize("value", ("abc", "0", "-3", "1.5"))
def test_bad_stunet_threads_is_a_usage_error(monkeypatch, value):
    model = small_model(2, 4, p=1, hidden_sizes=(4, 4))
    inputs, _ = windows_for(model, 1)
    monkeypatch.setenv("STUNET_THREADS", value)
    message = f"STUNET_THREADS must be an integer >= 1, got {value!r}"
    with pytest.raises(UsageError, match=message):
        predict_windows(model, inputs)
    with pytest.raises(UsageError, match=message):
        stunet.thread_cap()


@pytest.mark.parametrize("value", ("abc", "0", "-3"))
def test_cli_rejects_a_bad_stunet_threads(tmp_path, value):
    env = dict(os.environ, PYTHONPATH=SRC, STUNET_THREADS=value)
    done = subprocess.run(
        [sys.executable, "-m", "stunet.cli", "synth", "--rows", "2", "--cols", "2", "--t", "40",
         "--out", str(tmp_path / "data")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "STUNET_THREADS" in done.stderr
    assert repr(value) in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("numpy_first, user_env, blas, counts", (
    # STUNET_THREADS caps the package's own threads and sets no BLAS count
    (False, {"STUNET_THREADS": "2"}, 1, ["1"] * 5),
    (False, {"OPENBLAS_NUM_THREADS": "2"}, 2, ["-", "2", "-", "-", "-"]),
    (False, {"OMP_NUM_THREADS": "4"}, 4, ["4", "-", "-", "-", "-"]),
    # NumPy loaded first: BLAS runs on every CPU already, so nothing is set
    (True, {}, None, ["-"] * 5),
), ids=("stunet_threads", "openblas", "omp", "numpy_first"))
def test_cli_gives_blas_one_thread_unless_the_user_set_a_count(numpy_first, user_env, blas,
                                                               counts):
    blas_vars = stunet.cli.BLAS_THREAD_VARS
    env = {k: v for k, v in os.environ.items() if k not in blas_vars + ("STUNET_THREADS",)}
    env.update(user_env, PYTHONPATH=SRC)
    code = (
        ("import numpy\n" if numpy_first else "")
        + "import os, stunet.cli\n"
        "from stunet.training import thread_budget\n"
        f"print(thread_budget(), *(os.environ.get(v, '-') for v in {blas_vars!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    budget, *seen = done.stdout.split()
    cpus = len(os.sched_getaffinity(0))
    cap = int(user_env.get("STUNET_THREADS", cpus))
    assert budget == str(1 if blas is None else max(1, min(cpus, cap) // blas))
    assert seen == counts


def test_an_error_in_one_shard_reaches_the_caller_after_every_shard(cpus, monkeypatch):
    model = small_model(6, 6)
    inputs, targets = windows_for(model, 7)
    inputs[5, 3, 0, 0] = np.inf  # in the last of two shards only
    cpus(2)
    done = counted_forwards(monkeypatch, model)
    before = threading.active_count()
    with pytest.raises(NumericError, match="non-finite"):
        predict_windows(model, inputs)
    assert threading.active_count() == before
    assert [size for size, _ in done] == [3]  # the other shard ran to its end
    with pytest.raises(NumericError, match="non-finite"):
        dataset_loss(model, inputs, targets)
    assert threading.active_count() == before
    predict_windows(model, inputs[:5])
    assert threading.active_count() == before


def test_sharded_forwards_run_on_threads_that_end_with_the_call(cpus, monkeypatch):
    model = small_model(6, 6)
    inputs, _ = windows_for(model, 8)
    cpus(2)
    done = counted_forwards(monkeypatch, model)
    before = threading.active_count()
    predict_windows(model, inputs)
    assert threading.active_count() == before
    idents = {ident for _, ident in done}
    assert len(done) == 2 and len(idents) == 2 and threading.get_ident() not in idents


def test_one_window_starts_no_thread_and_imports_no_module(tmp_path):
    code = (
        "import sys, threading, numpy as np\n"
        "from stunet.data import knn_grid_graph\n"
        "from stunet.model import STUNetConfig, build\n"
        "from stunet.training import predict_windows, shard_count\n"
        "m = build(STUNetConfig(k=2, p=1, s=2, hidden_sizes=(4, 4), j=6, h=2), "
        "knn_grid_graph(24, 24))\n"
        "starts = []\n"
        "threading.Thread.start = lambda self: starts.append(self)\n"
        "loaded = set(sys.modules)\n"
        "predict_windows(m, np.ones((1, 6, 576, 1)))\n"
        "print(shard_count(2, 576), len(starts), sorted(set(sys.modules) - loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop("STUNET_THREADS", None)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    shards, starts, modules = done.stdout.split(maxsplit=2)
    # two windows of this graph would be split on a host with 2 CPUs
    assert shards == str(min(2, len(os.sched_getaffinity(0))))
    assert starts == "0" and modules.strip() == "[]"


@pytest.mark.parametrize("call", ("predict", "loss"))
def test_bad_window_arrays_raise_typed_errors(call):
    model = small_model(2, 4, p=1, hidden_sizes=(4, 4))
    inputs, targets = windows_for(model, 2)

    def run(x, y):
        return predict_windows(model, x) if call == "predict" else dataset_loss(model, x, y)

    with pytest.raises(UsageError, match="no windows to forecast"):
        run(inputs[:0], targets[:0])
    with pytest.raises(DimensionError, match=r"got shape \(2, 12, 8\)"):
        run(inputs[..., 0], targets[..., 0])


def test_no_grad_forward_drops_each_skip_once_used():
    # the three encoder outputs used to stay alive through decoding: the peak
    # was 10.3 stage-0 sequences at this shape, 8.6 with each dropped after its
    # skip connection
    model = small_model(6, 6, hidden_sizes=(16, 16, 16))
    x = Tensor(np.random.default_rng(0).standard_normal((12, 8, 36, 1)))
    sequence = 12 * 8 * 36 * 16 * 8  # bytes of one stage-0 output sequence
    with T.no_grad():
        model.forward(x)
        tracemalloc.start()
        try:
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 9.5 * sequence


def test_more_shards_than_cpus_under_fast_thread_switches(cpus):
    # the shards share the model and the grad flag: switching threads every
    # microsecond would show any state a forward writes as changed bytes
    model = small_model(6, 6, layer_norm=True)
    inputs, _ = windows_for(model, 15)
    cpus(1)
    one = predict_windows(model, inputs).tobytes()
    cpus(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert predict_windows(model, inputs).tobytes() == one
    finally:
        sys.setswitchinterval(interval)


# -- micro-batch training ----------------------------------------------------


def recorded_forwards(monkeypatch, fail_size=None):
    """Record (micro-batch size, thread, tape) of every recorded forward, which
    raises NumericError, with its nodes on the tape, when its micro-batch
    holds ``fail_size`` windows."""
    calls = []
    forward = STUNet.forward

    def wrapper(self, inputs, *args, **kwargs):
        out = forward(self, inputs, *args, **kwargs)
        if T._GRAD_ENABLED:
            size = inputs.data.shape[1]
            calls.append((size, threading.get_ident(), T.tape()))
            if size == fail_size:
                raise NumericError(f"forward of {size} windows failed")
        return out

    monkeypatch.setattr(STUNet, "forward", wrapper)
    return calls


def whole_batch_step(model, inputs, targets, eps, rng):
    """Loss and gradients of one recorded forward of the whole batch, with
    scheduled sampling drawn from rng by teacher_steps, as training took them
    before batches were cut into micro-batches."""
    params = model.trainable_params()
    yb = Tensor(np.ascontiguousarray(np.transpose(targets, (1, 0, 2, 3))))
    xb = Tensor(np.ascontiguousarray(np.transpose(inputs, (1, 0, 2, 3))))
    teacher = teacher_steps(eps, model.config.h, rng)
    T.reset_tape()
    out = loss(model.forward(xb, targets=yb, teacher=teacher), yb)
    grads = T.grads(out, params)
    T.reset_tape()
    return out.item(), grads


@pytest.mark.parametrize("eps", (0.0, 0.5, 1.0))
def test_one_micro_batch_is_the_whole_batch_step(cpus, monkeypatch, eps):
    model = small_model(6, 6, layer_norm=True)
    inputs, targets = windows_for(model, 7)
    want_rng, got_rng = np.random.default_rng(3), np.random.default_rng(3)
    want_loss, want = whole_batch_step(model, inputs, targets, eps, want_rng)
    cpus(2)
    monkeypatch.setattr(training, "MICRO_BATCHES", 1)
    teacher = teacher_steps(eps, model.config.h, got_rng)
    got_loss, got = batch_grads(model, model.trainable_params(), inputs, targets, teacher)
    assert got_loss == want_loss
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_two_micro_batches_sum_to_the_batch_gradient(cpus, monkeypatch):
    assert training.MICRO_BATCHES == 2
    model = small_model(6, 6)
    params = model.trainable_params()
    inputs, targets = windows_for(model, 7)
    # eps=1 takes every target, so both micro-batches must see the batch's choices
    want_loss, want = whole_batch_step(model, inputs, targets, 1.0, np.random.default_rng(0))
    teacher = (True, True)
    calls = recorded_forwards(monkeypatch)
    cpus(1)
    one_thread = batch_grads(model, params, inputs, targets, teacher)
    assert [(size, ident) for size, ident, _ in calls] == [(4, threading.get_ident()),
                                                           (3, threading.get_ident())]
    cpus(2)
    calls.clear()
    got_loss, got = batch_grads(model, params, inputs, targets, teacher)
    assert sorted(size for size, _, _ in calls) == [3, 4]  # ceil(7/2) windows first
    idents = {ident for _, ident, _ in calls}
    assert len(idents) == 2 and threading.get_ident() not in idents
    assert got_loss == one_thread[0]
    assert [g.tobytes() for g in got] == [g.tobytes() for g in one_thread[1]]
    assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-11, atol=1e-15)
    assert all(len(tape) == 0 for _, _, tape in calls)


def test_more_micro_batches_than_cpus_under_fast_thread_switches(cpus, monkeypatch):
    # the micro-batches share the model, its parameters and the grad flag:
    # switching threads every microsecond would show a shared write as changed bytes
    monkeypatch.setattr(training, "MICRO_BATCHES", 5)
    model = small_model(6, 6, layer_norm=True)
    params = model.trainable_params()
    inputs, targets = windows_for(model, 9)
    teacher = (True, False)
    cpus(1)
    one = batch_grads(model, params, inputs, targets, teacher)
    cpus(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = batch_grads(model, params, inputs, targets, teacher)
    finally:
        sys.setswitchinterval(interval)
    assert many[0] == one[0]
    assert [g.tobytes() for g in many[1]] == [g.tobytes() for g in one[1]]


def tiny_training_run(tmp_path, label):
    """Checkpoint and history bytes of two epochs on a 2x4 grid, 77 windows
    in batches of 8 (the last of 5)."""
    ds = synth_diffusion(knn_grid_graph(2, 4), t=120, alpha=0.6, noise_sigma=0.05, seed=3)
    rc = RunConfig(model=STUNetConfig(k=2, p=1, s=2, hidden_sizes=(6, 6), j=6, h=2, seed=1),
                   epochs=2, batch_size=8, seed=5)
    model, history = train_model(rc, ds)
    save_checkpoint(model, str(tmp_path / f"{label}.ckpt"))
    write_history(str(tmp_path / f"{label}.txt"), history)
    return (tmp_path / f"{label}.ckpt").read_bytes(), (tmp_path / f"{label}.txt").read_bytes()


def test_training_bytes_do_not_depend_on_the_thread_count(cpus, monkeypatch, tmp_path):
    calls = recorded_forwards(monkeypatch)
    runs = {}
    for count in (1, 2, 3):
        cpus(count)
        calls.clear()
        runs[count] = tiny_training_run(tmp_path, str(count))
        main = [ident == threading.get_ident() for _, ident, _ in calls]
        assert all(main) if count == 1 else not any(main)
        # 9 full batches and one of 5 an epoch, each as two micro-batches
        assert sorted(size for size, _, _ in calls) == sorted([4] * 36 + [3, 2] * 2)
    cpus(2)
    monkeypatch.setenv("STUNET_THREADS", "1")
    runs["STUNET_THREADS=1"] = tiny_training_run(tmp_path, "cap")
    assert runs[2] == runs[1] and runs[3] == runs[1] and runs["STUNET_THREADS=1"] == runs[1]
    assert all(len(tape) == 0 for _, _, tape in calls)


def test_an_error_in_a_micro_batch_ends_the_step(cpus, monkeypatch, tmp_path):
    cpus(2)
    calls = recorded_forwards(monkeypatch, fail_size=4)
    before = threading.active_count()
    with pytest.raises(NumericError, match="forward of 4 windows failed"):
        tiny_training_run(tmp_path, "fails")
    assert threading.active_count() == before
    # the first step's micro-batches both started, on threads other than this
    assert sorted(size for size, _, _ in calls) == [4, 4]
    assert threading.get_ident() not in {ident for _, ident, _ in calls}
    assert all(len(tape) == 0 for _, _, tape in calls)
    assert len(T.tape()) == 0
