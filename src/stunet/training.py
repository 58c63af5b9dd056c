"""Mini-batch training loop: Adam with stepped learning-rate decay, global
gradient clipping, scheduled sampling, and best-on-validation checkpointing.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import thread_cap
from .data import Normalizer, TimeSeriesDataset, WindowConfig, make_windows
from .errors import DimensionError, UsageError
from .model import STUNet, STUNetConfig, build, loss
from .recurrent import SS_TAU_DEFAULT, scheduled_sampling_prob, teacher_steps
from .tensor import AdamState, Tensor, adam_step, clip_global_norm


@dataclass
class RunConfig:
    """Everything one training/evaluation run needs beyond the dataset."""

    model: STUNetConfig = field(default_factory=STUNetConfig)
    epochs: int = 80
    batch_size: int = 50
    lr: float = 1e-2
    lr_decay: float = 0.7
    lr_decay_every: int = 8
    clip_norm: float = 5.0
    ss_tau: float = SS_TAU_DEFAULT
    seed: int = 0
    variant: str = "ST-UNet"
    horizons: tuple | None = None  # metric steps, 1-based; None = every step
    interval_minutes: float = 5.0
    adj_path: str = ""
    series_path: str = ""
    ckpt_path: str = ""
    out_dir: str = ""

    def validate(self) -> None:
        self.model.validate()
        for name in ("lr", "clip_norm", "ss_tau", "interval_minutes"):
            if not np.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)}")
        if self.clip_norm < 0:
            raise UsageError(f"clip_norm must be >= 0 (0 turns clipping off), got {self.clip_norm}")
        if self.interval_minutes <= 0:
            raise UsageError(f"interval_minutes must be > 0, got {self.interval_minutes}")
        if self.epochs < 0 or self.batch_size < 1:
            raise UsageError("epochs must be >= 0 and batch size >= 1")
        if self.lr <= 0 or not 0 < self.lr_decay <= 1 or self.lr_decay_every < 1:
            raise UsageError("learning-rate schedule fields out of range")
        steps = self.metric_steps()
        if not steps:
            raise UsageError("metric horizons name no step")
        for i, step in enumerate(steps):
            if not 1 <= step <= self.model.h:
                raise UsageError(f"metric horizon {step} lies outside 1..{self.model.h}")
            if step in steps[:i]:
                raise UsageError(f"metric horizon {step} is repeated")

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay ** (epoch // self.lr_decay_every)

    def metric_steps(self) -> tuple:
        if self.horizons is None:
            return tuple(range(1, self.model.h + 1))
        return tuple(int(h) for h in self.horizons)

    def config_hash(self) -> str:
        text = self.model.to_lines() + "".join(
            f"{k}={v}\n"
            for k, v in sorted(vars(self).items())
            if k not in ("model", "adj_path", "series_path", "ckpt_path", "out_dir")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    eps: float

    def line(self) -> str:
        return (
            f"epoch {self.epoch:4d}  train {self.train_loss:.6f}  "
            f"val {self.val_loss:.6f}  lr {self.lr:.6g}  eps {self.eps:.4f}"
        )


def _to_time_major(windows: np.ndarray) -> np.ndarray:
    """(W, L, N, D) window stack -> (L, W, N, D) batched sequence."""
    return np.ascontiguousarray(np.transpose(windows, (1, 0, 2, 3)))


# contiguous parts every batch of windows is cut into, with or without a
# gradient; parts are joined (forecasts) or their size-weighted gradients
# summed (training) in this order, so the bits depend on this count alone,
# never on how many threads run them
MICRO_BATCHES = 2
# glibc malloc settings for recorded training, applied once by train_model.
# Backward frees a micro-batch's activations as it runs, and by default glibc
# hands that memory back to the system (trimming the main heap, unmapping an
# emptied thread heap), only to fault it in again on the next micro-batch.
# With them, arrays under 32 MiB come from the heap, and every heap keeps up
# to 256 MiB free at its top, so each micro-batch reuses the pages of the one
# before. Setting either one also stops glibc from tuning its own thresholds.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TOP_PAD, 256 << 20))


def _blas_threads() -> int:
    """Threads per BLAS call as OpenBLAS reads them: OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS; every CPU this process may run on when neither is a count
    >= 1, since BLAS then takes them all."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdecimal() and int(value) >= 1:
            return int(value)
    return len(os.sched_getaffinity(0))


def thread_budget() -> int:
    """Threads that may compute at once: the CPUs this process may run on,
    capped by STUNET_THREADS, over the BLAS threads each one brings."""
    cap = thread_cap()  # read first: a bad value is an error whatever the work
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, cap or cpus) // _blas_threads())


def _cuts(size: int) -> list:
    """Bounds of the parts a batch of ``size`` windows is cut into: MICRO_BATCHES
    contiguous parts, ceil sizes first; a single window is not cut."""
    parts = min(MICRO_BATCHES, size)
    return [-(-size * k // parts) for k in range(parts + 1)]


@functools.cache
def _keep_freed_heap() -> None:
    """Apply _HEAP_SETTINGS through mallopt, on glibc only."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # not a glibc build
        return
    if libc and libc.startswith("glibc"):
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        for param, value in _HEAP_SETTINGS:
            mallopt(param, value)


def _forecast(model: STUNet, windows: np.ndarray) -> np.ndarray:
    with T.no_grad():
        return model.forward(Tensor(_to_time_major(windows))).data


def _batch_forecasts(model: STUNet, inputs: np.ndarray, batch_size: int) -> list:
    """Time-major forecasts (H, B, N, D) of each batch of windows, without
    recording. Each batch is cut as _cuts says; the parts' forwards run on up
    to thread_budget threads (NumPy releases the GIL in its large kernels),
    each under no_grad on its own thread, and are joined in window order, so
    the bits do not depend on the thread count."""
    if np.ndim(inputs) != 4:
        raise DimensionError(f"windows must be a (W, J, N, D) array, got shape {np.shape(inputs)}")
    if inputs.shape[0] == 0:
        raise UsageError("no windows to forecast")
    _check_batch_size(batch_size)
    out = []
    for lo in range(0, inputs.shape[0], batch_size):
        batch = inputs[lo : lo + batch_size]
        cuts = _cuts(batch.shape[0])
        parts = _in_threads(_forecast, [(model, batch[a:b]) for a, b in zip(cuts, cuts[1:])])
        out.append(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))
    return out


def _in_threads(fn, jobs: list) -> list:
    """fn(*job) for each job, in job order, on up to thread_budget threads.
    One thread runs the jobs in turn on the caller's thread; more run them on
    that many new threads, which all end before this returns, also when a job
    raises (the first job's error in job order is raised)."""
    threads = min(len(jobs), thread_budget())
    if threads == 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
    return [f.result() for f in futures]


def predict_windows(model: STUNet, inputs: np.ndarray, batch_size: int = 50) -> np.ndarray:
    """Forward normalized windows (W, J, N, D) -> (W, H, N, D), no recording."""
    preds = _batch_forecasts(model, inputs, batch_size)
    return np.concatenate([np.transpose(p, (1, 0, 2, 3)) for p in preds], axis=0)


def dataset_loss(model: STUNet, inputs: np.ndarray, targets: np.ndarray,
                 batch_size: int = 50) -> float:
    """Mean forward loss over normalized windows, without recording."""
    total = 0.0
    for i, pred in enumerate(_batch_forecasts(model, inputs, batch_size)):
        yb = _to_time_major(targets[i * batch_size : (i + 1) * batch_size])
        total += loss(Tensor(pred), Tensor(yb)).item() * pred.shape[1]
    return total / inputs.shape[0]


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise UsageError(f"batch size must be >= 1, got {batch_size}")


def _micro_batch_grads(model: STUNet, params: list, xb: Tensor, yb: Tensor,
                       teacher: tuple, weight: float) -> tuple:
    """Loss and parameter gradients of one micro-batch, each times ``weight``,
    recorded on the calling thread's tape, which is left empty."""
    try:
        out = loss(model.forward(xb, targets=yb, teacher=teacher), yb)
        return weight * out.item(), [weight * g for g in T.grads(out, params)]
    finally:
        T.reset_tape()


def batch_grads(model: STUNet, params: list, inputs: np.ndarray, targets: np.ndarray,
                teacher: tuple) -> tuple:
    """Loss and parameter gradients of one batch of windows, inputs (W, J, N, D)
    and targets (W, H, N, D), whose decoders take the targets where ``teacher``
    says. The batch is cut into micro-batches as _cuts says, which run on up
    to thread_budget threads; their loss and gradients, weighted by size, are
    summed in micro-batch order, so the bits do not depend on the thread
    count. One micro-batch gives exactly the loss and gradients of the whole
    batch."""
    size = inputs.shape[0]
    cuts = _cuts(size)
    jobs = [(model, params, Tensor(_to_time_major(inputs[a:b])),
             Tensor(_to_time_major(targets[a:b])), teacher, (b - a) / size)
            for a, b in zip(cuts, cuts[1:])]
    results = _in_threads(_micro_batch_grads, jobs)
    total, grads = results[0]
    for part_loss, part_grads in results[1:]:
        total += part_loss
        grads = [g + pg for g, pg in zip(grads, part_grads)]
    return total, grads


def normalized_copy(ds: TimeSeriesDataset, norm: Normalizer) -> TimeSeriesDataset:
    return TimeSeriesDataset(
        series=norm.apply(ds.series),
        graph=ds.graph,
        splits=ds.splits,
        interval_minutes=ds.interval_minutes,
    )


def train_model(rc: RunConfig, ds: TimeSeriesDataset):
    """Train on the dataset's train split, keeping best-validation weights.

    Returns (model, history). The normalizer fitted on the train split is
    stored in the model's persistent buffers, so checkpoints are
    self-contained. epochs=0 leaves the freshly initialized weights.
    """
    rc.validate()
    _keep_freed_heap()
    cfg = rc.model
    model = build(cfg, ds.graph)
    norm = Normalizer().fit(ds.split_series("train"))
    model.norm_mean.data[...] = norm.mean
    model.norm_std.data[...] = norm.std
    normalized = normalized_copy(ds, norm)
    wc = WindowConfig(cfg.j, cfg.h)
    train_in, train_tg = make_windows(normalized, wc, "train")
    val_in, val_tg = make_windows(normalized, wc, "val")

    params = model.trainable_params()
    names = [name for name, t in model.params.entries if t.requires_grad]
    state = AdamState.for_params(params, rc.lr)
    rng = np.random.default_rng(rc.seed)
    history: list[EpochLog] = []
    best_val = float("inf")
    best_snapshot = [p.data.copy() for p in params]
    iteration = 0
    for epoch in range(rc.epochs):
        state.lr = rc.lr_at(epoch)
        order = rng.permutation(train_in.shape[0])
        running = 0.0
        eps = 0.0
        for lo in range(0, order.size, rc.batch_size):
            idx = order[lo : lo + rc.batch_size]
            eps = scheduled_sampling_prob(iteration, rc.ss_tau)
            teacher = teacher_steps(eps, cfg.h, rng)
            batch_loss, grads = batch_grads(model, params, train_in[idx], train_tg[idx], teacher)
            adam_step(params, clip_global_norm(grads, rc.clip_norm, names), state)
            running += batch_loss * idx.size
            iteration += 1
        train_loss = running / order.size
        val_loss = dataset_loss(model, val_in, val_tg, rc.batch_size)
        history.append(EpochLog(epoch, train_loss, val_loss, state.lr, eps))
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = [p.data.copy() for p in params]
    for p, snap in zip(params, best_snapshot):
        p.data[...] = snap
    return model, history


def write_history(path: str, history: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in history:
            fh.write(entry.line() + "\n")
