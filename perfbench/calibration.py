"""Machine-speed probe run between timed operations.

On a shared host the same code runs up to ~1.7x slower for stretches of
several seconds while neighbours load the CPU, and CPU time slows with wall
time, so neither is steady across runs. The probe is a fixed mix of
interpreter and NumPy work that shares no code with stunet: a Python loop,
small products with finite checks and 256x256 GEMMs, plus, in its "full"
kind for workloads whose arrays are megabytes, the same work on arrays the
size of the 576-node graph's. Each operation's time is scaled by
``NOMINAL_S[kind] / probe``, with the median of the probes taken just
before, just after, during (every TIMER_S, for long operations) and within
WINDOW_S of it; the result reads as the operation's time on a host where the
probe takes its nominal time. A change to stunet moves the operation, not the
probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# probe times on an unloaded core of the reference host
NOMINAL_S = {"small": 0.005, "full": 0.015}
WINDOW_S = 0.5  # probes this close to an operation calibrate it
TIMER_S = 0.2  # probe period inside in-process operations

_rng = np.random.default_rng(0)
_SMALL = (_rng.standard_normal((64, 96)), _rng.standard_normal((96, 32)))
_GEMM = (_rng.standard_normal((256, 256)), _rng.standard_normal((256, 256)))
_LARGE = (_rng.standard_normal((576, 576)), _rng.standard_normal((576, 128)))
_WIDE = _rng.standard_normal((16, 576, 96))
# Preallocated outputs, so the probe allocates no arrays: fresh large
# allocations page-fault, which costs 5-100 ms at random in a VM, and any
# allocation from a signal handler would shift the heap layout the workload
# sees and so its peak memory.
_SMALL_OUT = np.empty((64, 32))
_SMALL_OK = np.empty((64, 32), dtype=bool)
_GEMM_OUT = np.empty((256, 256))
_LARGE_OUT = np.empty((576, 128))
_WIDE_OUT = np.empty_like(_WIDE)
_WIDE_OK = np.empty(_WIDE.shape, dtype=bool)
_CAT = np.empty((16, 576, 192))


def _probe_once(kind: str) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(100):
        np.matmul(*_SMALL, out=_SMALL_OUT)
        np.tanh(_SMALL_OUT, out=_SMALL_OUT)
        if not np.isfinite(_SMALL_OUT, out=_SMALL_OK).all():
            raise FloatingPointError("probe produced non-finite values")
    for _ in range(4):
        np.matmul(*_GEMM, out=_GEMM_OUT)
    if kind == "full":
        # megabyte-sized operands, so the probe feels cache and memory contention
        np.matmul(*_LARGE, out=_LARGE_OUT)
        np.tanh(_WIDE, out=_WIDE_OUT)
        if not np.isfinite(_WIDE_OUT, out=_WIDE_OK).all():
            raise FloatingPointError("probe produced non-finite values")
        np.concatenate([_WIDE, _WIDE_OUT], axis=-1, out=_CAT)
    return time.perf_counter() - t0


class Probes:
    """Probe results by when they ran: ``points`` probes between operations,
    plus one from a periodic timer signal. The signal handler runs between
    bytecodes of the main thread, so a probe never splits a NumPy call; a
    child process doing the work is stopped while the probe runs. Either
    way the probe's duration is taken out of the operation it interrupted."""

    def __init__(self, points: int, kind: str):
        self.points = points
        self.kind = kind  # "small", or "full" for workloads on megabyte arrays
        self.nominal = NOMINAL_S[kind]
        self.at: list = []  # (start, stop, probe seconds)
        self.child_pidfd: int | None = None  # child to stop during a probe
        self._in_timer = False

    def take(self, points: int = 1) -> None:
        for _ in range(points):
            start = time.perf_counter()
            p = _probe_once(self.kind)
            self.at.append((start, time.perf_counter(), p))

    def between(self) -> None:
        """The probes taken between two operations."""
        self.take(self.points)

    def _on_timer(self, signum, frame) -> None:
        if self._in_timer:  # a late signal during a slow probe: skip it
            return
        self._in_timer = True
        fd = self.child_pidfd
        stopped = False
        if fd is not None:
            try:
                signal.pidfd_send_signal(fd, signal.SIGSTOP)
                stopped = True
            except ProcessLookupError:
                pass  # the child has exited
        try:
            self.take()
        finally:
            if stopped:
                try:
                    signal.pidfd_send_signal(fd, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            self._in_timer = False

    def start_timer(self, interval: float) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrate(self, start: float, stop: float) -> tuple:
        """(seconds, calibrated seconds) of the interval [start, stop] with
        the probes inside it taken out; the scale is the median over probes
        within WINDOW_S of the interval."""
        inside = sum(b - a for a, b, _ in self.at if a >= start and b <= stop)
        seconds = stop - start - inside
        near = [self.nominal / p for a, _, p in self.at
                if start - WINDOW_S <= a <= stop + WINDOW_S]
        return seconds, seconds * statistics.median(near)

    def median(self) -> float:
        return statistics.median(p for _, _, p in self.at)
