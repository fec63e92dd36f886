"""Host-speed reference: a fixed kernel timed again and again while the program runs.

The benchmark's host is a shared VM whose speed drifts by up to a third in
spells of seconds to minutes; a pure-Python loop slows down in them as much
as the program does. Wall time alone therefore measures the host as much as
the program. ``Sampler`` interrupts the program every ``period`` seconds of
program time (``SIGALRM``, handled in the main thread between bytecodes, so
never inside a numpy call), runs ``kernel`` once and times it. Each stretch
of program time between two samples is divided by the mean of the kernel
times on either side of it; summed, that is the program's time in kernel
runs, which stays put when the host speeds up or slows down. The kernel's
own time is taken out of the program's wall time.

The kernel is a fixed mix of what the program does: interpreter work on
tuples and dicts, small numpy calls, and a pass over an array larger than
the L2 cache. It uses its own arrays and no global random state, so the
program's arithmetic does not change when it runs.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05     # program time between two kernel samples

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((16, 24))
_W = _rng.standard_normal((24, 96))
_BIG = _rng.standard_normal(2 ** 19)    # 4 MiB, past L2


def kernel() -> float:
    """About 6 ms of fixed work on the reference host (one BLAS thread)."""
    acc = 0.0
    for i in range(300):
        y = np.tanh(_X @ _W)
        acc += float(y[i & 15, i % 96])
    seen: dict[tuple, int] = {}
    for i in range(6000):
        h = (i & 7, i % 5, i % 3)
        seen[h + (i & 1,)] = seen.get(h, 0) + i
    acc += len(seen) + float(np.dot(_BIG, _BIG))
    return acc


class Sampler:
    """Context manager that times the program inside it in wall seconds and
    in kernel runs, sampling the kernel every ``period`` of program time.
    Entering it again adds to the same totals."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.program_s = 0.0    # wall time with the kernel's own time taken out
        self.kernel_runs = 0.0  # program time in units of the kernel's time
        self.samples = 0
        self._last_kernel = 0.0
        self._mark = 0.0
        self._running = False
        self._previous = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples += 1
        return t1 - t0

    def _close_stretch(self) -> None:
        now = time.perf_counter()
        stretch = now - self._mark
        k = self._sample()
        self.program_s += stretch
        self.kernel_runs += stretch / (0.5 * (self._last_kernel + k))
        self._last_kernel = k
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if not self._running:   # an alarm still pending when stop() ran
            return
        self._close_stretch()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self) -> "Sampler":
        self._last_kernel = self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._close_stretch()
        signal.signal(signal.SIGALRM, self._previous)


class WallClock:
    """Wall time only, for traced runs, whose spans must not hold kernel runs."""

    def __init__(self):
        self.program_s = 0.0
        self.kernel_runs = float("nan")
        self._mark = 0.0

    def __enter__(self) -> "WallClock":
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.program_s += time.perf_counter() - self._mark


def kernel_seconds(reps: int = 21) -> float:
    """Median time of one kernel run on this host, now."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]
