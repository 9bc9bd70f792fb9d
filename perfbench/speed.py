"""A background thread that tracks how fast this process's CPU is running.

The benchmark runs on a shared machine whose CPU speed drifts by 15-35 %
over seconds to minutes; CPU time tracks wall time, so the program is not
waiting, it is running slower. Every 0.2 s the probe times a fixed kernel
(a Python loop and a few 64 x 64 matmuls, about 0.4 ms) by the thread's own
CPU time, which time slicing with the main thread does not inflate. An
operation's wall time times NOMINAL_S over the median kernel time around it
is the time it would have taken at nominal speed. The process is pinned to
one CPU (common.pin_cpu) so that the kernel runs where the program does.
In 2-minute tests the quartile spread of a repeated 1.5-second operation
went from 13 % raw to 2 % rescaled.
"""
from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

# the kernel's median time on the reference machine (see README.md)
NOMINAL_S = 4.0e-4
PERIOD_S = 0.2
WINDOW_S = 1.0

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def reference_kernel() -> None:
    s = 0
    for i in range(5000):
        s += i * i
    for _ in range(8):
        _MATRIX @ _MATRIX


class SpeedProbe:
    """Samples the kernel's CPU time every PERIOD_S until stop()."""

    def __init__(self):
        self.times: list[float] = []     # perf_counter at each sample
        self.costs: list[float] = []     # kernel CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            reference_kernel()
            cost = time.thread_time() - t0
            self.times.append(time.perf_counter())
            self.costs.append(cost)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel cost within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        costs = self.costs[lo:hi] or self.costs
        return NOMINAL_S / statistics.median(costs)
