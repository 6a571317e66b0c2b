"""Host-speed reference for timed runs on a shared machine.

The benchmark host's speed drifts by tens of percent over seconds, because
other tenants share its cores. A ``Calibrator`` times a small fixed job
(``reference_job``, which uses NumPy and plain Python but no fairppm code)
every PERIOD_S seconds. It runs from a SIGALRM handler in the measuring
thread itself, so the reference shares the core, and the slow phases, with
the work being measured.

``adjust`` turns a measured interval into seconds at reference speed:
  (wall time - time spent in the reference job) * REFERENCE_S / r
where r is the median reference time within WINDOW_S of the interval. A
change to fairppm moves the adjusted time as it moves wall time. A slow
phase of the host moves the wall time and r together, and the ratio
cancels it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
WINDOW_S = 1.0
# typical reference_job time inside a run on the 2-vCPU host this benchmark
# was written on; it only scales the reported values
REFERENCE_S = 5e-4

_GRID = np.linspace(0.0, 1.0, 128)


def reference_job() -> float:
    total = 0.0
    for _ in range(4):
        total += float(np.exp(-np.abs(_GRID[:, None] - _GRID[None, :]) * 100.0).sum())
        total += len("".join([str(j) for j in range(300)]))
    return total


class Calibrator:
    """Samples ``reference_job`` between ``start`` and ``stop``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame):
        t0 = self.clock()
        reference_job()
        self.samples.append((t0, self.clock() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjust(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would have taken at reference speed."""
        busy = sum(d for start, d in self.samples if t0 <= start < t1)
        near = [d for start, d in self.samples if t0 - WINDOW_S <= start < t1 + WINDOW_S]
        near = near or [d for _, d in self.samples]
        scale = REFERENCE_S / statistics.median(near) if near else 1.0
        return (t1 - t0 - busy) * scale
