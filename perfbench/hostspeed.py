"""Host-speed reference for the benchmark's timings.

The benchmark shares its machine with other jobs, and the machine's speed
drifts by tens of percent over seconds to minutes.  CPU time drifts with
wall time, so the cause is slower execution, not preemption.  A fixed
kernel that does not use the program slows down with it.  The kernel does
the kinds of work a readout does, on a 512 x 512 grid: complex field
arithmetic, Poisson draws, component labelling and an interpreter loop.

`HostSpeed.sample()` runs the kernel once if EVERY_S seconds have passed
since the previous run.  The benchmark calls it between CLI calls and,
through probes on the per-frame imaging functions, between the frames of
a long call; kernel time inside a call is subtracted from the call's time.
A wall time measured over [start, end] is scaled by `factor(start, end)`:
NOMINAL_MS over the median kernel time sampled from WINDOW_S seconds before
start to WINDOW_S seconds after end.  Reported times therefore read as on a
host where the kernel takes NOMINAL_MS; the benchmark prints the raw wall
times beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

NOMINAL_MS = 25.0
EVERY_S = 0.4
WINDOW_S = 1.0


def kernel(xg, yg) -> None:
    field = (xg + 1j * yg) * np.exp(-(xg * xg + yg * yg) / 4.0)
    intensity = np.abs(field) ** 2
    rng = np.random.Generator(np.random.Philox(key=7))
    counts = rng.poisson(intensity * (1e5 / intensity.sum()))
    ndimage.label(counts <= 0.1 * counts.max())
    total = 0
    for i in range(30000):
        total += i * i


class HostSpeed:
    """Kernel timings, as (time taken, milliseconds) pairs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent running the kernel
        x = np.linspace(-4.0, 4.0, 512)
        self._grid = np.meshgrid(x, x)
        self._last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        if start - self._last < EVERY_S:
            return
        kernel(*self._grid)
        self._last = time.perf_counter()
        self.samples.append((start, 1e3 * (self._last - start)))
        self.spent += self._last - start

    def median_ms(self, start=-float("inf"), end=float("inf")) -> float:
        near = [ms for t, ms in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.median(near or [ms for _, ms in self.samples])

    def factor(self, start, end) -> float:
        """Multiply a wall time measured over [start, end] by this."""
        return NOMINAL_MS / self.median_ms(start, end)
