"""Host-speed probe: the benchmark's times are scaled to a reference speed.

On a shared host the same work can take 1.8 times as long from one minute
to the next, and the speed flips within a second. The slowdown hits the
program and any other code alike. The benchmark therefore runs a fixed
unit of work that does not touch ``pcd`` (small numpy operations in a
Python loop and a masked grid stencil, the mix the package's hot paths
have) right after every timed call. A call's reference time is its wall
time multiplied by ``NOMINAL_UNIT_S`` over the unit's mean time in the
probes right before and after it. A change to ``pcd`` moves the call's
wall time but not the unit's, so it moves the reference time by the same
share; a slow second of the host moves both.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

# About the unit's time on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6).
# Reference times read as wall times on that machine at that speed.
NOMINAL_UNIT_S = 0.002
# Probe time after each call, as a share of the call's wall time.
SHARE = 0.15
MIN_PROBE_S = 0.05

_SMALL = np.linspace(-1.0, 1.0, 72).reshape(24, 3)
_GRID = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
_HOLE = np.hypot(*np.mgrid[-16:16, -16:16]) < 9


def unit() -> float:
    """Small-array numpy steps in a Python loop, as the sampler chain runs
    them, and a masked neighbour-average pass, as inpainting runs it."""
    x = _SMALL
    for _ in range(60):
        x = 0.98 * x + 0.02 * np.tanh(x - x.mean(axis=0))
    g = _GRID
    for _ in range(30):
        padded = np.pad(g, 1)
        total = padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        g = g.copy()
        g[_HOLE] = 0.25 * total[_HOLE]
    return float(x.sum() + g.sum())


class Clock:
    """Times calls, probes the host speed after each, and scales call times
    to the reference speed."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, int]] = []  # (start, end, units)
        self.probe(MIN_PROBE_S)

    def probe(self, budget_s: float) -> None:
        """Run whole units for at least budget_s."""
        n = 0
        start = time.perf_counter()
        while True:
            unit()
            n += 1
            end = time.perf_counter()
            if end - start >= budget_s:
                self.probes.append((start, end, n))
                return

    def time(self, fn: Callable):
        """Call fn; return its result and the perf_counter times around it."""
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        self.probe(max(MIN_PROBE_S, SHARE * (end - start)))
        return out, start, end

    def reference_s(self, start: float, end: float) -> float:
        """end - start at the reference speed.

        The host's speed is the mean unit time of the probes right before
        and right after the interval.
        """
        before = next(p for p in reversed(self.probes) if p[1] <= start)
        after = next(p for p in self.probes if p[0] >= end)
        unit_s = 0.5 * sum((e - s) / n for s, e, n in (before, after))
        return (end - start) * NOMINAL_UNIT_S / unit_s
