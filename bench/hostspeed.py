"""The host's speed, sampled while a run measures.

A shared host runs in fast and slow phases that last from seconds to
minutes, longer than many runs; memory-heavy code slows down more in them
(up to 1.8 times on the reference host) than small loops (1.3 times).  No statistic
over one run's own timings removes a phase that covers the whole run.  So
while a run measures, a fixed reference kernel, which uses nothing from
robustmax, is timed every ``TICK_S`` seconds from a ``SIGALRM`` handler.
The handler runs in the main thread between bytecodes, so the kernel runs
on the same core, in the same phase, as the library call it interrupts.

A time ``t`` measured while the kernel took ``k`` seconds (see ``kernel_s``) is
reported as ``t * REF_KERNEL_S / k``: the time the same work would take on
a host where the kernel takes ``REF_KERNEL_S``.  A change to robustmax moves
``t`` and, as long as it does not crowd the kernel out of the cache, not
``k``, so it shows in full.  The scaling assumes the timed calls run on one
thread; a change that runs them on several cores, or that grows the memory
the timed calls touch many times over, must also be judged on the raw wall
time, which every run records.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.05
# About the kernel's mean time within a run on the reference host (2-core
# Intel Xeon VM, Python 3.11, numpy 2.4).  Only a unit: it scales every
# reported time by the same constant.
REF_KERNEL_S = 0.002

clock = time.perf_counter


class HostSpeed:
    """Context manager that samples the reference kernel every ``TICK_S``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((40, 36))
        self._b = rng.random((40, 36))
        self._rows = np.arange(40)[:, None]
        self._order = np.argsort(self._a, axis=1)
        # A memo-sized table that the timed calls push out of the cache
        # between ticks, so its lookups feel the host's memory speed too.
        keys = rng.integers(0, 1 << 40, size=1 << 16).tolist()
        self._table = {key: float(i) for i, key in enumerate(keys)}
        self._probes = keys[::32]
        self.samples: list = []   # (time at end, kernel seconds)
        self._previous = None

    def kernel(self) -> float:
        """Small-array numpy like a node evaluation, cold lookups in a large
        dict like the oracle memo, and frozenset building like the oracle
        checks.  Each part alone tracks some workloads worse."""
        total = 0.0
        for _ in range(6):
            chosen = self._a[self._rows, self._order] > 0.3
            w = np.where(chosen, self._b, 0.0)
            taken = np.cumsum(w, axis=1) <= 4.0
            total += float((w * taken).sum(axis=1).min())
        table = self._table
        for key in self._probes:
            total += table[key]
        for mask in range(256):
            base = frozenset(j for j in range(12) if mask >> j & 1)
            total += len(base | {mask % 12})
        return total

    def _tick(self, signum, frame):
        start = clock()
        self.kernel()
        end = clock()
        self.samples.append((end, end - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_s(self, start: float = -float("inf"), end: float = float("inf")) -> float:
        """Kernel time over the samples taken between ``start`` and ``end``,
        or over all of them when there are none in that window.

        The ticks are evenly spaced in time, so the work the host can do in
        the window is the time-average of the kernel's speed, ``1 / k``: the
        harmonic mean of ``k``.  A tick that the operating system preempted
        is slow and moves it little."""
        window = [k for t, k in self.samples if start <= t <= end]
        return statistics.harmonic_mean(window or [k for _, k in self.samples])

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured between ``start`` and ``end``, at reference speed."""
        return seconds * REF_KERNEL_S / self.kernel_s(start, end)
