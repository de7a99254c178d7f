"""Wall time rescaled to a fixed reference speed.

On a shared machine the speed of a core changes from second to second
as other tenants come and go: the same ``run_round`` call takes about
1.85 times longer in a contended stretch than in a quiet one, and the
stretches last from under a second to minutes. A fixed probe kernel run
right before and after a measured interval slows down by nearly the
same factor, so the interval's time divided by the probe's time is
nearly independent of the contention.

``SpeedClock.mark`` runs the probe and records when it ran; the
benchmark marks at the start and end of an operation and, at most every
``MARK_EVERY_S``, at calls into the program. Time between two marks is
scaled by ``REFERENCE_PROBE_S`` over the mean of the two probes: it is
the time the interval would have taken on a machine that runs the probe
in exactly ``REFERENCE_PROBE_S``. The probes' own time is left out of
every figure.

The probe is benchmark code and never changes with the program; a
slower program makes the measured interval longer, not the probe.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# The reference speed: the probe kernel takes exactly this long at it.
REFERENCE_PROBE_S = 50e-6

# Least time between two marks made at calls into the program. The probe
# costs about 1% of it; contended and quiet stretches last far longer.
MARK_EVERY_S = 0.01

_X = np.arange(4.0)


def _kernel() -> float:
    """Interpreter work and tiny numpy calls, like an agfed round.

    It allocates no container objects, so it never triggers the garbage
    collector and its time does not depend on the program's heap.
    """
    acc = 0.0
    for i in range(20):
        acc += len(str(i)) + (i * 7) % 5
        acc += float((_X * 1.5 + i).sum())
    return acc


def probe() -> float:
    """Seconds the probe kernel takes now: the faster of two runs.

    The second run sees warm caches, and an interrupt that lands in one
    run does not reach the minimum.
    """
    start = time.perf_counter()
    _kernel()
    middle = time.perf_counter()
    _kernel()
    return min(middle - start, time.perf_counter() - middle)


class SpeedClock:
    """Marks that each hold when a probe started, ended, and its time."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []
        self._ends: list[float] = []

    def mark(self) -> None:
        """Probe the speed now."""
        start = time.perf_counter()
        took = probe()
        end = time.perf_counter()
        self.marks.append((start, end, took))
        self._ends.append(end)

    def mark_if_due(self) -> None:
        """Probe the speed if ``MARK_EVERY_S`` has passed since the last mark."""
        if time.perf_counter() - self._ends[-1] >= MARK_EVERY_S:
            self.mark()

    def scale(self, k: int) -> float:
        """Factor to the reference speed between marks ``k`` and ``k + 1``."""
        return 2 * REFERENCE_PROBE_S / (self.marks[k][2] + self.marks[k + 1][2])

    def span(self, a: float, b: float) -> tuple[float, float]:
        """Wall and reference-speed seconds of ``[a, b]``, probes left out.

        ``[a, b]`` must lie between the first mark and the last.
        """
        wall = scaled = 0.0
        k = bisect.bisect_right(self._ends, a) - 1
        while k + 1 < len(self.marks) and self.marks[k][1] < b:
            lo, hi = max(a, self.marks[k][1]), min(b, self.marks[k + 1][0])
            if hi > lo:
                wall += hi - lo
                scaled += (hi - lo) * self.scale(k)
            k += 1
        return wall, scaled

    def total(self) -> tuple[float, float]:
        """Wall and reference-speed seconds from the first mark to the last."""
        return self.span(self.marks[0][1], self.marks[-1][0])

    def probe_median(self) -> float:
        took = sorted(m[2] for m in self.marks)
        return took[len(took) // 2]
