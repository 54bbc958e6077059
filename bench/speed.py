"""Item times at a reference CPU speed.

The speed of a shared CPU drifts by tens of percent within seconds,
which swamps the differences the benchmark exists to show.  So a fixed
piece of work (a probe, independent of credal) is timed between items,
and a timer also interrupts the process every `INTERVAL_S` to time it
during long items.  Each item's wall time, less the probes that
interrupted it, is scaled by how much slower or faster than the probe's
reference time the probes during and around it ran.  A time "at the
reference speed" is what the item would have taken had every probe taken
exactly its reference time.

The drift does not slow all code alike, so each workload names the
probe closest to its own work: `exact` (rational arithmetic, lists and
dicts, as in the simplex) or `float` (small-array numpy calls, as in the
I-projection).
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02  # wall time between interrupting probes
NEIGHBOURS = 2  # probes on each side of an item that also set its scale


def exact_probe() -> float:
    t0 = perf_counter()
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        counts[i % 13] = counts.get(i % 13, 0) + i
    row = [Fraction(k, 3) for k in range(40)]
    row = [x - Fraction(1, 2) * x for x in row]
    return perf_counter() - t0


def float_probe() -> float:
    t0 = perf_counter()
    w = np.linspace(0.1, 1.0, 6)
    a = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    for k in range(40):
        z = (0.01 * k) * a
        z -= z.max()
        v = w * np.exp(z)
        v /= v.sum()
        float(v @ a)
    return perf_counter() - t0


# (probe, its median time on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4)
PROBES = {"exact": (exact_probe, 7e-4), "float": (float_probe, 2.5e-4)}


class Sampler:
    """Runs one kind of probe from a SIGALRM handler every INTERVAL_S
    while active, and between items on request."""

    def __init__(self, kind: str):
        self.probe, self.reference_s = PROBES[kind]
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if not self._busy:  # never time a probe that interrupted a probe
            self.starts.append(perf_counter())
            self.durations.append(self.probe())

    def between(self) -> float:
        """Time one probe between two items."""
        self._busy = True
        try:
            return self.probe()
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, spans: list[tuple[float, float]],
                     between: list[float]) -> list[float]:
        """Each (start, end) item's time at the reference speed.

        between[i] ran just before item i and between[i + 1] just after
        it.  Interrupting probes that started inside an item are taken
        out of its time; its scale is the median of those probes and of
        the NEIGHBOURS between-item probes on each side.
        """
        starts, durations = self.starts, self.durations
        out = []
        for i, (t0, t1) in enumerate(spans):
            inside = durations[bisect_left(starts, t0):bisect_right(starts, t1)]
            near = between[max(0, i - NEIGHBOURS + 1):i + NEIGHBOURS + 1] + inside
            out.append((t1 - t0 - sum(inside)) * self.reference_s / statistics.median(near))
        return out
