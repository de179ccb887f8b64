"""How fast the CPU runs Python right now, sampled inside a timed run.

The host this benchmark was written on (a 2-vCPU x86 guest) shares its
cores with other guests.  The speed at which it runs Python swings by
20% and more within a second and drifts over minutes, with CPU time
equal to wall time; one t45-deduction item took from 45 to 58 s over
four runs.  Ten runs of the same code then spread past any useful bound.
So every run measures the speed it gets, with a fixed pure-Python probe
that shares no code with khcube, and reports its times converted to a
reference speed:

    time at reference speed = measured time * speed
    speed = mean of REF_PROBE_S / probe time

over the probes taken while that time was measured, with a tenth cut
at each end.  A change to khcube leaves the probe alone, so a slower
khcube still reads slower; a slower host reads the same.  The measured
(raw) times are kept in each run's record next to the converted ones.

``Sampler`` takes a probe on SIGALRM every ``INTERVAL_S`` seconds of
wall time, right after an untimed one that warms the caches, so probes
are spread evenly over the run and the mean of their rates is the run's
mean speed.  The time the probes take is
counted and taken out of the measured times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter
from typing import List, Tuple

# Probe time of ``probe`` at reference speed: its median on a quiet
# 2-vCPU x86 guest at 2.0 GHz with CPython 3.11.
REF_PROBE_S = 0.00105
INTERVAL_S = 0.2
# Probes within this many seconds of an interval also count for it, so
# that a short item still gets several.
MARGIN_S = 0.5


def probe() -> float:
    """Seconds one fixed run of dict, tuple, list and integer work takes.

    The mix is that of khcube's sparse matrices and cube vertices:
    dicts of dicts keyed by small ints, tuple keys, list appends and
    integer arithmetic.
    """
    t0 = perf_counter()
    rows: dict = {}
    keys = []
    for i in range(1200):
        r = (i * 37) & 63
        row = rows.get(r)
        if row is None:
            row = rows[r] = {}
        c = (i * 11) & 15
        row[c] = (row.get(c, 0) + i * i) % 1009
        keys.append((r, c))
    for r, c in sorted(keys):
        rows[r][c] += 1
    return perf_counter() - t0


def rate(samples: List[float]) -> float:
    """Speed relative to reference (1.0 = reference) from probe times:
    the mean of per-probe rates with the top and bottom tenth cut, so a
    probe the guest kernel interrupted does not count."""
    rates = sorted(REF_PROBE_S / s for s in samples)
    cut = len(rates) // 10
    return statistics.fmean(rates[cut:len(rates) - cut] or rates)


def spot_rate() -> float:
    """Speed now, from 25 probes in a row (about 25 ms)."""
    return rate([probe() for _ in range(25)])


class Sampler:
    """Probes on SIGALRM while a run is timed; converts its times."""

    def __init__(self) -> None:
        self.at: List[float] = []      # when each probe started
        self.took: List[float] = []    # how long it took
        self.spent = 0.0               # total probe time so far

    def _tick(self, _signum, _frame) -> None:
        t = perf_counter()
        probe()  # the run left other data in the caches: warm them first
        d = probe()
        self.at.append(t)
        self.took.append(d)
        self.spent += perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rate_between(self, t0: float, t1: float) -> float:
        """Speed over [t0, t1], from the probes within MARGIN_S of it
        (at least five: the nearest ones to its middle otherwise)."""
        lo = bisect.bisect_left(self.at, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.at, t1 + MARGIN_S)
        if hi - lo < 5:
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo, hi = max(0, mid - 3), min(len(self.at), mid + 3)
        if hi <= lo:
            raise RuntimeError("no speed probe was taken during the run")
        return rate(self.took[lo:hi])


def converted(span: Tuple[float, float, float], sampler: Sampler) -> float:
    """A measured interval (start, end, probe time inside it) as seconds
    at reference speed."""
    t0, t1, probes = span
    return (t1 - t0 - probes) * sampler.rate_between(t0, t1)
