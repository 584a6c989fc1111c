"""Interpreter-speed probe for scaling times measured on a shared machine.

On a shared host the speed of a vCPU swings by up to 2x within seconds
and drifts by 10-20% from one minute to the next, more than any bound
worth setting on a timing.  Between tasks, once per ``PROBE_INTERVAL_S``
elapsed, the harness times a fixed pure-Python probe that never calls
heapinv.  A measured interval is then multiplied by
``REFERENCE_PROBE_S`` over the mean probe time within ``PROBE_WINDOW_S``
of it, which gives the time the interval would have taken at reference
speed.  The probe mixes closure calls over a dict environment, the shape
of heapinv's compiled programs, with lookups in a table of about 2 MB.
"""

from __future__ import annotations

import bisect
import gc
import random
from time import perf_counter

PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.5
PROBE_MIN_SAMPLES = 4
PROBE_MAX_BURST = 10
# the probe's time on the reference machine when it is not contended
REFERENCE_PROBE_S = 0.001


def _probe_program():
    """A closure-tree loop in the style of heapinv's compiled programs."""
    def const(v):
        return lambda env: v

    def var(n):
        return lambda env: env[n]

    def add(a, b):
        return lambda env: a(env) + b(env)

    def less(a, b):
        return lambda env: a(env) < b(env)

    def pair(a, b):
        return lambda env: (a(env), b(env))

    def assign(n, e):
        def stmt(env):
            env[n] = e(env)
        return stmt

    def block(*stmts):
        def stmt(env):
            for s in stmts:
                s(env)
        return stmt

    def loop(cond, body):
        def stmt(env):
            while cond(env):
                body(env)
        return stmt

    i, s = var("i"), var("s")
    return loop(less(i, const(500)), block(
        assign("s", add(s, i)),
        assign("p", pair(i, s)),
        assign("i", add(i, const(1)))))


def _probe_table():
    """Lookups and inserts over a table of about 1 MB, so that the probe
    also feels other tenants' contention for the caches."""
    rng = random.Random(0)
    table = [(i, str(i)) for i in range(10000)]
    picks = [rng.randrange(len(table)) for _ in range(1000)]

    def probe():
        seen = {}
        for k in picks:
            n, name = table[k]
            seen[name] = (n, len(seen))
        return seen
    return probe


class SpeedProbe:
    """Times the probe between tasks, so that any interval of a run can be
    scaled by the interpreter speed measured around it."""

    def __init__(self):
        program, table = _probe_program(), _probe_table()

        def probe():
            program({"i": 0, "s": 0, "p": None})
            table()
        self._probe = probe
        self.starts: list[float] = []
        self.spent = 0.0      # time inside probes, excluded from walls
        self._took: list[float] = []
        self._cumulative = [0.0]
        self._last = perf_counter()

    def tick(self, force: bool = False) -> None:
        """Probe once per ``PROBE_INTERVAL_S`` elapsed since the last probe
        (at most ``PROBE_MAX_BURST`` at a time), so that the probes keep a
        constant share of the time and a long task is as well sampled as
        many short ones."""
        due = int((perf_counter() - self._last) / PROBE_INTERVAL_S)
        if force:
            due = max(due, 1)
        # a collection started by the probe's allocations would time the
        # workload's heap, not the interpreter
        gc.disable()
        try:
            if due:
                # untimed: refill the caches the workload evicted, so that
                # the timed probes do not depend on the workload's footprint
                self._probe()
            for _ in range(min(due, PROBE_MAX_BURST)):
                start = perf_counter()
                self._probe()
                took = perf_counter() - start
                self.spent += took
                self.starts.append(start)
                self._took.append(took)
                self._cumulative.append(self._cumulative[-1] + took)
        finally:
            gc.enable()
        if due:
            self._last = perf_counter()

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the mean probe time within
        ``PROBE_WINDOW_S`` of [start, end], widened to at least
        ``PROBE_MIN_SAMPLES`` probes."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        while hi - lo < min(PROBE_MIN_SAMPLES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        mean = (self._cumulative[hi] - self._cumulative[lo]) / (hi - lo)
        return REFERENCE_PROBE_S / mean
