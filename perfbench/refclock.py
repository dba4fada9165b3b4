"""Durations scaled to a reference machine speed.

The shared 2-vCPU host this benchmark was defined on switches between a
fast and a slow state, about a factor of two apart, every few seconds to
minutes, because other tenants load it.  CPU time moves with wall time,
so neither can tell the program's cost from the host's state: raw
latencies of one and the same glue spread by half their median across a
two-minute window.

`RefClock.time` therefore measures the host's speed with a fixed stdlib
loop of Fraction arithmetic (the kind of work padicglue does): once
before and once after each timed call, and every SAMPLE_S seconds during
it, from a SIGALRM handler in the same thread.  The time spent in those
in-call loops is left out of the call's duration.  The duration is then
scaled by ``REF_S * mean(1 / loop time)``, giving the time the call would
have taken while the loop takes ``REF_S``.  The loop runs no padicglue
code, so a change to the library moves scaled times exactly as it moves
raw ones; raw times and every loop time are kept in the run record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# the loop's time on the defining host in its slow state, so scaled
# times are at most a little above raw ones there
REF_S = 0.005
LOOP_TERMS = 1000
SAMPLE_S = 0.1


def reference_loop() -> float:
    """Time one pass of the fixed reference work.

    The collector is off while it runs: a collection would cost time in
    proportion to the objects the workload keeps alive, not to the host's
    speed.  The loop creates no reference cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, LOOP_TERMS):
            s += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    def __init__(self):
        self.sampling_s = 0.0  # time spent in loops sampled inside timed calls
        self.last_loop = reference_loop()
        self.loops = []  # every loop time, for the run record
        self._samples = []

    def now(self) -> float:
        """perf_counter, less the time spent sampling inside timed calls."""
        return time.perf_counter() - self.sampling_s

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(reference_loop())
        self.sampling_s += time.perf_counter() - t0

    def time(self, call, *args) -> tuple:
        """Call `call(*args)`; return (result, raw seconds, scale factor).

        The duration at reference speed is raw seconds times the factor."""
        self._samples = [self.last_loop]
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = self.now()
        try:
            result = call(*args)
        finally:
            raw = self.now() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.last_loop = reference_loop()
        samples = self._samples + [self.last_loop]
        self.loops.extend(samples[1:])
        return result, raw, REF_S * statistics.fmean(1 / s for s in samples)
