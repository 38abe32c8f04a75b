"""A clock calibrated against the speed of the machine while it runs.

The host of a small VM slows it down and speeds it up by 10-40 % within
seconds, so identical work timed a minute apart differs by that much.  To
take that out of the time metrics, the worker interleaves a fixed piece of
pure-Python reference work (`reference_work`, about 2 ms) with the
workload: a profiling timer interrupts the workload after every
`SAMPLE_EVERY_S` of CPU time and runs it once.  Elapsed time between two
samples is scaled by `NOMINAL_S` over the reference work's duration at the
two ends, and the time spent in the reference work itself is left out.  A
calibrated second is therefore the time the interval would have taken on a
machine that runs the reference work in `NOMINAL_S`; at that speed it
equals a wall-clock second.

The reference work uses no finpow code, so a change to the library cannot
move it.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002  # reference work's duration on the 2-core VM of the baseline
# CPU seconds of workload between two samples.  Sampling this often tracks
# the host's speed changes better than sampling less often with longer
# reference work, or smoothing over several samples.
SAMPLE_EVERY_S = 0.05


def _reference_once() -> tuple:
    table: dict = {}
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 13, i + 7)
        k = (i * 7919) % 61
        table[k] = table.get(k, ()) + (i,)
    return sorted(table.items()), acc


def reference_work() -> float:
    """Run the reference work once; return its duration in seconds."""
    t0 = time.perf_counter()
    for _ in range(4):
        _reference_once()
    return time.perf_counter() - t0


def speed_factor() -> float:
    """NOMINAL_S over the median of five runs of the reference work."""
    return NOMINAL_S / statistics.median(reference_work() for _ in range(5))


class CalibratedClock:
    """`now()` reads calibrated seconds while `start()`ed; `stop()` ends the
    sampling.  Only one may run in a process: it owns SIGPROF."""

    def __init__(self):
        self.samples: list[float] = []  # reference durations, in seconds
        self._virtual = 0.0  # calibrated seconds up to self._last
        self._last = time.perf_counter()
        self._factor = 1.0
        self._seq = 0  # bumped by every sample, so now() can retry

    def now(self) -> float:
        while True:
            seq = self._seq
            value = self._virtual + (time.perf_counter() - self._last) * self._factor
            if seq == self._seq:  # no sample ran while reading
                return value

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        dur = reference_work()
        factor = NOMINAL_S / dur
        virtual = self._virtual + (start - self._last) * (self._factor + factor) / 2
        self._virtual, self._factor, self._last = virtual, factor, start + dur
        self._seq += 1
        self.samples.append(dur)

    def start(self) -> None:
        self._sample()
        self._factor = NOMINAL_S / self.samples[-1]
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
