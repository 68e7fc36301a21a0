"""Machine-speed reference probe, sampled while a round runs.

On a shared 2-vCPU Xeon VM the machine's speed changes by 10-20% within a
second and drifts further over tens of seconds, so a probe timed before and
after a round does not see the speed the round ran at.  `Sampler` therefore runs one
small piece of fixed reference work every INTERVAL seconds of wall time,
from a SIGALRM handler, in the middle of the round.  The pieces rotate
through four kinds of work that the workloads also do: interpreted integer
arithmetic, `Fraction` sums, many small symmetric eigenproblems and one
200x200 eigenproblem.  `ref_s` is the geometric mean over the four kinds
of their mean time in the round, so each kind weighs the same whatever its
length; measured on that VM, it tracked the round times of all four
workloads better than the plain sum of the four.

This module never imports mwspec and must stay unchanged once committed:
`instances_per_ref` is comparable between two commits only if both were
measured against the same probe.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np
from numpy.linalg import eigvalsh  # bound now, so tracing never wraps it

INTERVAL = 0.025
# A typical ref_s on that VM.  Set-up time is scaled by
# REF_NOMINAL_S / ref_s to read as seconds at that speed.
REF_NOMINAL_S = 0.00125

_RNG = np.random.default_rng(12345)
_SMALL = [(a + a.T) / 2.0 for a in _RNG.standard_normal((60, 12, 12))]
_BIG = _RNG.standard_normal((200, 200))
_BIG = (_BIG + _BIG.T) / 2.0


def _integers() -> int:
    acc = 0
    for i in range(10000):
        acc = (acc * 31 + i * i) % 1000003
    return acc


def _fractions() -> Fraction:
    for _ in range(3):
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(k % 7 + 1, k)
    return acc


def _small_eigs() -> float:
    return float(sum(eigvalsh(a)[-1] for a in _SMALL))


def _big_eigs() -> float:
    return float(eigvalsh(_BIG)[-1])


COMPONENTS = (_integers, _fractions, _small_eigs, _big_eigs)


def _one_pass(times: list[list[float]]):
    for k, fn in enumerate(COMPONENTS):
        start = time.perf_counter()
        fn()
        times[k].append(time.perf_counter() - start)


def _geometric_mean(values) -> float:
    return math.prod(values) ** (1.0 / len(values))


def reference(passes: int = 5) -> float:
    """ref_s from back-to-back passes, the median time of each piece."""
    times = [[] for _ in COMPONENTS]
    for _ in range(passes):
        _one_pass(times)
    return _geometric_mean([statistics.median(t) for t in times])


class Sampler:
    """Context manager: runs probe pieces from SIGALRM while it is open.

    `probe_s` is the wall time spent in probe pieces, to be taken out of the
    round's time; `ref_s()` is the reference time described above.
    """

    def __init__(self):
        self.times = [[] for _ in COMPONENTS]
        self.probe_s = 0.0
        self._next = 0
        self._previous = None

    def _tick(self, signum, frame):
        k = self._next
        self._next = (k + 1) % len(COMPONENTS)
        start = time.perf_counter()
        COMPONENTS[k]()
        elapsed = time.perf_counter() - start
        self.times[k].append(elapsed)
        self.probe_s += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work_clock(self) -> float:
        """perf_counter() minus the time spent in probe pieces so far."""
        while True:
            spent = self.probe_s
            now = time.perf_counter()
            if self.probe_s == spent:  # no piece ran between the two reads
                return now - spent

    def ref_s(self) -> float:
        if not all(self.times):  # a round shorter than one rotation
            _one_pass(self.times)
        return _geometric_mean([sum(t) / len(t) for t in self.times])
