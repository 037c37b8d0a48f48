"""Machine speed, sampled while the program runs, to scale wall times by.

The machine the benchmark was defined on, two cores of a shared host,
changed speed from one second to the next: the same classification took
0.9 s or 1.5 s a few seconds apart, and whole stretches of minutes ran up to
twice as slow as others.  So every timed metric is reported in *reference
seconds*: the program's wall seconds scaled by ``NOMINAL_S / k``, where ``k``
is the mean time of a fixed reference kernel sampled while the program ran.
A faster program moves reference seconds as it moves wall seconds; a slower
machine slows the program and the kernel alike, and the ratio stays.

``Speedometer`` samples the kernel from a ``SIGALRM`` timer every
``PERIOD_S`` seconds of wall time, in the measured thread itself, and
subtracts the kernel's own time from the wall time of what it measures.

The kernel is standard library only and does what hha's hot loops do: a
wedge product of forms kept as dictionaries keyed by index tuples, and
Gaussian elimination, both in exact ``Fraction`` arithmetic.  It never
imports ``hha``, so no change to the program can change it.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

# Mean kernel time on the machine the benchmark was defined on, in a quiet
# stretch (2-core Xeon at 2.0 GHz, Python 3.11.7).  Only a scale: it makes
# reference seconds read close to wall seconds there.
NOMINAL_S = 0.0012
PERIOD_S = 0.05
# The fewest samples a measured call is scaled by; a shorter call borrows
# the samples taken just before and after it.
MIN_SAMPLES = 16

_NSYM = 7


def _wedge(a: dict, b: dict) -> dict:
    """Wedge product of forms stored as {sorted index tuple: coefficient}."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if set(ka) & set(kb):
                continue
            idx = list(ka + kb)
            sign = 1
            for i in range(1, len(idx)):       # insertion sort, counting swaps
                j = i
                while j > 0 and idx[j - 1] > idx[j]:
                    idx[j - 1], idx[j] = idx[j], idx[j - 1]
                    sign = -sign
                    j -= 1
            key = tuple(idx)
            c = out.get(key, 0) + (ca * cb if sign > 0 else -(ca * cb))
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def _det(rows: list) -> Fraction:
    m = [row[:] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def kernel() -> Fraction:
    """One fixed unit of work; returns a checksum so none of it is skipped."""
    two_form = {(i, j): Fraction(i + 2 * j + 1, j + 3)
                for i in range(_NSYM) for j in range(i + 1, _NSYM) if (i + j) % 3}
    rows = [[Fraction((3 * i + 5 * j) % 7 + (i == j) * 9, 1 + (i + j) % 4)
             for j in range(6)] for i in range(6)]
    return sum(_wedge(two_form, two_form).values(), _det(rows))


CHECKSUM = kernel()


def sample() -> float:
    """Wall seconds of one kernel."""
    start = time.perf_counter()
    if kernel() != CHECKSUM:
        raise AssertionError("reference kernel changed its result")
    return time.perf_counter() - start


class Speedometer:
    """Kernel samples taken every ``PERIOD_S`` while it is running.

    ``measure`` times one call; ``reference`` turns that time into reference
    seconds once the samples around the call are in.  Each call is scaled
    by the mean of the samples taken during it, widened to the nearest
    samples before and after it until there are ``MIN_SAMPLES``: the clock
    should keep running for a moment after the last measured call.
    """

    def __init__(self):
        self.samples = []        # kernel seconds, in the order taken
        self.kernel_s = 0.0      # wall seconds spent in sampled kernels

    def _tick(self, signum, frame):
        dt = sample()
        self.samples.append(dt)
        self.kernel_s += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        """Run ``fn()``; returns its value, its wall seconds without the
        kernels sampled inside it, and a mark for ``reference``."""
        first, kernel_before = len(self.samples), self.kernel_s
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start - (self.kernel_s - kernel_before)
        return value, wall, (first, len(self.samples))

    def reference(self, wall: float, mark) -> float:
        """Reference seconds of a call that took ``wall`` seconds."""
        lo, hi = mark
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.samples))
        taken = self.samples[lo:hi]
        if not taken:
            raise RuntimeError("no speed samples around a measured call")
        return wall * NOMINAL_S / (sum(taken) / len(taken))


def reference_speed(count: int = 32) -> float:
    """Mean kernel seconds over ``count`` back-to-back samples."""
    return sum(sample() for _ in range(count)) / count
