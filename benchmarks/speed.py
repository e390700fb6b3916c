"""Machine-speed normalization for timings taken on a shared host.

On a small shared machine the same call can take 1.8x longer for seconds
at a time when neighbours are busy; this shows up neither as steal time nor
in CPU time.  The benchmark therefore samples a fixed reference operation
(interpreter work plus small numpy calls, no thermalquench code) every
``PERIOD_S`` while it measures, and scales each measured interval by
``REF_NOMINAL_S / reference time`` around that interval.  A change to the
program moves the measured time and not the reference, so it moves the
normalized time by the same share; host contention moves both and cancels.

Times normalized here read as seconds on this reference core at full speed.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.2
# a round figure near the reference operation's time on the machine the
# baseline was measured on (2-core VM at 2.1 GHz, Python 3.11, numpy 2.4)
REF_NOMINAL_S = 0.006

_X = np.linspace(0.1, 1.0, 8)
_M = np.add.outer(np.arange(160.0), np.arange(160.0)) / 160.0


def reference_op() -> float:
    """Seconds taken by a fixed mix of bytecode, small numpy calls and a
    LAPACK eigensolve (the kind of work behind the quadrature rules)."""
    t0 = time.perf_counter()
    acc = 0.0
    for j in range(800):
        acc += float(np.exp(-1.0 / (_X + j)).sum())
        acc += (j * j) % 7
    for _ in range(2):
        acc += float(np.linalg.eigvalsh(_M)[0])
    return time.perf_counter() - t0


class Sampler:
    """Runs :func:`reference_op` from a SIGALRM handler every ``PERIOD_S``
    between two calls to :meth:`sample` that bracket the measured region.

    Measured intervals are read on a virtual clock that stands still while a
    sample runs and otherwise advances at ``REF_NOMINAL_S / reference time``,
    the reference time averaged over the two samples around the moment.
    The clock is monotonic and additive, so a span's normalized time is
    never less than the sum of its children's.
    """

    def __init__(self):
        self.times: list[float] = []  # start of each sample
        self.refs: list[float] = []  # reference_op seconds
        self.costs: list[float] = []  # time the sample took out of the run
        self._clock: list[float] = []  # virtual time at each sample's start

    def sample(self, *_):
        t0 = time.perf_counter()
        ref = reference_op()
        self.times.append(t0)
        self.refs.append(ref)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _rate(self, i: int) -> float:
        """Virtual seconds per second after sample ``i``."""
        j = min(i + 1, len(self.refs) - 1)
        return 2.0 * REF_NOMINAL_S / (self.refs[i] + self.refs[j])

    def virtual(self, t: float) -> float:
        """The virtual clock at ``perf_counter`` time ``t``."""
        while len(self._clock) < len(self.times):
            i = len(self._clock)
            if i == 0:
                self._clock.append(0.0)
            else:
                run = self.times[i] - self.times[i - 1] - self.costs[i - 1]
                self._clock.append(self._clock[-1] + run * self._rate(i - 1))
        i = bisect.bisect_right(self.times, t) - 1
        if i < 0:
            return (t - self.times[0]) * self._rate(0)
        return self._clock[i] + max(0.0, t - self.times[i] - self.costs[i]) * self._rate(i)

    def normalized(self, start: float, end: float) -> float:
        """Seconds between ``start`` and ``end`` on the virtual clock."""
        return self.virtual(end) - self.virtual(start)
