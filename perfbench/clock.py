"""Wall time rescaled to a reference machine speed.

On a shared host the same pass can take 2.5x longer from one minute to
the next, because the speed of the CPU the process gets changes in
stretches of seconds to minutes. A run of 30 s cannot average that out,
so raw wall times of two runs of the same code disagree by more than
any useful regression bound.

While started, the clock takes a speed sample every INTERVAL_S from a
timer interrupt: it times a fixed piece of work shaped like the
program's per-pair loops (dict iteration with float arithmetic, and
small numpy dot products and norms), run once untimed first so that
its data is in cache.
The reference seconds of an interval are its wall seconds, minus the
time spent in the samples, times the mean of REFERENCE_SAMPLE_S / sample
over the samples taken in it. They read as the seconds the interval
would take on a machine whose sample takes REFERENCE_SAMPLE_S: the
fast state of a 2-vCPU Intel Xeon VM at 2.1 GHz with Python 3.11.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
REFERENCE_SAMPLE_S = 6e-5
_ITEMS = {i: float(i) for i in range(1000)}
_VECTORS = np.random.default_rng(0).normal(size=(13, 150))


def _sample_work():
    acc = 0.0
    for _key, value in _ITEMS.items():
        acc += value * value
    vecs = _VECTORS
    for i in range(12):
        acc += float(vecs[i] @ vecs[i + 1]) / float(np.linalg.norm(vecs[i]))
    return acc


class Clock:
    """Speed samples from a timer interrupt, and readings to measure between."""

    def __init__(self):
        self.samples = array("d")
        self.sampling_s = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        # The first run only brings the sample's data back into cache, so
        # that the timed one measures the CPU's speed, not how much cache
        # the interrupted code had taken.
        t0 = perf_counter()
        _sample_work()
        t1 = perf_counter()
        _sample_work()
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.sampling_s += perf_counter() - t0

    def start(self):
        if self._previous is None:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def reading(self):
        """(wall time, sampling time so far, samples so far)."""
        return perf_counter(), self.sampling_s, len(self.samples)

    def factor(self, a, b):
        """Mean reference/actual speed ratio over the samples between two readings.

        An interval too short to hold a sample uses the nearest ones.
        """
        lo, hi = a[2], b[2]
        if hi - lo < 1:
            lo, hi = max(0, lo - 1), min(len(self.samples), hi + 1)
        taken = self.samples[lo:hi]
        if not taken:
            return 1.0
        return sum(REFERENCE_SAMPLE_S / s for s in taken) / len(taken)

    def seconds(self, a, b):
        """(reference seconds, wall seconds) between two readings."""
        wall = (b[0] - a[0]) - (b[1] - a[1])
        return wall * self.factor(a, b), wall
