"""Wall times corrected for the speed of a shared machine.

On the shared 2-core container where the bounds were set, the same
pure-Python work switches, from one second to the next, between two
speeds about 1.75x apart, as other tenants load the host.  Raw wall
times of one pass then spread by a quarter or more from run to run, which
hides the changes the benchmark is meant to show.

A fixed reference loop, as dict-, tuple- and str-heavy as groupoidkit's
own loops, measures the current speed: it is timed right before and right
after each job, and every `INTERVAL_S` while the job runs, from a SIGALRM
handler in the same thread.  A job's time is its wall time less the time
spent in that handler, multiplied by ``NOMINAL_S`` over the mean
reference time around and during the job: the job's wall time at the
speed at which the reference loop takes ``NOMINAL_S``, the fast one on that
container.  The reference loop runs with the garbage collector off, so a
collection of the job's heap does not land in a speed sample.  The
divisor is a mean, not a median: a long job often runs partly at each
speed, and the median of its samples is the speed of whichever part is
longer.  A sample stalled by another tenant stands for the stalls the job
itself meets in between samples, so it belongs in the mean.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

NOMINAL_S = 0.00115
INTERVAL_S = 0.1


def reference_loop(n: int = 1500):
    d = {}
    for i in range(n):
        k = (i % 97, i % 89, "x%d" % (i % 50))
        d[k] = d.get(k, 0) + 1
    return sorted(d, key=repr)


def reference_time() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times calls and samples the machine's speed while they run."""

    def __init__(self):
        self.samples: list = []
        self._spent = 0.0

    def _on_alarm(self, signum, frame):
        entered = time.perf_counter()
        self.samples.append(reference_time())
        self._spent += time.perf_counter() - entered

    def timed(self, fn, during=True):
        """Run ``fn()``; return (result, wall seconds, seconds at nominal speed).

        With ``during`` false the speed is sampled only before and after
        the call, so no handler runs inside it (as in a traced pass, whose
        spans must hold only the program's work).
        """
        before = reference_time()
        first, spent = len(self.samples), self._spent
        if during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            ended = time.perf_counter()
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall = ended - started - (self._spent - spent)
        refs = [before, reference_time()] + self.samples[first:]
        self.samples += refs[:2]
        return result, wall, wall * NOMINAL_S / statistics.fmean(refs)

    def speed(self) -> float:
        """Mean machine speed over every sample, as a share of nominal."""
        return NOMINAL_S / statistics.fmean(self.samples) if self.samples else 1.0
