"""Machine-speed probe used to put job times on a steady scale.

On the 2-vCPU virtual machine this benchmark was built on, the same job's
wall time swings by up to 2x between phases that last from a second to
minutes (other tenants share the host).  A fixed piece of pure-Python work,
timed while the jobs run, slows down with the package's code: its slowdown
is within a few percent of the jobs' slowdown in either phase when about a
quarter of its time is integer arithmetic and the rest tuple and set work.
The benchmark divides each job's wall time by the mean probe reading taken
around and during the job and multiplies by REFERENCE_S, which gives the
job's time at the speed the probe has in the fast phase.

The probe's code is the benchmark's own and never calls the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import signal
import time

import jobs as joblib

REFERENCE_S = 0.00046   # probe reading in the fast phase of the build machine
REPEATS = 3             # a reading is the fastest of this many runs of the work
INTERVAL = 0.25         # seconds between readings while a job runs
_MAXIMA = ((2, 5, 8), (4, 6, 7))


def _work():
    x = 0
    for i in range(2500):
        x += i * i % 7
    joblib.maxima_of(joblib.ideal(3, 8, _MAXIMA))
    return x


def reading():
    """Seconds the probe work takes now: the fastest of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Probe readings between jobs and, on a SIGALRM timer, during them.

    The time the readings take inside a job is kept in ``stolen`` so the
    caller can take it off the job's wall time.
    """

    def __init__(self):
        self.readings = []      # (perf_counter at the reading, seconds)
        self.stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.read()
        self.stolen += time.perf_counter() - t0

    def read(self):
        r = reading()
        self.readings.append((time.perf_counter(), r))

    def start(self):
        self.stolen = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.stolen

    def close(self):
        signal.signal(signal.SIGALRM, self._previous)

    def local(self, t_start, t_end, window):
        """Mean reading taken within ``window`` seconds of [t_start, t_end],
        or the nearest reading when none is that close."""
        near = [r for t, r in self.readings if t_start - window <= t <= t_end + window]
        if not near:
            near = [min(self.readings, key=lambda tr: abs(tr[0] - t_end))[1]]
        return sum(near) / len(near)
