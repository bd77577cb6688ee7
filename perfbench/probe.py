"""Machine-speed probe: rescale measured times to a fixed reference speed.

On a shared VM the speed of the same pure-Python pass drifts by 20-30%
over seconds to minutes, and CPU time drifts with it, so neither wall
nor CPU time of a pass is steady from run to run.  The probe samples the
speed while the pass runs: a SIGALRM timer interrupts the main thread
every INTERVAL_S and runs a fixed kernel (a product of two small
polynomials with Fraction coefficients, accumulated in a dict like
bvkit's multiply; under a millisecond) with the collector paused,
timing it in thread CPU time.  A time measured over an interval is then

    sum over the probes k of the interval:
        (time until probe k + 1 - probe k's own wall) * REF_S / local probe time

where the local probe time is the median of the SMOOTH probes around k:
seconds at the speed where one kernel run takes REF_S.  The
kernel does not depend on bvkit, so a slower program still reads slower.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
SMOOTH = 9        # probes whose median gives the local speed
REF_S = 0.001     # one kernel run, in thread CPU seconds, at reference speed

# two fixed 12-term polynomials in four variables
_A = {(i % 3, 7 * i % 4, 5 * i % 3, i % 2): Fraction(i % 7 + 1, i % 5 + 1)
      for i in range(40)}
_B = {(3 * i % 4, i % 3, 11 * i % 2, 5 * i % 3): Fraction(i % 3 + 1, i % 4 + 1)
      for i in range(40)}


def kernel() -> dict:
    """The product _A * _B, accumulated term by term like bvkit's multiply."""
    out = {}
    for ma, ca in _A.items():
        for mb, cb in _B.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = ca * cb
            s = out.get(m)
            out[m] = c if s is None else s + c
    return out


class SpeedProbe:
    """Samples (start, wall, cpu) of the kernel while started."""

    def __init__(self):
        self.starts = []
        self.walls = []
        self.cpus = []
        self._speed = None
        self._old = None

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        c0 = time.thread_time()
        w0 = time.perf_counter()
        kernel()
        w1 = time.perf_counter()
        c1 = time.thread_time()
        if enabled:
            gc.enable()
        self.starts.append(w0)
        self.walls.append(w1 - w0)
        self.cpus.append(c1 - c0)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._speed = None

    def burst(self, n):
        """Run the kernel n times now, outside the timer."""
        for _ in range(n):
            self._tick(None, None)
        self._speed = None

    def scale_recent(self, seconds, n) -> float:
        """seconds at reference speed, by the median of the last n probes."""
        return seconds * REF_S / statistics.median(self.cpus[-n:])

    def scaled(self, t0, t1) -> float:
        """Seconds of [t0, t1], probe time removed, at reference speed.

        Probe k stands for the time from its start to the next probe's
        start, at the speed given by the median of the SMOOTH probes
        around it, so a speed change inside the interval is followed.
        """
        if self._speed is None:
            h = SMOOTH // 2
            self._speed = [REF_S / statistics.median(self.cpus[max(0, k - h):k + h + 1])
                           for k in range(len(self.cpus))]
        starts = self.starts
        k = max(bisect.bisect_right(starts, t0) - 1, 0)
        total, t = 0.0, t0
        while t < t1:
            end = min(starts[k + 1], t1) if k + 1 < len(starts) else t1
            busy = end - t
            if t <= starts[k] < end:
                busy -= self.walls[k]
            total += busy * self._speed[k]
            t = end
            k += 1
        return total
