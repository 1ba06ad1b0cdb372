"""Host speed probe: a fixed pure-Python kernel timed before, during and
after every task.

The host is a shared virtual machine whose CPU runs one and the same
computation up to 1.8 times slower for spells of seconds to many minutes
(process time moves with wall time, so it is not scheduling).  pspect
spends its time in pure-Python float arithmetic, the DP5 step loop and
its right-hand-side closures, storing every step, so a fixed kernel of
the same kind that shares no code with pspect slows with it.  The
benchmark reports times at the reference speed: the seconds measured,
times the mean of REF_S over the kernel's seconds sampled during them.
A change to pspect moves the reported times; a change of host speed
does not.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

# probe seconds on a quiet host (2-core x86-64 virtual machine, Python
# 3.11): times at the reference speed read as seconds on such a host
REF_S = 0.0025
STEPS = 1500
INTERVAL = 0.2  # seconds between probes while a task runs


def kernel(steps: int = STEPS) -> float:
    """Fixed-step RK4 for a damped pendulum in plain floats, keeping every
    step's state in growing lists as pspect's dense output does."""
    def f(y0, y1):
        return y1, -0.1 * y1 - math.sin(y0) * abs(y0) ** 0.5

    h, y0, y1 = 1e-3, 1.0, 0.0
    ys, ks = [], []
    for _ in range(steps):
        a0, a1 = f(y0, y1)
        b0, b1 = f(y0 + h / 2 * a0, y1 + h / 2 * a1)
        c0, c1 = f(y0 + h / 2 * b0, y1 + h / 2 * b1)
        d0, d1 = f(y0 + h * c0, y1 + h * c1)
        y0 += h / 6 * (a0 + 2 * b0 + 2 * c0 + d0)
        y1 += h / 6 * (a1 + 2 * b1 + 2 * c1 + d1)
        ys.append((y0, y1))
        ks.append((a0, b0, c0, d0, a1, b1, c1, d1))
    return ys[-1][0]


def probe() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Meter:
    """Times the block it wraps and the host speed while it runs.

    A probe runs before and after the block, and every INTERVAL seconds
    inside it from a SIGALRM handler, between two bytecodes of the block;
    the time spent in those probes is taken off the block's time.  After
    the block, `seconds` is its time as measured and `scaled` its time at
    the reference speed.  Main thread only.
    """

    def __enter__(self):
        self.samples = [probe()]
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.seconds = perf_counter() - self._t0 - self.spent
        self.samples.append(probe())
        self.scaled = self.seconds * sum(REF_S / p for p in self.samples) / len(self.samples)
        return False
