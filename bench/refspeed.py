"""A fixed reference computation that tracks how fast the machine runs right now.

On a shared VM the same op can take 50% longer in one 10-second window than in
the next, and process CPU time drifts with it, so neither wall nor CPU time of
a 25-second run is steady. The benchmark therefore times this kernel three
times between ops and every SAMPLE_PERIOD seconds while an op runs (from a
timer signal, in the op's own thread, with the time it takes taken off the
op's time), and reports the op's time scaled by
REF_SECONDS / (mean of those kernel times): the op's duration at the speed at
which the kernel takes REF_SECONDS. The kernel uses only numpy and Python,
never the program, so a change to the program cannot move it; it mixes the
same kinds of work the program does (small-array ufuncs in a Python loop,
three-component stencils, float-to-text formatting) so that a slow phase of
the machine slows both alike.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Nominal duration of one kernel call: about its time on a 2-core Xeon VM at
# 2.0 GHz in a fast phase. Any fixed value would do; it sets the scale only.
REF_SECONDS = 0.005

# About 2% of an op's wall time goes to samples.
SAMPLE_PERIOD = 0.25

_N = 1500
_STEPS = 30


def kernel() -> float:
    x = np.linspace(-20.0, 20.0, _N)
    bump = np.exp(-x * x)
    s, i, r = 1.0 - 0.01 * bump, 0.01 * bump, np.zeros(_N)
    acc = 0.0
    for _ in range(_STEPS):
        tot = s + i + r
        ok = tot > 1e-12
        inc = np.where(ok, 2.0 * s * i / np.where(ok, tot, 1.0), 0.0)
        for y, f in ((s, -inc), (i, inc - i), (r, 0.5 * i)):
            lap = np.empty_like(y)
            lap[1:-1] = y[2:] - 2.0 * y[1:-1] + y[:-2]
            lap[0] = lap[-1] = 0.0
            y += 0.2 * lap + 0.01 * f
        acc += float(np.max(i)) + len(",".join(f"{v:.17g}" for v in i[:40]))
    return acc


def seconds() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Context manager that times the kernel every SAMPLE_PERIOD seconds from SIGALRM.

    The handler runs between bytecodes of whatever the main thread is doing;
    `spent` is the time the samples took, to be taken off the op's time.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        dt = seconds()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def edge() -> list[float]:
    """Three kernel times taken between ops."""
    return [seconds() for _ in range(3)]


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured alongside these kernel samples to reference speed."""
    return REF_SECONDS / (sum(samples) / len(samples))
