"""Machine-speed samples that put timings on one reference speed.

On a shared machine the speed of the processor changes with the load of
other tenants: the fixed pure-Python loop below runs at about 0.45 or about
0.85 ms per call for seconds to minutes at a time, and amech moves almost as
much. In three 10-seed baselines the same operation of a cycle was timed while
the loop was fast (lowest quartile of its samples) and while it was slow
(highest quartile): on trajectory and model_sweep the loop moved 1.7-1.9x
and amech's time with it at an elasticity of 0.82-0.92; constrain, with only
12-16 operations a run, gave 0.57-0.79. Fitting each run's seconds per work
unit against its mean loop time gave 0.89-1.13 on trajectory and
model_sweep. `baseline.py` repeats the paired measurement every time.

The benchmark therefore runs the loop between operations and scales each
operation's time by (reference / measured seconds per loop call) raised to
ELASTICITY, where measured is the mean of the samples just before and just
after the operation. Each sample is the median over its calls, so a single
interrupt does not move it. The reference is the fast state, so a scaled time
reads as the operation's wall time on a quiet machine.
The loop does the kind of work amech does: small tuples, dict lookups, float
arithmetic, function calls and tiny numpy calls. It never changes with the
program, so a slower program still reads slower; it runs with the cyclic
garbage collector off, so the size of the program's heap does not move it.
Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# Seconds per `_loop()` call at the reference speed: the fast state of a
# 2-vCPU Intel Xeon virtual machine (2.1 GHz) with Python 3.11 and numpy 2.4.
REFERENCE_S = 4.5e-4
# How amech's times move with the loop's, rounded from the fits above.
ELASTICITY = 0.9
MIN_SAMPLE_S = 0.01
SHARE = 0.05

_V = np.array([0.3, -1.2, 0.7])


def _term(env: dict, i: int) -> tuple:
    return tuple(env[k] * (i % 7) + 0.5 for k in ("a", "b", "c"))


def _loop(n: int = 400) -> float:
    env = {"a": 1.1, "b": 0.7, "c": -0.3}
    acc = 0.0
    for i in range(n):
        t = _term(env, i)
        d = {"x": t[0] + t[1], "y": t[1] * t[2]}
        acc += d["x"] - d["y"] / (1.0 + abs(t[2]))
        if i % 8 == 0:
            acc += float(_V @ _V) * 1e-3
    return acc


def sample(seconds: float) -> float:
    """Median seconds per loop call over a window of at least `seconds`."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            _loop()
            t1 = perf_counter()
            times.append(t1 - t0)
            if t1 - start >= seconds:
                return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Speed samples between operations, each sized to the operation before."""

    def __init__(self):
        self.samples = [sample(MIN_SAMPLE_S)]

    def factor(self, raw_seconds: float) -> float:
        """Sample after an operation of `raw_seconds` and return its factor:
        reference over the mean of the samples just before and after it, to
        the power ELASTICITY."""
        self.samples.append(sample(max(MIN_SAMPLE_S, SHARE * raw_seconds)))
        measured = 0.5 * (self.samples[-2] + self.samples[-1])
        return (REFERENCE_S / measured) ** ELASTICITY
