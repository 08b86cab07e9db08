"""Deterministic ODE integration with named conservation monitors.

Two methods: classical fixed-step RK4 (the reference method, output at every
step) and an embedded Dormand-Prince 4(5) adaptive pair (output at accepted
steps). Both are pure functions of their arguments; identical configs give
bitwise-identical trajectories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (MaxStepsExceeded, SingularHessian, SingularR, StepFailure,
                     ToleranceUnreachable)

__all__ = [
    "OdeProblem",
    "IntegratorConfig",
    "Trajectory",
    "DriftReport",
    "integrate",
    "monitor_drift",
]

Rhs = Callable[[float, np.ndarray], np.ndarray]
Monitor = Callable[[float, np.ndarray], float]
Row = Callable[[float, np.ndarray], None]


@dataclass(frozen=True)
class OdeProblem:
    """First-order system: dimension, right-hand side, component labels."""

    dim: int
    rhs: Rhs
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(f"y{i + 1}" for i in range(self.dim)))
        if len(self.labels) != self.dim:
            raise ValueError("label count does not match state dimension")


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection and stepping parameters for one integration."""

    t0: float
    t1: float
    method: str = "rk4"
    h: float | None = None
    rtol: float = 1e-8
    atol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "dp45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if self.method == "rk4" and (self.h is None or self.h <= 0.0):
            raise ValueError("rk4 needs a positive step h")
        if self.h is not None and self.h <= 0.0:
            raise ValueError("step h must be positive")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped solution rows plus named monitor channels."""

    times: np.ndarray
    states: np.ndarray
    labels: tuple[str, ...]
    monitors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("row count mismatch between times and states")

    def to_csv(self) -> str:
        names = ["t", *self.labels, *self.monitors]
        cols = [np.asarray(col).tolist() for col in
                (self.times, *self.states.T, *self.monitors.values())]
        # one format per row, each value as "%.17g" formats it alone
        row = ",".join(["%.17g"] * len(cols))
        return "\n".join([",".join(names), *(row % values for values in zip(*cols))]) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "labels": list(self.labels),
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "monitors": {k: v.tolist() for k, v in self.monitors.items()},
        })


@dataclass(frozen=True)
class DriftReport:
    """Largest deviation of a monitor channel from its initial value."""

    max_abs_deviation: float
    time_of_max: float


def _checked_rhs(problem: OdeProblem, t: float, y: np.ndarray) -> np.ndarray:
    try:
        dy = np.asarray(problem.rhs(t, y), dtype=float)
    # singular dynamics met mid-run keeps its own error (exit code 3)
    except (MaxStepsExceeded, ToleranceUnreachable, StepFailure, SingularHessian,
            SingularR):
        raise
    except Exception as exc:
        raise StepFailure(f"rhs raised at t={t!r}: {exc}") from exc
    if dy.shape != (problem.dim,):
        raise StepFailure(f"rhs returned shape {dy.shape}, expected ({problem.dim},)")
    # a plain scan of the floats: a numpy reduction costs more on a short state
    if not all(map(math.isfinite, dy.tolist())):
        i = int(np.flatnonzero(~np.isfinite(dy))[0])
        raise StepFailure(
            f"rhs component {i} ({problem.labels[i]}) is not finite at t={t!r}")
    return dy


def _rk4_step(problem: OdeProblem, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = _checked_rhs(problem, t, y)
    k2 = _checked_rhs(problem, t + 0.5 * h, y + 0.5 * h * k1)
    k3 = _checked_rhs(problem, t + 0.5 * h, y + 0.5 * h * k2)
    k4 = _checked_rhs(problem, t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 4(5) tableau. The last b5 weight is zero and the last stage
# row equals b5, so the seventh stage is the slope at the fifth-order update:
# first same as last, six new evaluations per attempted step.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4


def _dp45_step(problem: OdeProblem, t: float, y: np.ndarray, h: float,
               k1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One attempted step from the slope k1 at (t, y).

    Returns the fifth-order update, the embedded error estimate and the slope
    at the update, which is the next step's k1 when the step is accepted.
    """
    ks = np.zeros((7, problem.dim))
    ks[0] = k1
    for i in range(1, 7):
        yi = y + h * (_DP_A[i] @ ks[:i])
        ks[i] = _checked_rhs(problem, t + _DP_C[i] * h, yi)
    err = h * (_DP_E @ ks)
    return yi, err, ks[6]


def integrate(problem: OdeProblem, config: IntegratorConfig,
              y0: Sequence[float],
              monitors: Mapping[str, Monitor] | None = None) -> Trajectory:
    """Integrate from t0 to t1, recording every output row and its monitors.

    The monitors read each accepted row as it is accepted, once and in row
    order, before the next step starts from it; a monitor error at a row is
    raised before any later step is attempted.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (problem.dim,):
        raise StepFailure(f"initial state shape {y0.shape}, expected ({problem.dim},)")
    bad = np.flatnonzero(~np.isfinite(y0))
    if bad.size:
        i = int(bad[0])
        raise StepFailure(f"initial state component {i} ({problem.labels[i]}) is not finite")
    monitors = dict(monitors or {})
    times: list[float] = []
    states: list[np.ndarray] = []
    channels: dict[str, list[float]] = {name: [] for name in monitors}

    def row(t: float, y: np.ndarray) -> None:
        # the next step's first stage at y finds what these evaluations kept
        times.append(t)
        states.append(y)
        for name, fn in monitors.items():
            channels[name].append(float(fn(t, y)))

    run = _run_rk4 if config.method == "rk4" else _run_dp45
    run(problem, config, y0, row)
    return Trajectory(times=np.asarray(times), states=np.asarray(states),
                      labels=problem.labels,
                      monitors={k: np.asarray(v) for k, v in channels.items()})


def _run_rk4(problem: OdeProblem, config: IntegratorConfig, y0: np.ndarray,
             row: Row) -> None:
    t0, t1, h = config.t0, config.t1, float(config.h)
    # Grid times are computed as t0 + k*h, not accumulated, so the node set
    # is independent of intermediate rounding.
    n_full = int(np.floor((t1 - t0) / h + 1e-12))
    if n_full > config.max_steps:
        raise MaxStepsExceeded(f"{n_full} steps exceed max_steps={config.max_steps}")
    row(t0, y0)
    y = y0
    t = t0
    for k in range(1, n_full + 1):
        t_next = t0 + k * h
        y = _rk4_step(problem, t, y, t_next - t)
        t = t_next
        row(t, y)
    if t < t1 and (t1 - t) > 1e-12 * max(1.0, abs(t1)):
        y = _rk4_step(problem, t, y, t1 - t)
        row(t1, y)


def _run_dp45(problem: OdeProblem, config: IntegratorConfig, y0: np.ndarray,
              row: Row) -> None:
    t0, t1 = config.t0, config.t1
    h = float(config.h) if config.h is not None else (t1 - t0) / 100.0
    rtol, atol = config.rtol, config.atol
    row(t0, y0)
    t = t0
    y = y0
    attempts = 0
    k1 = None  # slope at (t, y), kept across a rejected attempt
    while t < t1:
        if attempts >= config.max_steps:
            raise MaxStepsExceeded(f"max_steps={config.max_steps} reached at t={t!r}")
        if h < 1e-14 * max(1.0, abs(t)):
            raise ToleranceUnreachable(f"step size underflow at t={t!r}")
        h = min(h, t1 - t)
        attempts += 1
        if k1 is None:
            k1 = _checked_rhs(problem, t, y)
        y_new, err, k_new = _dp45_step(problem, t, y, h, k1)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            t = t + h
            y, k1 = y_new, k_new
            row(t, y)
            factor = 5.0 if err_norm == 0.0 else 0.9 * err_norm ** -0.2
        else:
            factor = 0.9 * err_norm ** -0.2
        h = h * min(5.0, max(0.2, factor))


def monitor_drift(trajectory: Trajectory, channel: str) -> DriftReport:
    """Max absolute deviation of a channel from its first value, and when."""
    if channel not in trajectory.monitors:
        known = ", ".join(sorted(trajectory.monitors)) or "none"
        raise KeyError(f"no monitor channel {channel!r} (have: {known})")
    series = trajectory.monitors[channel]
    dev = np.abs(series - series[0])
    k = int(np.argmax(dev))
    return DriftReport(max_abs_deviation=float(dev[k]),
                       time_of_max=float(trajectory.times[k]))
