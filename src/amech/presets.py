"""Built-in example systems with their reference data.

Each preset carries its model document plus a facts block: default initial
conditions per simulation mode, named conserved channels, the function of
any derived channels with the names it returns, constraint-algorithm
outcomes and bracket tables. The suite reads all expectations from here so
they live in one place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dsl import SystemSpec, parse_expression, parse_system
from .errors import UnknownPresetError
from .expr import Expr

__all__ = ["Preset", "load", "ids",
           "martinet_pendulum_channels", "plate_ball_pendulum_channels"]


@dataclass(frozen=True)
class Preset:
    id: str
    dsl: str
    facts: dict
    spec: SystemSpec
    channels: dict[str, Expr]  # facts["channels"], parsed


_TQ_PENDULUM = """\
system tq_pendulum
base [q]
fiber [v]
anchor { v -> (1) }
lagrangian = 0.5*v^2 - (1 - cos(q))
"""

_SO3_RIGID_BODY = """\
system so3_rigid_body
base []
fiber [w1, w2, w3]
anchor zero
bracket { [w1,w2] = w3; [w2,w3] = w1; [w3,w1] = w2 }
params { I1 = 1.0, I2 = 2.0, I3 = 3.0 }
lagrangian = 0.5*(I1*w1^2 + I2*w2^2 + I3*w3^2)
"""

_CAPRI_KOBAYASHI = """\
system capri_kobayashi
base [x1, y1, rho]
fiber [e1, e2, e3, e0]
anchor { e1 -> (1, 0, 0); e2 -> (0, 1, 0); e3 -> (0, 0, 1); e0 -> (0, 0, 0) }
params { m2 = 1.0 }
lagrangian = 0.5*m2*(e3^2 + rho^2*e0^2) + rho^2*e0 - x1^2 - y1^2 - rho^2
"""

_MARTINET = """\
system martinet
base [x]
fiber [e1, e2, e3]
anchor { e1 -> (1); e2 -> (0); e3 -> (0) }
bracket { [e1,e2] = x*e3 }
lagrangian = 0.5*(e1^2 + e2^2)
vakonomic { e3 = 0 }
"""

_PLATE_BALL = """\
system plate_ball
base [x1, x2]
fiber [e1, e2, e3, e4, e5]
anchor { e1 -> (1, 0); e2 -> (0, 1); e3 -> (0, 0); e4 -> (0, 0); e5 -> (0, 0) }
bracket { [e3,e4] = e5; [e4,e5] = e3; [e5,e3] = e4 }
params { Omega = 0.5, c = 0.0 }
lagrangian = 0.5*(e1^2 + e2^2)
vakonomic { e3 = -e2 + Omega*x1; e4 = e1 + Omega*x2; e5 = c }
"""

_SKINNER_RUSK_DEMO = """\
system skinner_rusk_demo
base [q1, q2]
fiber [v1, v2]
anchor { v1 -> (1, 0); v2 -> (0, 1) }
params { k = 1.0 }
lagrangian = 0.5*(v1^2 + v2^2) - 0.5*k*(q1^2 + q2^2)
vakonomic { }
"""

_LIE_ALGEBRA_AFFINE = """\
system lie_algebra_affine
base []
fiber [e0, e1, e2]
anchor zero
bracket { [e0,e1] = e2; [e1,e2] = e0; [e2,e0] = e1 }
lagrangian = 0.5*e2^2
vakonomic { e0 = 1; e1 = 0 }
"""


def _column(traj, label: str) -> np.ndarray:
    return traj.states[:, traj.labels.index(label)]


def _second_time_derivative(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.gradient(np.gradient(series, times), times)


def martinet_pendulum_channels(traj) -> dict[str, np.ndarray]:
    """Pendulum form of the straightest-path flow: theta is the heading of
    the velocity (e1, e2) and obeys theta'' + p3 r sin(theta) = 0 with
    r = |(e1, e2)| constant. Edge rows of the residual carry the one-sided
    differentiation error."""
    times = np.asarray(traj.times, dtype=float)
    if times.size < 5:
        return {}
    e1 = _column(traj, "e1")
    e2 = _column(traj, "e2")
    p3 = _column(traj, "p3")
    theta = np.unwrap(np.arctan2(e1, e2))
    r = np.hypot(e1, e2)
    resid = _second_time_derivative(theta, times) + p3 * r * np.sin(theta)
    return {"theta": theta, "pendulum_residual": resid}


def plate_ball_pendulum_channels(traj) -> dict[str, np.ndarray]:
    """Pendulum form of the rolling flow: with the conserved pair
    k1 = e1 - p4 = r cos(phi), k2 = e2 + p3 = r sin(phi), the heading
    theta = atan2(e2, e1) obeys theta'' + r sin(theta - phi) = 0."""
    times = np.asarray(traj.times, dtype=float)
    if times.size < 5:
        return {}
    e1 = _column(traj, "e1")
    e2 = _column(traj, "e2")
    k1 = e1 - _column(traj, "p4")
    k2 = e2 + _column(traj, "p3")
    theta = np.unwrap(np.arctan2(e2, e1))
    phi = np.arctan2(k2, k1)
    r = np.hypot(k1, k2)
    resid = _second_time_derivative(theta, times) + r * np.sin(theta - phi)
    return {"theta": theta, "pendulum_residual": resid}


_CATALOGUE: dict[str, tuple[str, dict]] = {
    "tq_pendulum": (_TQ_PENDULUM, {
        "modes": ["el", "hamilton", "vakonomic"],
        "default_init": {
            "el": {"q": 1.2, "v": 0.3},
            "hamilton": {"q": 1.2, "p1": 0.3},
            "vakonomic": {"q": 1.2, "v": 0.3},
        },
        "channels": {"closed_form_energy": "0.5*v^2 + 1 - cos(q)"},
    }),
    "so3_rigid_body": (_SO3_RIGID_BODY, {
        "modes": ["el", "hamilton", "vakonomic"],
        "default_init": {
            "el": {"w1": 0.3, "w2": 0.4, "w3": 0.5},
            "hamilton": {"p1": 0.3, "p2": 0.8, "p3": 1.5},
            "vakonomic": {"w1": 0.3, "w2": 0.4, "w3": 0.5},
        },
        "channels": {
            "casimir": "p1^2 + p2^2 + p3^2",
            "closed_form_h": "0.5*(p1^2/I1 + p2^2/I2 + p3^2/I3)",
        },
        "bracket_samples": [
            {"F": "p1", "G": "p2", "at": {"p3": 2.0}, "value": -2.0},
        ],
    }),
    "capri_kobayashi": (_CAPRI_KOBAYASHI, {
        "modes": ["sode"],
        "default_init": {
            "sode": {"rho": 1.0, "e3": 0.2, "e0": 0.3},
        },
        "channels": {"angular_constant": "m2*e0*rho^2 + rho^2"},
        "constraint_algorithm": {
            "lagrangian": {"stabilization_level": 1, "new_rank": 2,
                           "zero_coords": ["x1", "y1"]},
            "hamiltonian": {"stabilization_level": 1, "new_rank": 2,
                            "primary_zero_momenta": ["p1", "p2"],
                            "zero_coords": ["x1", "y1"]},
        },
    }),
    "martinet": (_MARTINET, {
        "modes": ["vakonomic"],
        "default_init": {
            "vakonomic": {"x": 0.1, "e1": 0.5, "e2": 0.8, "p3": 1.0},
        },
        "channels": {"cost_energy": "0.5*(e1^2 + e2^2)"},
        "derived": martinet_pendulum_channels,
        "derived_names": ("theta", "pendulum_residual"),
    }),
    "plate_ball": (_PLATE_BALL, {
        "modes": ["vakonomic"],
        "default_init": {
            "vakonomic": {"e1": 1.0, "p5": 0.3},
        },
        "channels": {"speed_sq": "e1^2 + e2^2"},
        "derived": plate_ball_pendulum_channels,
        "derived_names": ("theta", "pendulum_residual"),
        "bracket_table": [
            {"F": "x1", "G": "p1", "value": "1"},
            {"F": "x2", "G": "p2", "value": "1"},
            {"F": "p3", "G": "p4", "value": "-p5"},
            {"F": "p3", "G": "p5", "value": "p4"},
            {"F": "p4", "G": "p5", "value": "-p3"},
        ],
    }),
    "skinner_rusk_demo": (_SKINNER_RUSK_DEMO, {
        "modes": ["el", "hamilton", "vakonomic"],
        "default_init": {
            "el": {"q1": 1.0, "q2": 0.3, "v1": 0.2, "v2": 0.5},
            "hamilton": {"q1": 1.0, "q2": 0.3, "p1": 0.2, "p2": 0.5},
            "vakonomic": {"q1": 1.0, "q2": 0.3, "v1": 0.2, "v2": 0.5},
        },
        "channels": {
            "closed_form_energy":
                "0.5*(v1^2 + v2^2) + 0.5*k*(q1^2 + q2^2)",
        },
    }),
    "lie_algebra_affine": (_LIE_ALGEBRA_AFFINE, {
        "modes": ["vakonomic"],
        "default_init": {
            "vakonomic": {"e2": 0.4, "p1": 0.2, "p2": 0.1},
        },
        "channels": {"closed_form_hw1": "0.5*e2^2 + p1"},
    }),
}


def ids() -> tuple[str, ...]:
    return tuple(sorted(_CATALOGUE))


@functools.cache
def load(preset_id: str) -> Preset:
    """Parse and return a catalogue entry; unknown ids are an error.

    Each entry is parsed once per process and the same `Preset` is returned
    after that, so its spec's and its channels' expression memos outlive
    one command; an unknown id is never kept.
    """
    try:
        dsl, facts = _CATALOGUE[preset_id]
    except KeyError:
        known = ", ".join(ids())
        raise UnknownPresetError(f"unknown preset {preset_id!r} (known: {known})") from None
    channels = {name: parse_expression(text) for name, text in facts["channels"].items()}
    return Preset(id=preset_id, dsl=dsl, facts=facts, spec=parse_system(dsl),
                  channels=channels)
