"""Constrained-variational dynamics on an algebroid chart.

The constraint submanifold is given as a graph over the free velocities,
y^alpha = Psi^alpha(x, y^a). State is (x, y^a, p_alpha); dependent momenta
are recomputed from the primary constraint at every evaluation, never
integrated. The bracket on the constrained phase space coincides with the
linear Poisson bracket of the dual bundle and is exported as an alias of it,
and the dynamics section reads the spec's generated Hamilton field. Every
field at a state is one call of `dynamics`' mechanics point of the spec,
the restricted Lagrangian and Psi; with no constrained index it is the
Euler-Lagrange point itself. The restricted Lagrangian and the point are
`expr.kept` entries of the spec, built once for every system of its trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebroid import (AlgebroidChart, DualPoint, chart_from_spec, hamilton_field,
                        lie_poisson_bracket)
from .dsl import SystemSpec
from .dynamics import _mechanics_point, _multiplier_names, _solved
from .errors import MuSolveFailed, SingularR
from .expr import Expr, kept, substitute, variables_of
from .linalg import damped_newton, rank_rtol, regular_solution, regularity

__all__ = [
    "VakState",
    "VakonomicSystem",
    "RegularityMatrixReport",
    "vakonomic_from_spec",
    "pontryagin_H",
    "w1_constraints",
    "regularity_matrix",
    "vakonomic_rhs",
    "vakonomic_bracket",
    "hamiltonian_section",
    "mu_solve",
    "momenta",
    "h_w1",
    "euler_poincare_residual",
]


@dataclass(frozen=True)
class VakState:
    """Vakonomic phase point: base coords, free velocities, multipliers."""

    x: np.ndarray
    ya: np.ndarray
    palpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "ya", np.asarray(self.ya, dtype=float))
        object.__setattr__(self, "palpha", np.asarray(self.palpha, dtype=float))
        for arr in (self.x, self.ya, self.palpha):
            if not np.all(np.isfinite(arr)):
                raise ValueError("vakonomic state has non-finite entries")


class VakonomicSystem:
    """Chart, index split and constraint graph of one vakonomic problem.

    constrained lists the fiber indices alpha whose velocities are determined
    by Psi; the rest are free. The restricted Lagrangian is a function of the
    base coordinates and the free velocities only; it and Psi are kept as
    trees, anything else raises TypeError. The point code is assembled from
    them and the anchor and bracket trees of the chart's spec. The rank
    tolerance is resolved from AMECH_TOL once, here.
    """

    def __init__(self, chart: AlgebroidChart, constrained: Sequence[int],
                 psi: Sequence[Expr], restricted_lagrangian: Expr):
        self.chart = chart
        self.constrained = tuple(int(a) for a in constrained)
        if len(set(self.constrained)) != len(self.constrained):
            raise ValueError("repeated constrained index")
        for a in self.constrained:
            if not 0 <= a < chart.n:
                raise ValueError(f"constrained index {a} out of range")
        if len(psi) != len(self.constrained):
            raise ValueError("one constraint expression per constrained index")
        self.free = tuple(a for a in range(chart.n) if a not in self.constrained)
        self.free_names = tuple(chart.fiber_names[a] for a in self.free)
        self._lt, self._psi = restricted_lagrangian, tuple(psi)
        for tree in (self._lt, *self._psi):
            if not isinstance(tree, Expr):
                raise TypeError(f"a model function must be an expression tree, "
                                f"got {type(tree).__name__}")
        self._point = _mechanics_point(chart.spec, self.constrained, (self._lt, *self._psi))
        self._free_idx = np.array(self.free, dtype=np.intp)
        self._con_idx = np.array(self.constrained, dtype=np.intp)
        self.rank_rtol = rank_rtol()
        # the regularity verdict of a constant R, decided at its first solve
        self._verdict: tuple[bool, float] | None = None

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def n_constrained(self) -> int:
        return len(self.constrained)

    @property
    def state_labels(self) -> tuple[str, ...]:
        return self.chart.base_names + self.free_names + _multiplier_names(self.constrained)

    def pack(self, s: VakState) -> np.ndarray:
        return np.concatenate([s.x, s.ya, s.palpha])

    def unpack(self, vec: np.ndarray) -> VakState:
        m, nf = self.chart.m, self.n_free
        return VakState(x=vec[:m], ya=vec[m:m + nf], palpha=vec[m + nf:])

    def ode_rhs(self, t: float, vec: np.ndarray) -> np.ndarray:
        del t
        return np.concatenate(vakonomic_rhs(self, vec))


def vakonomic_from_spec(spec: SystemSpec) -> VakonomicSystem:
    """Vakonomic system of a parsed document; no block means the whole bundle.

    The restricted Lagrangian is substituted once per spec and kept on it, so
    every later system of the spec finds its partial trees and code.
    """
    chart = chart_from_spec(spec)
    if spec.vakonomic is None:
        constrained: tuple[int, ...] = ()
        psi_exprs: tuple[Expr, ...] = ()
    else:
        constrained = spec.vakonomic.constrained
        psi_exprs = spec.vakonomic.psi
    mapping = {spec.fiber[a]: e for a, e in zip(constrained, psi_exprs)}
    lt = kept(spec, "restricted_lagrangian",
              lambda: substitute(spec.lagrangian, mapping) if mapping else spec.lagrangian)
    return VakonomicSystem(chart, constrained, psi_exprs, lt)


class _PointData:
    """Every field of the system at one point, from one generated call.

    parts is the packed state (x, ya, palpha), or those three pieces. The
    arrays are the call's own, read-only: the full velocity y_full and
    momentum p_full, lam = dLtilde/dx - p.dPsi/dx, the regularity matrix R
    and right-hand side rhs of the free-velocity equation R yadot = rhs,
    yadot from the point's own solve when R is a constant (else empty),
    xdot, the multiplier drive pdot, and the floats lt_value and h_w1.
    """

    def __init__(self, sys: VakonomicSystem, *parts: np.ndarray):
        (self.lt_value, self.y_full, self.p_full, self.lam, self.R, self.rhs,
         self.yadot, self.xdot, self.pdot, self.h_w1, *_) = sys._point(
            parts[0] if len(parts) == 1 else np.concatenate(parts))


def _point_data(sys: VakonomicSystem, s) -> _PointData:
    """_PointData at s, a VakState or the packed state vector."""
    if isinstance(s, np.ndarray):
        return _PointData(sys, s)
    return _PointData(sys, s.x, s.ya, s.palpha)


def pontryagin_H(sys: VakonomicSystem, x: np.ndarray, p: np.ndarray,
                 ya: np.ndarray) -> float:
    """Pontryagin Hamiltonian on the product bundle, full momentum covector."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    ya = np.asarray(ya, dtype=float)
    con = sys._con_idx
    d = _PointData(sys, x, ya, p[con])
    free_part = float(p[sys._free_idx] @ ya) if sys.n_free else 0.0
    con_part = float(p[con] @ d.y_full[con]) if sys.n_constrained else 0.0
    return free_part + con_part - d.lt_value


def w1_constraints(sys: VakonomicSystem, x: np.ndarray, p: np.ndarray,
                   ya: np.ndarray) -> np.ndarray:
    """phi_a = p_a + p_alpha dPsi/dy^a - dLtilde/dy^a; zero on W_1."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    ya = np.asarray(ya, dtype=float)
    free = sys._free_idx
    return p[free] - _PointData(sys, x, ya, p[sys._con_idx]).p_full[free]


@dataclass(frozen=True)
class RegularityMatrixReport:
    R: np.ndarray
    det: float
    min_singular_value: float
    regular: bool


def regularity_matrix(sys: VakonomicSystem, x: np.ndarray, ya: np.ndarray,
                      palpha: np.ndarray) -> RegularityMatrixReport:
    """The matrix whose invertibility makes the constrained dynamics explicit.

    An empty R (no free velocities) leaves nothing to solve, so it is regular.
    """
    r = _PointData(sys, np.asarray(x, dtype=float), np.asarray(ya, dtype=float),
                   np.asarray(palpha, dtype=float)).R.copy()
    regular, smin, _ = regularity(r, sys.rank_rtol)
    return RegularityMatrixReport(R=r, det=float(np.linalg.det(r)) if r.size else 1.0,
                                  min_singular_value=smin,
                                  regular=bool(r.size == 0 or regular))


def momenta(sys: VakonomicSystem, s: VakState) -> np.ndarray:
    """Full momentum covector, dependent components from the constraint."""
    return _point_data(sys, s).p_full.copy()


def h_w1(sys: VakonomicSystem, s: VakState) -> float:
    """Hamiltonian on the primary constraint set, evaluated at a state: a
    VakState or the packed state vector; read from the point's floats."""
    return sys._point.values(s if isinstance(s, np.ndarray) else sys.pack(s))[9]


def vakonomic_rhs(sys: VakonomicSystem, s: VakState,
                  flat: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray] | list:
    """Explicit constrained-variational equations at one state.

    Returns (xdot, yadot, palphadot), the first and last read-only. The
    free-velocity equation comes from expanding the momentum equation for
    p_a by the chain rule and solving against the symmetric regularity
    matrix, as `dynamics._solved` gives it with its verdict. s is a
    VakState, or the packed state vector. With flat, s is the packed state
    and the field a right-hand side: one list, read from the point's floats.
    """
    if flat:
        _, _, _, _, r, rhs, yadot, xdot, pdot, *_ = sys._point.values(s)
    else:
        d = _point_data(sys, s)
        r, rhs, yadot, xdot, pdot = d.R, d.rhs, d.yadot, d.xdot, d.pdot
    if sys.n_free:
        regular, smin, yadot = _solved(sys, r, rhs, yadot)
        if not regular:
            raise SingularR(f"regularity matrix singular (sigma_min={smin:.3e}); "
                            "use the constraint algorithm")
    return [*xdot, *yadot, *pdot] if flat else (xdot, yadot, pdot)


vakonomic_bracket = lie_poisson_bracket


def mu_solve(sys: VakonomicSystem, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Free velocities solving the primary constraint at fixed (x, p), by
    damped Newton seeded at zero.

    The residual p_full - p over the free directions has the Jacobian R, so
    each step solves against the R its point data holds.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    palpha, free = p[sys._con_idx], sys._free_idx

    def residual(ya: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = _PointData(sys, x, ya, palpha)
        return d.p_full[free] - p[free], d.R

    return damped_newton(residual, lambda jac, r: regular_solution(jac, r, sys.rank_rtol),
                         np.zeros(sys.n_free), "velocity solve", error=MuSolveFailed)[0]


def hamiltonian_section(sys: VakonomicSystem,
                        at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
    """Components (u, w) of the dynamics section on the constrained phase space.

    u_A are the dual-fiber drives dH/dp_A and w_A the momentum drives; the
    Hamiltonian gradients reduce to partial derivatives at the solved free
    velocity, so no implicit differentiation is needed.
    """
    # the generated point code keeps its result at the solved velocity
    d = _PointData(sys, at.x, mu_solve(sys, at.x, at.p), at.p[sys._con_idx])
    # w is the Hamilton field's pdot with dH/dx = -lam and dH/dp = u
    field = hamilton_field(sys.chart.spec)(np.concatenate([at.x, at.p, -d.lam, d.y_full]))
    return d.y_full.copy(), field[sys.chart.m:].copy()


def euler_poincare_residual(sys: VakonomicSystem, times: np.ndarray,
                            ya_series: np.ndarray,
                            palpha_series: np.ndarray) -> float:
    """Largest violation of the reduced variational equations on a trajectory.

    Needs a base-free chart and a constant constraint block. The momentum
    covector combines the free-velocity gradient of the restricted Lagrangian
    with the multipliers; its time derivative is compared with the coadjoint
    drive by centered differences on the given grid.
    """
    if sys.chart.m != 0:
        raise ValueError("reduced-equation residual needs a base-free chart")
    if any(variables_of(f) - set(sys.chart.params) for f in sys._psi):
        raise ValueError("constraint block must be constant")
    times = np.asarray(times, dtype=float)
    ya_series = np.atleast_2d(np.asarray(ya_series, dtype=float))
    palpha_series = np.atleast_2d(np.asarray(palpha_series, dtype=float))
    k = times.size
    if k < 3:
        raise ValueError("need at least three samples for the difference stencil")

    n = sys.chart.n
    cs = sys.chart.structure(np.zeros(0))
    gammas = np.zeros((k, n))
    sigmas = np.zeros((k, n))
    for i in range(k):
        # with a constant Psi, dLtilde/dy^a is p_a itself
        d = _PointData(sys, np.zeros(0), ya_series[i], palpha_series[i])
        gammas[i] = d.p_full
        sigmas[i] = d.y_full

    worst = 0.0
    for i in range(1, k - 1):
        dgamma = (gammas[i + 1] - gammas[i - 1]) / (times[i + 1] - times[i - 1])
        coad = np.einsum("cab,a,c->b", cs, sigmas[i], gammas[i])
        worst = max(worst, float(np.max(np.abs(dgamma - coad))))
    return worst
