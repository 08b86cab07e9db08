"""Constrained-variational dynamics on an algebroid chart.

The constraint submanifold is given as a graph over the free velocities,
y^alpha = Psi^alpha(x, y^a). State is (x, y^a, p_alpha); dependent momenta
are recomputed from the primary constraint at every evaluation, never
integrated. The bracket on the constrained phase space coincides with the
linear Poisson bracket of the dual bundle and is exported as an alias of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .algebroid import AlgebroidChart, DualPoint, chart_from_spec, lie_poisson_bracket
from .dsl import SystemSpec
from .errors import MuSolveFailed, SingularR
from .expr import Expr, ScalarFunction, _jet_layout, lazy_generated, substitute, variables_of
from .linalg import damped_newton, memo_last, regular_solve, regularity

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
    base coordinates and the free velocities only.
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
        names = chart.base_names + self.free_names
        self._lt = ScalarFunction(names, expr=restricted_lagrangian, params=chart.params)
        self._psi = tuple(ScalarFunction(names, expr=f, params=chart.params) for f in psi)
        self._point = _point_function(self._lt, self._psi)
        self._free_idx = np.array(self.free, dtype=np.intp)
        self._con_idx = np.array(self.constrained, dtype=np.intp)
        # fiber order of the free entries followed by the constrained ones
        self._order = np.argsort(self.free + self.constrained)

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def n_constrained(self) -> int:
        return len(self.constrained)

    @property
    def state_labels(self) -> tuple[str, ...]:
        p_labels = tuple(f"p{a + 1}" for a in self.constrained)
        return self.chart.base_names + self.free_names + p_labels

    def pack(self, s: VakState) -> np.ndarray:
        return np.concatenate([s.x, s.ya, s.palpha])

    def unpack(self, vec: np.ndarray) -> VakState:
        m, nf = self.chart.m, self.n_free
        return VakState(x=vec[:m], ya=vec[m:m + nf], palpha=vec[m + nf:])

    def slices(self, vec: np.ndarray) -> SimpleNamespace:
        """unpack's (x, ya, palpha) as plain slices, unchecked: for states
        that integrate has already rejected when non-finite."""
        m, nf = self.chart.m, self.n_free
        return SimpleNamespace(x=vec[:m], ya=vec[m:m + nf], palpha=vec[m + nf:])

    def ode_rhs(self, t: float, vec: np.ndarray) -> np.ndarray:
        del t
        xdot, yadot, pdot = vakonomic_rhs(self, self.slices(vec))
        return np.concatenate([xdot, yadot, pdot])


def _point_function(lt: ScalarFunction,
                    psi: tuple[ScalarFunction, ...]) -> Callable[[np.ndarray], tuple]:
    """v -> Ltilde's value, gradient and Hessian, then every Psi's stacked.

    One generated call, kept on Ltilde's root node for these names, params
    and Psi trees.
    """
    trees = tuple(f.expr for f in psi)
    memo = vars(lt.expr).setdefault("_point", {})
    # the entry's layout holds the Psi trees, so their ids stay theirs
    key = (lt.names, tuple(sorted(lt.params.items())), tuple(map(id, trees)))
    if key not in memo:
        memo[key] = lazy_generated(lt.names, lt.params,
                                   functools.partial(_point_layout, lt.expr, trees, lt.names))
    return memo[key]


def _point_layout(lt: Expr, psi: tuple[Expr, ...], names: tuple) -> tuple:
    """Ltilde's jet groups, then the Psi values, gradients and Hessians."""
    nc, nv = len(psi), len(names)
    jets = [_jet_layout(f, names, 2)[0] for f in psi]
    return _jet_layout(lt, names, 2)[0] + [
        ([tree for jet in jets for tree in jet[k][0]], shape, k)
        for k, shape in enumerate([(nc,), (nc, nv), (nc, nv, nv)])], ()


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
    lt = vars(spec).get("_restricted_lagrangian")
    if lt is None:
        mapping = {spec.fiber[a]: e for a, e in zip(constrained, psi_exprs)}
        lt = vars(spec)["_restricted_lagrangian"] = \
            substitute(spec.lagrangian, mapping) if mapping else spec.lagrangian
    return VakonomicSystem(chart, constrained, psi_exprs, lt)


class _PointData:
    """All derivatives of the system at one (x, ya, palpha) point."""

    def __init__(self, sys: VakonomicSystem, x: np.ndarray, ya: np.ndarray,
                 palpha: np.ndarray):
        m = sys.chart.m
        (self.lt_value, g, h, self.psi_value, psi_g,
         psi_h) = sys._point(np.concatenate([x, ya]))
        self.ltx, self.lty = g[:m], g[m:]
        self.ltxy, self.ltyy = h[:m, m:], h[m:, m:]
        self.psix, self.psiy = psi_g[:, :m], psi_g[:, m:]
        self.psixy, self.psiyy = psi_h[:, :m, m:], psi_h[:, m:, m:]

        self.y_full = np.concatenate([ya, self.psi_value])[sys._order]
        self.p_full = np.concatenate([self.lty - palpha @ self.psiy, palpha])[sys._order]

        # lam_i = d(Ltilde)/dx_i - p_beta dPsi^beta/dx_i drives every momentum
        # equation through the anchor.
        self.lam = self.ltx - palpha @ self.psix if m else np.zeros(0)
        self.R = self.ltyy - np.einsum("b,bij->ij", palpha, self.psiyy) \
            if sys.n_constrained else self.ltyy


def pontryagin_H(sys: VakonomicSystem, x: np.ndarray, p: np.ndarray,
                 ya: np.ndarray) -> float:
    """Pontryagin Hamiltonian on the product bundle, full momentum covector."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    ya = np.asarray(ya, dtype=float)
    return _pontryagin(sys, _PointData(sys, x, ya, p[sys._con_idx]), p, ya)


def _pontryagin(sys: VakonomicSystem, d: _PointData, p: np.ndarray,
                ya: np.ndarray) -> float:
    free_part = float(p[sys._free_idx] @ ya) if sys.n_free else 0.0
    con_part = float(p[sys._con_idx] @ d.psi_value) if sys.n_constrained else 0.0
    return free_part + con_part - d.lt_value


def w1_constraints(sys: VakonomicSystem, x: np.ndarray, p: np.ndarray,
                   ya: np.ndarray) -> np.ndarray:
    """phi_a = p_a + p_alpha dPsi/dy^a - dLtilde/dy^a; zero on W_1."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    ya = np.asarray(ya, dtype=float)
    palpha = p[sys._con_idx]
    return _w1_residual(sys, _PointData(sys, x, ya, palpha), p, palpha)


def _w1_residual(sys: VakonomicSystem, d: _PointData, p: np.ndarray,
                 palpha: np.ndarray) -> np.ndarray:
    return p[sys._free_idx] + palpha @ d.psiy - d.lty


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
                   np.asarray(palpha, dtype=float)).R
    regular, smin, _ = regularity(r)
    return RegularityMatrixReport(R=r, det=float(np.linalg.det(r)) if r.size else 1.0,
                                  min_singular_value=smin,
                                  regular=bool(r.size == 0 or regular))


def momenta(sys: VakonomicSystem, s: VakState) -> np.ndarray:
    """Full momentum covector, dependent components from the constraint."""
    return _PointData(sys, s.x, s.ya, s.palpha).p_full


def h_w1(sys: VakonomicSystem, s: VakState) -> float:
    """Hamiltonian on the primary constraint set, evaluated at a state."""
    d = _PointData(sys, s.x, s.ya, s.palpha)
    return _pontryagin(sys, d, d.p_full, s.ya)


def vakonomic_rhs(sys: VakonomicSystem,
                  s: VakState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit constrained-variational equations at one state.

    Returns (xdot, yadot, palphadot). The free-velocity equation comes from
    expanding the momentum equation for p_a by the chain rule and solving
    against the symmetric regularity matrix, from the one eigendecomposition
    that also gives its verdict. s is a VakState, or any (x, ya, palpha) of
    float arrays.
    """
    chart = sys.chart
    d = _PointData(sys, s.x, s.ya, s.palpha)
    rho = chart.rho(s.x)
    cs = chart.structure(s.x)

    xdot = rho @ d.y_full if chart.m else np.zeros(0)
    cterm = np.einsum("bad,d,b->a", cs, d.y_full, d.p_full)

    con, free = sys._con_idx, sys._free_idx
    pdot = (d.lam @ rho[:, con] if chart.m else 0.0) - cterm[con]

    if not free.size:
        return xdot, np.zeros(0), pdot
    rhs = -cterm[free]
    if chart.m:
        rhs = rhs + d.lam @ rho[:, free]
        mixed = d.ltxy - np.einsum("b,bia->ia", s.palpha, d.psixy) \
            if con.size else d.ltxy
        rhs = rhs - xdot @ mixed
    if con.size:
        rhs = rhs + pdot @ d.psiy
    regular, smin, _, yadot = regular_solve(d.R, rhs)
    if not regular:
        raise SingularR(f"regularity matrix singular (sigma_min={smin:.3e}); "
                        "use the constraint algorithm")
    return xdot, yadot, pdot


vakonomic_bracket = lie_poisson_bracket


def mu_solve(sys: VakonomicSystem, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Free velocities solving the primary constraint at fixed (x, p), by
    damped Newton seeded at zero."""
    return _mu_solve_point(sys, x, p)[0]


def _mu_solve_point(sys: VakonomicSystem, x: np.ndarray,
                    p: np.ndarray) -> tuple[np.ndarray, _PointData]:
    """mu_solve's velocities and the point data built at them."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    palpha = p[sys._con_idx]
    # the step, and the caller, reuse the derivatives the residual built
    point = memo_last(lambda y: _PointData(sys, x, y, palpha))

    def phi(y: np.ndarray) -> np.ndarray:
        return _w1_residual(sys, point(y), p, palpha)

    def step(y: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.linalg.solve(-point(y).R, r)

    ya = damped_newton(phi, step, np.zeros(sys.n_free), "velocity solve",
                       error=MuSolveFailed)
    return ya, point(ya)


def hamiltonian_section(sys: VakonomicSystem,
                        at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
    """Components (u, w) of the dynamics section on the constrained phase space.

    u_A are the dual-fiber drives dH/dp_A and w_A the momentum drives; the
    Hamiltonian gradients reduce to partial derivatives at the solved free
    velocity, so no implicit differentiation is needed.
    """
    chart = sys.chart
    _, d = _mu_solve_point(sys, at.x, at.p)
    u = d.y_full.copy()
    cs = chart.structure(at.x)
    cp = np.einsum("cab,c->ab", cs, at.p)
    w = -(cp @ u)
    if chart.m:
        w = w + chart.rho(at.x).T @ d.lam
    return u, w


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
    if any(variables_of(f.expr) - set(sys.chart.params) for f in sys._psi):
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
        d = _PointData(sys, np.zeros(0), ya_series[i], palpha_series[i])
        gammas[i] = np.concatenate([d.lty, palpha_series[i]])[sys._order]
        sigmas[i] = d.y_full

    worst = 0.0
    for i in range(1, k - 1):
        dgamma = (gammas[i + 1] - gammas[i - 1]) / (times[i + 1] - times[i - 1])
        coad = np.einsum("cab,a,c->b", cs, sigmas[i], gammas[i])
        worst = max(worst, float(np.max(np.abs(dgamma - coad))))
    return worst
