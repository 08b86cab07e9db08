"""Lagrangian and Hamiltonian dynamics on one algebroid chart.

Builds the Cartan objects (presymplectic matrix, energy, its differential),
the Legendre transform and its local Newton inverse, the regular
Euler-Lagrange vector field and the Hamilton equations on the dual bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebroid import AlgebroidChart, DualObservable, DualPoint, as_dual_observable
from .errors import SingularHessian
from .expr import Expr, ScalarFunction
from .linalg import damped_newton, regularity

__all__ = [
    "EPoint",
    "CartanData",
    "LagrangianSystem",
    "RegularityReport",
    "system_from_spec",
    "cartan",
    "legendre",
    "legendre_inverse",
    "is_regular",
    "euler_lagrange_rhs",
    "hamilton_rhs",
    "hamiltonian_from_lagrangian",
    "LegendreEnergy",
    "sode_defect",
]


@dataclass(frozen=True)
class EPoint:
    """Point of the bundle E: base coordinates and fiber velocities."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("bundle point has non-finite entries")


class LagrangianSystem:
    """A chart together with a Lagrangian on its (x, y) coordinates.

    The Lagrangian is an expression in the base and fiber coordinate names,
    or a callable of (x, y). Expression systems differentiate exactly.
    """

    def __init__(self, chart: AlgebroidChart,
                 lagrangian: "Expr | Callable[[np.ndarray, np.ndarray], float]"):
        self.chart = chart
        names = chart.base_names + chart.fiber_names
        if isinstance(lagrangian, Expr):
            self._sf = ScalarFunction(names, expr=lagrangian, params=chart.params)
        else:
            m = chart.m

            def packed(v: np.ndarray) -> float:
                return float(lagrangian(v[:m], v[m:]))

            self._sf = ScalarFunction(names, fn=packed)
        self.source = self._sf.source

    def value(self, at: EPoint) -> float:
        return self._sf.value(np.concatenate([at.x, at.y]))

    def gradients(self, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
        """(dL/dx, dL/dy) at the point."""
        g = self._sf.gradient(np.concatenate([at.x, at.y]))
        return g[:self.chart.m], g[self.chart.m:]

    def second_derivatives(self, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
        """(d2L/dx dy with shape (m, n), d2L/dy dy with shape (n, n))."""
        m = self.chart.m
        h = self._sf.hessian(np.concatenate([at.x, at.y]))
        return h[:m, m:], h[m:, m:]

    def energy(self, at: EPoint) -> float:
        _, ly = self.gradients(at)
        return float(ly @ at.y) - self.value(at)


def system_from_spec(spec) -> LagrangianSystem:
    from .algebroid import chart_from_spec

    return LagrangianSystem(chart_from_spec(spec), spec.lagrangian)


@dataclass(frozen=True)
class CartanData:
    """Cartan 2-section matrix, velocity Hessian, energy and its differential.

    omegaL is expressed in the frame {X_A, V_A}; dEL holds the components of
    the energy differential in the dual frame, X-components first.
    """

    at: EPoint
    omegaL: np.ndarray
    W: np.ndarray
    EL: float
    dEL: np.ndarray


def cartan(sys: LagrangianSystem, at: EPoint) -> CartanData:
    """Cartan objects of the Lagrangian at one bundle point."""
    chart = sys.chart
    n = chart.n
    lx, ly = sys.gradients(at)
    hxy, w = sys.second_derivatives(at)
    rho = chart.rho(at.x)
    cs = chart.structure(at.x)

    mx = hxy.T @ rho if chart.m else np.zeros((n, n))
    ul = mx - mx.T + np.einsum("c,cab->ab", ly, cs)
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, :n] = ul
    omega[:n, n:] = w
    omega[n:, :n] = -w.T

    el = float(ly @ at.y) - sys.value(at)
    dx_part = rho.T @ (hxy @ at.y - lx) if chart.m else np.zeros(n)
    del_ = np.concatenate([dx_part, w @ at.y])
    return CartanData(at=at, omegaL=omega, W=w, EL=el, dEL=del_)


def legendre(sys: LagrangianSystem, at: EPoint) -> DualPoint:
    """Legendre transform: (x, y) to (x, dL/dy)."""
    _, ly = sys.gradients(at)
    return DualPoint(x=at.x, p=ly)


def legendre_inverse(sys: LagrangianSystem, at: DualPoint,
                     seed: np.ndarray | None = None,
                     tol: float = 1e-12, max_iter: int = 50) -> EPoint:
    """Velocity with dL/dy(x, y) = p, by damped Newton seeded at y = p.

    Local only; convergence failure raises rather than returning a bad point.
    """
    def residual(y: np.ndarray) -> np.ndarray:
        _, ly = sys.gradients(EPoint(at.x, y))
        return ly - at.p

    def step(y: np.ndarray, r: np.ndarray) -> np.ndarray:
        _, w = sys.second_derivatives(EPoint(at.x, y))
        return np.linalg.solve(w, r)

    y = damped_newton(residual, step, at.p if seed is None else seed,
                      "Legendre inverse", tol=tol, max_iter=max_iter)
    return EPoint(at.x, y)


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    min_singular_value: float
    max_singular_value: float


def is_regular(sys: LagrangianSystem, at: EPoint) -> RegularityReport:
    """Regularity of the velocity Hessian by relative SVD threshold."""
    _, w = sys.second_derivatives(at)
    return RegularityReport(*regularity(w))


def _el_force_rhs(sys: LagrangianSystem, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
    """(W, right-hand side b) of the Euler-Lagrange force system W f = b."""
    chart = sys.chart
    lx, ly = sys.gradients(at)
    hxy, w = sys.second_derivatives(at)
    cs = chart.structure(at.x)
    rho = chart.rho(at.x)
    drive = np.einsum("c,cab,b->a", ly, cs, at.y)
    if chart.m:
        drive = drive + hxy.T @ (rho @ at.y) - rho.T @ lx
    return w, -drive


def euler_lagrange_rhs(sys: LagrangianSystem, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Lagrange vector field at a point of a regular Lagrangian.

    Returns (xdot, ydot) with xdot = rho y and ydot from the force system,
    solved by LU with partial pivoting on the raw Hessian after the
    regularity test on that same Hessian.
    """
    w, b = _el_force_rhs(sys, at)
    regular, smin, _ = regularity(w)
    if not regular:
        raise SingularHessian(
            f"velocity Hessian singular (sigma_min={smin:.3e}); "
            "use the constraint algorithm")
    f = np.linalg.solve(w, b)
    xdot = sys.chart.rho(at.x) @ at.y if sys.chart.m else np.zeros(0)
    return xdot, f


def hamilton_rhs(chart: AlgebroidChart, H, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton equations on the dual bundle.

    xdot_i = rho[i,A] dH/dp_A; pdot_A = -(rho[i,A] dH/dx_i + C[c,A,B] p_c dH/dp_B).
    """
    Ho = as_dual_observable(chart, H)
    hx, hp = Ho.gradients(at)
    rho = chart.rho(at.x)
    cs = chart.structure(at.x)
    cp = np.einsum("cab,c->ab", cs, at.p)
    xdot = rho @ hp if chart.m else np.zeros(0)
    pdot = -(cp @ hp)
    if chart.m:
        pdot = pdot - rho.T @ hx
    return xdot, pdot


class LegendreEnergy(DualObservable):
    """Energy through the inverse Legendre transform, with exact gradients.

    Stationarity of p y - L(x, y) in y makes the p-gradient the recovered
    velocity and the x-gradient -dL/dx at that velocity, so no finite
    differencing of the Newton inverse is ever needed.
    """

    def __init__(self, sys: LagrangianSystem):
        self.chart = sys.chart
        self.sys = sys
        self.source = "envelope"

    def __call__(self, x: np.ndarray, p: np.ndarray) -> float:
        return self.value(DualPoint(x, p))

    def value(self, at: DualPoint) -> float:
        return self.sys.energy(legendre_inverse(self.sys, at))

    def gradients(self, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
        y = legendre_inverse(self.sys, at).y
        lx, _ = self.sys.gradients(EPoint(at.x, y))
        return -lx, y


def hamiltonian_from_lagrangian(sys: LagrangianSystem) -> LegendreEnergy:
    """Energy pushed through the inverse Legendre transform, H(x, p).

    Valid where the Newton inverse converges (hyperregular Lagrangians).
    The result is callable as H(x, p) and carries exact gradients for the
    Hamilton equations.
    """
    return LegendreEnergy(sys)


def sode_defect(at: EPoint, section_value: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """X-components minus velocities; zero exactly when the section is a SODE."""
    X, _ = section_value
    return np.asarray(X, dtype=float) - at.y
