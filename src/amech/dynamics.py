"""Lagrangian and Hamiltonian dynamics on one algebroid chart.

Builds the Cartan objects (presymplectic matrix, energy, its differential),
the Legendre transform, the regular Euler-Lagrange vector field and the
Hamilton equations on the dual bundle. The induced Hamiltonian
`LegendreEnergy` holds the one Newton inverse of the Legendre map: for a
regular L on all of E*, for a singular L on its momentum image, cut out by
the `PrimaryConstraint` fields of the kernel directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebroid import AlgebroidChart, DualPoint, as_dual_observable
from .errors import SingularHessian
from .expr import Const, Expr, ScalarFunction, Var, _fd_gradient, _fold, partials
from .linalg import damped_newton, memo_last, regularity

__all__ = [
    "EPoint",
    "CartanData",
    "LagrangianDerivatives",
    "LagrangianSystem",
    "RegularityReport",
    "system_from_spec",
    "cartan",
    "energy_differential",
    "legendre",
    "legendre_inverse",
    "is_regular",
    "euler_lagrange_rhs",
    "hamilton_rhs",
    "hamiltonian_from_lagrangian",
    "LegendreEnergy",
    "PrimaryConstraint",
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


class LagrangianDerivatives(NamedTuple):
    """L at one bundle point with its first and second derivative blocks."""

    value: float
    lx: np.ndarray
    ly: np.ndarray
    hxy: np.ndarray
    w: np.ndarray
    hxx: np.ndarray

    def energy(self, y: np.ndarray) -> float:
        """E_L = y dL/dy - L at the velocity y these derivatives were taken at."""
        return float(self.ly @ y) - self.value


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
        self._energy: ScalarFunction | None = None

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

    def derivatives(self, at: EPoint) -> LagrangianDerivatives:
        """L, dL/dx, dL/dy, d2L/dx dy, d2L/dy dy and d2L/dx dx from one
        evaluation."""
        m = self.chart.m
        value, g, h = self._sf.derivatives(np.concatenate([at.x, at.y]))
        return LagrangianDerivatives(value, g[:m], g[m:], h[:m, m:], h[m:, m:], h[:m, :m])

    def energy(self, at: EPoint) -> float:
        value, g = self._sf.value_and_gradient(np.concatenate([at.x, at.y]))
        return float(g[self.chart.m:] @ at.y) - value

    def energy_derivatives(self, at: EPoint) -> tuple[float, np.ndarray, np.ndarray]:
        """E_L = y dL/dy - L with its gradient and Hessian in (x, y), exact.

        Expression systems only. The E_L tree and its code are built at the
        first call for the Lagrangian's root node, names and params, and kept
        on that node like its partial trees, so every later system of the
        same Lagrangian reuses them.
        """
        if self._energy is None:
            lagrangian = self._sf.expr
            if lagrangian is None:
                raise ValueError("energy derivatives need an expression Lagrangian")
            memo = vars(lagrangian).setdefault("_energy", {})
            key = (self._sf.names, self.chart.m, tuple(sorted(self._sf.params.items())))
            if key not in memo:
                el = Const(0.0)
                for name, partial in zip(self.chart.fiber_names,
                                         partials(lagrangian, self.chart.fiber_names)):
                    el = _fold("+", el, _fold("*", Var(name), partial))
                memo[key] = ScalarFunction(self._sf.names, expr=_fold("-", el, lagrangian),
                                           params=self.chart.params)
            self._energy = memo[key]
        return self._energy.derivatives(np.concatenate([at.x, at.y]))


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
    d = sys.derivatives(at)
    rho = chart.rho(at.x)
    cs = chart.structure(at.x)

    mx = d.hxy.T @ rho if chart.m else np.zeros((n, n))
    ul = mx - mx.T + np.einsum("c,cab->ab", d.ly, cs)
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, :n] = ul
    omega[:n, n:] = d.w
    omega[n:, :n] = -d.w.T

    return CartanData(at=at, omegaL=omega, W=d.w, EL=d.energy(at.y),
                      dEL=_energy_differential(chart, d, rho, at.y))


def energy_differential(sys: LagrangianSystem, at: EPoint) -> np.ndarray:
    """Components of dE_L in the dual frame, X-components first: cartan's dEL
    without the Cartan matrix."""
    return _energy_differential(sys.chart, sys.derivatives(at), sys.chart.rho(at.x), at.y)


def _energy_differential(chart: AlgebroidChart, d: LagrangianDerivatives,
                         rho: np.ndarray, y: np.ndarray) -> np.ndarray:
    dx_part = rho.T @ (d.hxy @ y - d.lx) if chart.m else np.zeros(chart.n)
    return np.concatenate([dx_part, d.w @ y])


def legendre(sys: LagrangianSystem, at: EPoint) -> DualPoint:
    """Legendre transform: (x, y) to (x, dL/dy)."""
    _, ly = sys.gradients(at)
    return DualPoint(x=at.x, p=ly)


def legendre_inverse(sys: LagrangianSystem, at: DualPoint) -> EPoint:
    """Velocity with dL/dy(x, y) = p, by damped Newton seeded at y = p.

    Local only; convergence failure raises rather than returning a bad point.
    """
    return EPoint(at.x, LegendreEnergy(sys)._solve_velocity(at.x, at.p)[0])


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
    return _el_force(sys, at)[:2]


def _el_force(sys: LagrangianSystem,
              at: EPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_el_force_rhs's W and b, and the anchor rho(x) it used."""
    chart = sys.chart
    d = sys.derivatives(at)
    cs = chart.structure(at.x)
    rho = chart.rho(at.x)
    drive = np.einsum("c,cab,b->a", d.ly, cs, at.y)
    if chart.m:
        drive = drive + d.hxy.T @ (rho @ at.y) - rho.T @ d.lx
    return d.w, -drive, rho


def euler_lagrange_rhs(sys: LagrangianSystem, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Lagrange vector field at a point of a regular Lagrangian.

    Returns (xdot, ydot) with xdot = rho y and ydot from the force system,
    solved by LU with partial pivoting on the raw Hessian after the
    regularity test on that same Hessian.
    """
    w, b, rho = _el_force(sys, at)
    regular, smin, _ = regularity(w)
    if not regular:
        raise SingularHessian(
            f"velocity Hessian singular (sigma_min={smin:.3e}); "
            "use the constraint algorithm")
    f = np.linalg.solve(w, b)
    xdot = rho @ at.y if sys.chart.m else np.zeros(0)
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


class PrimaryConstraint:
    """phi_A(x, p) = p_A - dL/dy_A(x, 0) for one kernel direction A.

    dL/dy along a kernel direction is velocity-independent, so its gradient
    row is (-d2L/dy_A dx at (x, 0), e_A), read from one Hessian of L.
    """

    def __init__(self, sys: LagrangianSystem, a: int):
        self.sys = sys
        self.a = a

    def __call__(self, z: np.ndarray) -> float:
        m, n = self.sys.chart.m, self.sys.chart.n
        _, ly = self.sys.gradients(EPoint(z[:m], np.zeros(n)))
        return float(z[m + self.a] - ly[self.a])

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Gradient row at z; differenced for a callable L."""
        if self.sys.source != "ad":
            return _fd_gradient(self, z)
        m, n = self.sys.chart.m, self.sys.chart.n
        hxy, _ = self.sys.second_derivatives(EPoint(z[:m], np.zeros(n)))
        row = np.zeros(m + n)
        row[:m] = -hxy[:, self.a]
        row[m + self.a] = 1.0
        return row


class LegendreEnergy:
    """The induced Hamiltonian H = E_L o FL^-1, regular or on the momentum
    image of a singular L.

    Velocities along kernel_idx, a constant coordinate-aligned kernel of the
    velocity Hessian (empty for a regular L), are pinned to zero; the
    transverse ones solve dL/dy_T = p_T by damped Newton seeded at p_T.
    Stationarity of p y - L(x, y) in y makes the gradients exact at the
    solved velocity, dH/dx = -dL/dx and dH/dp_T = y_T, so the Newton inverse
    is never differenced; the Hessian adds the implicit-function derivatives
    of y_T there, so only second derivatives of L are needed.
    """

    def __init__(self, sys: LagrangianSystem, kernel_idx: tuple[int, ...] = ()):
        self.sys = sys
        self.chart = sys.chart
        self.kernel_idx = tuple(kernel_idx)
        self.transverse_idx = tuple(a for a in range(sys.chart.n)
                                    if a not in self.kernel_idx)
        self._tr = np.array(self.transverse_idx, dtype=np.intp)
        self._tt = np.ix_(self._tr, self._tr)
        self._last: tuple = (None, None)

    def __call__(self, x: np.ndarray, p: np.ndarray) -> float:
        return self.value(DualPoint(x, p))

    def primary_constraints(self) -> tuple[PrimaryConstraint, ...]:
        """phi_A = p_A - dL/dy_A for kernel directions, as fields on (x, p)."""
        return tuple(PrimaryConstraint(self.sys, a) for a in self.kernel_idx)

    def _solve_velocity(self, x: np.ndarray,
                        p: np.ndarray) -> tuple[np.ndarray, LagrangianDerivatives]:
        """Full velocity with kernel components zero and dL/dy_T = p_T, and
        the derivatives of L there."""
        sys, tr, tt = self.sys, self._tr, self._tt
        n = sys.chart.n

        def full(yt: np.ndarray) -> np.ndarray:
            y = np.zeros(n)
            y[tr] = yt
            return y

        # residual and step read one evaluation per Newton point
        point = memo_last(lambda yt: sys.derivatives(EPoint(x, full(yt))))

        def step(yt: np.ndarray, r: np.ndarray) -> np.ndarray:
            return np.linalg.solve(point(yt).w[tt], r)

        yt = damped_newton(lambda yt: point(yt).ly[tr] - p[tr], step, p[tr],
                           "Legendre inverse")
        return full(yt), point(yt)

    def _solved(self, x: np.ndarray,
                p: np.ndarray) -> tuple[np.ndarray, LagrangianDerivatives]:
        """_solve_velocity(x, p), kept for the last (x, p) by value, so that
        a value, gradients and Hessian at one point share one Newton solve."""
        key = (x.tobytes(), p.tobytes())
        if self._last[0] != key:
            self._last = (key, self._solve_velocity(x, p))
        return self._last[1]

    def value(self, at: DualPoint) -> float:
        # E_L from the derivatives the Newton solve ends on
        y, d = self._solved(at.x, at.p)
        return d.energy(y)

    def gradients(self, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
        # the kernel components of the solved velocity are zero
        y, d = self._solved(at.x, at.p)
        return -d.lx, y.copy()

    def hessian(self, at: DualPoint) -> np.ndarray:
        """Second derivatives of H in (x, p).

        At the solved velocity dy_T = W_TT^-1 (dp_T - L_{y_T x} dx) and
        d(dH/dx) = -L_xx dx - L_{x y_T} dy_T; kernel rows vanish.
        """
        _, d = self._solved(at.x, at.p)
        m, tr = self.chart.m, self._tr
        lxt = d.hxy[:, tr]
        # rows of dy_T / d(x, p_T)
        dyt = np.linalg.solve(d.w[self._tt], np.hstack([-lxt.T, np.eye(tr.size)]))
        h = np.zeros((m + self.chart.n,) * 2)
        h[:m, :m] = -d.hxx - lxt @ dyt[:, :m]
        h[:m, m + tr] = -lxt @ dyt[:, m:]
        h[m + tr, :m] = dyt[:, :m]
        h[np.ix_(m + tr, m + tr)] = dyt[:, m:]
        return h


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
