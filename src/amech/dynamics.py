"""Lagrangian and Hamiltonian dynamics on one algebroid chart.

Builds the Cartan objects (presymplectic matrix, energy, its differential),
the Legendre transform, the regular Euler-Lagrange vector field and the
Hamilton equations on the dual bundle. The induced Hamiltonian
`LegendreEnergy` holds the one Newton inverse of the Legendre map: for a
regular L on all of E*, for a singular L on its momentum image, cut out by
the `PrimaryConstraint` fields of the kernel directions. The Lagrangian is
an expression tree, so every derivative here is exact, the energy's and the
primary constraints' included; nothing in this module is differenced.
The generated point function of a spec and Lagrangian, and the E_L
function of a Lagrangian, are `expr.kept` entries of the spec and of L's
root node, so every later system of the same trees reuses them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebroid import (AlgebroidChart, DualPoint, _tensor_slots, _tensor_trees,
                        as_dual_observable, hamilton_field)
from .errors import SingularHessian
from .expr import (Expr, ScalarFunction, Var, _ZERO, _dot, _fold, _jet_layout,
                   keep_last, kept, lazy_generated, partials)
from .linalg import damped_newton, rank_rtol, regular_solve, regularity

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
    """L at one bundle point with its derivative blocks, its energy
    E_L = y dL/dy - L and the Euler-Lagrange force system W f = b, W being
    the velocity Hessian w; rho_y is rho(x) y, the base velocity."""

    value: float
    lx: np.ndarray
    ly: np.ndarray
    hxy: np.ndarray
    w: np.ndarray
    hxx: np.ndarray
    energy: float
    b: np.ndarray
    rho_y: np.ndarray


class LagrangianSystem:
    """A chart together with a Lagrangian on its (x, y) coordinates.

    The Lagrangian is an expression in the base and fiber coordinate names,
    differentiated exactly. Every field at a point is one generated call,
    assembled from L's partial trees and the anchor and bracket trees of the
    chart's spec. The rank tolerance is resolved
    from AMECH_TOL once, here. A point is an EPoint, any (x, y) of float
    arrays, or the packed vector (x, y).
    """

    def __init__(self, chart: AlgebroidChart, lagrangian: Expr):
        self.chart = chart
        self.rank_rtol = rank_rtol()
        self._sf = ScalarFunction(chart.base_names + chart.fiber_names,
                                  expr=lagrangian, params=chart.params)
        self._point = _point_function(chart.spec, lagrangian)
        self._energy: ScalarFunction | None = None

    def value(self, at: EPoint) -> float:
        return self.derivatives(at).value

    def gradients(self, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
        """(dL/dx, dL/dy) at the point."""
        d = self.derivatives(at)
        return d.lx, d.ly

    def second_derivatives(self, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
        """(d2L/dx dy with shape (m, n), d2L/dy dy with shape (n, n))."""
        d = self.derivatives(at)
        return d.hxy, d.w

    def derivatives(self, at: EPoint) -> LagrangianDerivatives:
        """Every field at the point, from one call of the generated code; the
        arrays are the call's own, read-only."""
        return LagrangianDerivatives._make(self._point(
            at if isinstance(at, np.ndarray) else np.concatenate([at.x, at.y])))

    def energy(self, at: EPoint) -> float:
        """E_L = y dL/dy - L, its sum taken left to right."""
        return self.derivatives(at).energy

    def energy_derivatives(self, at: EPoint) -> tuple[float, np.ndarray, np.ndarray]:
        """E_L = y dL/dy - L with its gradient and Hessian in (x, y), exact.

        The E_L tree and its code are built at the first call for the
        Lagrangian's root node, names and params, and kept on that node like
        its partial trees, so every later system of the same Lagrangian
        reuses them.
        """
        if self._energy is None:
            lagrangian, names, m = self._sf.expr, self._sf.names, self.chart.m
            self._energy = kept(
                lagrangian, ("energy", names, m, tuple(sorted(self._sf.params.items()))),
                lambda: ScalarFunction(names, params=self.chart.params,
                                       expr=_energy_tree(lagrangian, names, m)))
        return self._energy.derivatives(np.concatenate([at.x, at.y]))


def _energy_tree(lagrangian: Expr, names: tuple[str, ...], m: int) -> Expr:
    """E_L = y dL/dy - L over names, the velocities after the first m, its
    sum taken left to right."""
    return _fold("-", _dot(zip(map(Var, names[m:]), partials(lagrangian, names)[m:])),
                 lagrangian)


def _point_function(spec, lagrangian: Expr) -> Callable[[np.ndarray], tuple]:
    """The generated function of (x, y) that returns every field of
    `LagrangianDerivatives`, in its order.

    Made once per spec and Lagrangian tree and kept on the spec like the
    chart code; the code is generated at the first point.
    """
    # the entry's layout holds the tree, so its id stays its own
    return kept(spec, ("lagrangian_point", id(lagrangian)),
                lambda: lazy_generated(spec.base + spec.fiber, spec.params,
                                       functools.partial(_point_layout, spec, lagrangian)))


def _point_layout(spec, lagrangian: Expr) -> tuple:
    """The `LagrangianDerivatives` fields as trees over (x, y).

    The checks walk L's jet, then C's entries, then rho's, the order in
    which the force system evaluated them, so an error is the one it
    reported. b is built from the nonzero slots of C only.
    """
    m, n = spec.m, spec.n
    names = spec.base + spec.fiber
    nv = m + n
    jet = _jet_layout(lagrangian, names, 2)[0]
    rho_slots, c_slots = _tensor_slots(spec)
    rho_flat, c_flat = _tensor_trees(rho_slots), _tensor_trees(c_slots)
    checks = jet + [(c_flat, None, 0), (rho_flat, None, 0)]

    g, h = jet[1][0], jet[2][0]
    lx, ly = g[:m], g[m:]
    y = [Var(name) for name in spec.fiber]
    hxy = [h[i * nv + m + a] for i in range(m) for a in range(n)]
    w = [h[(m + a) * nv + m + b] for a in range(n) for b in range(n)]
    hxx = [h[i * nv + j] for i in range(m) for j in range(m)]
    rho_y = [_dot(zip(rho_flat[i * n:(i + 1) * n], y)) for i in range(m)]
    # ly_c C[c, a, b] y_b, over c then b
    cterm = [_ZERO] * n
    for k, slot in enumerate(c_slots):
        if slot is not None:
            c, a, b = k // (n * n), k // n % n, k % n
            cterm[a] = _fold("+", cterm[a], _fold("*", _fold("*", ly[c], c_flat[k]), y[b]))
    # b = -(ly.C.y + L_xy^T rho y - rho^T L_x), grouped as its numpy formula
    force = []
    for a in range(n):
        drive = _fold("+", cterm[a], _dot(zip(hxy[a::n], rho_y)))
        force.append(_fold("-", _ZERO, _fold("-", drive, _dot(zip(rho_flat[a::n], lx)))))
    groups = [([lagrangian], None, 0), (lx, (m,), 0), (ly, (n,), 0), (hxy, (m, n), 0),
              (w, (n, n), 0), (hxx, (m, m), 0), ([_energy_tree(lagrangian, names, m)], None, 0),
              (force, (n,), 0), (rho_y, (m,), 0)]
    return groups, checks


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

    mx = d.hxy.T @ rho
    ul = mx - mx.T + np.einsum("c,cab->ab", d.ly, cs)
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, :n] = ul
    omega[:n, n:] = d.w
    omega[n:, :n] = -d.w.T

    return CartanData(at=at, omegaL=omega, W=d.w, EL=d.energy,
                      dEL=_energy_differential(chart, d, rho, at.y))


def energy_differential(sys: LagrangianSystem, at: EPoint) -> np.ndarray:
    """Components of dE_L in the dual frame, X-components first: cartan's dEL
    without the Cartan matrix."""
    return _energy_differential(sys.chart, sys.derivatives(at), sys.chart.rho(at.x), at.y)


def _energy_differential(chart: AlgebroidChart, d: LagrangianDerivatives,
                         rho: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.concatenate([rho.T @ (d.hxy @ y - d.lx), d.w @ y])


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
    """Regularity of the velocity Hessian by the relative singular-value
    threshold, its singular values being its |eigenvalues|."""
    _, w = sys.second_derivatives(at)
    return RegularityReport(*regularity(w, sys.rank_rtol))


def _el_force_rhs(sys: LagrangianSystem, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
    """(W, right-hand side b) of the Euler-Lagrange force system W f = b."""
    d = sys.derivatives(at)
    return d.w, d.b


def euler_lagrange_rhs(sys: LagrangianSystem, at: EPoint) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Lagrange vector field at a point of a regular Lagrangian.

    Returns (xdot, ydot), xdot = rho y read-only, and ydot from the force
    system, solved by the same `regular_solve` that gives the Hessian's
    regularity verdict. at is an EPoint, any (x, y) of float arrays, or
    the packed vector (x, y).
    """
    d = sys.derivatives(at)
    regular, smin, _, f = regular_solve(d.w, d.b, sys.rank_rtol)
    if not regular:
        raise SingularHessian(
            f"velocity Hessian singular (sigma_min={smin:.3e}); "
            "use the constraint algorithm")
    return d.rho_y, f


def hamilton_rhs(chart: AlgebroidChart, H, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton equations on the dual bundle.

    xdot_i = rho[i,A] dH/dp_A; pdot_A = -(rho[i,A] dH/dx_i + C[c,A,B] p_c dH/dp_B),
    from H's gradients and one call of the generated Hamilton field of the
    chart's spec. at is a DualPoint, or any (x, p) of float arrays. The
    arrays are the call's own, read-only.
    """
    hx, hp = as_dual_observable(chart, H).gradients(at)
    return hamilton_field(chart.spec)(np.concatenate([at.x, at.p, hx, hp]))


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
        """Gradient row at z."""
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
        # without a kernel the solve indexes by slices, which take views
        self._solve_tr, self._solve_tt = ((self._tr, np.ix_(self._tr, self._tr))
                                          if self.kernel_idx else (slice(None),) * 2)
        m = sys.chart.m
        # the value, gradients and Hessian at one packed (x, p) share one
        # solve; _solve_velocity is looked up at each call, so a wrap of it
        # sees every solve
        self._solved = keep_last(lambda z: self._solve_velocity(z[:m], z[m:]))

    def __call__(self, x: np.ndarray, p: np.ndarray) -> float:
        return self.value(DualPoint(x, p))

    def primary_constraints(self) -> tuple[PrimaryConstraint, ...]:
        """phi_A = p_A - dL/dy_A for kernel directions, as fields on (x, p)."""
        return tuple(PrimaryConstraint(self.sys, a) for a in self.kernel_idx)

    def _solve_velocity(self, x: np.ndarray,
                        p: np.ndarray) -> tuple[np.ndarray, LagrangianDerivatives]:
        """Full velocity, read-only, with kernel components zero and
        dL/dy_T = p_T, and the derivatives of L there."""
        sys, tr, tt = self.sys, self._solve_tr, self._solve_tt
        n = sys.chart.n

        def full(yt: np.ndarray) -> np.ndarray:
            if not self.kernel_idx:  # yt is the whole velocity
                return yt
            y = np.zeros(n)
            y[tr] = yt
            return y

        def residual(yt: np.ndarray) -> tuple[np.ndarray, LagrangianDerivatives]:
            # the caller's (x, p) was checked where it entered
            d = sys.derivatives(np.concatenate([x, full(yt)]))
            return d.ly[tr] - p[tr], d

        yt, d = damped_newton(residual, lambda d, r: np.linalg.solve(d.w[tt], r),
                              p[tr], "Legendre inverse")
        y = full(yt)
        y.flags.writeable = False
        return y, d

    def value(self, at: DualPoint) -> float:
        # E_L from the derivatives the Newton solve ends on
        return self._solved(np.concatenate([at.x, at.p]))[1].energy

    def gradients(self, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dx, dH/dp) = (-dL/dx, the kept solve's velocity), read-only;
        the kernel components of the solved velocity are zero."""
        y, d = self._solved(np.concatenate([at.x, at.p]))
        hx = -d.lx
        hx.flags.writeable = False
        return hx, y

    def hessian(self, at: DualPoint) -> np.ndarray:
        """Second derivatives of H in (x, p).

        At the solved velocity dy_T = W_TT^-1 (dp_T - L_{y_T x} dx) and
        d(dH/dx) = -L_xx dx - L_{x y_T} dy_T; kernel rows vanish.
        """
        _, d = self._solved(np.concatenate([at.x, at.p]))
        m, tr = self.chart.m, self._tr
        lxt = d.hxy[:, tr]
        # rows of dy_T / d(x, p_T)
        dyt = np.linalg.solve(d.w[np.ix_(tr, tr)], np.hstack([-lxt.T, np.eye(tr.size)]))
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
