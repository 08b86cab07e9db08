"""Lagrangian and Hamiltonian dynamics on one algebroid chart.

Builds the Cartan objects (presymplectic matrix, energy, its differential),
the Legendre transform, the regular Euler-Lagrange vector field and the
Hamilton equations on the dual bundle. The induced Hamiltonian lives on all
of E* for a regular L, on the momentum image of a singular one, where the
velocities along the kernel directions are pinned to zero. When L is at
most quadratic in the velocities and the transverse block of its velocity
Hessian is a regular constant, or varies with x and is 1x1, diagonal or
2x2, the Legendre map is affine in those velocities and the Hamiltonian is
`QuadraticHamiltonian`, trees in closed form. Otherwise it is
`LegendreEnergy`, which holds the one Newton inverse of the Legendre map.
The Lagrangian is an expression tree, so every derivative here is exact,
the energy's included; nothing in this module is differenced.
One generated mechanics point serves both this module and `vakonomic`: a
function of (x, y^a, p_alpha) built from the restricted Lagrangian, the
constraint graph Psi and the spec's anchor and bracket trees. The
Euler-Lagrange point is that point with no constrained index, so an EL and
a vakonomic system of one L share its code. Where the regularity matrix is
a constant, the point also solves against it with `regular_solve`'s own
operations, and each system decides its regularity once. The point of a
spec and its trees, and the E_L function and closed-form Hamiltonian of a
Lagrangian, are `expr.kept` entries of the spec and of L's root node, so
every later system of the same trees reuses them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebroid import (AlgebroidChart, DualPoint, _anchor_drive, as_dual_observable,
                        hamilton_field)
from .errors import EvalDomainError, NewtonFailed, SingularHessian
from .expr import (Binary, Const, Expr, ScalarFunction, Var, _ONE, _ZERO, _dot, _fold, _free,
                   _is, _jet_layout, evaluate, keep_last, kept, lazy_generated, partials,
                   substitute, variables_of)
from .linalg import damped_newton, rank_rtol, regular_solution, regular_solve, regularity

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
    "hamilton_start_regular",
    "LegendreEnergy",
    "QuadraticHamiltonian",
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
    the velocity Hessian w; rho_y is rho(x) y, the base velocity. ydot is f
    from the point's own solve when W is a constant it solves against, else
    empty."""

    value: float
    lx: np.ndarray
    ly: np.ndarray
    hxy: np.ndarray
    w: np.ndarray
    hxx: np.ndarray
    energy: float
    b: np.ndarray
    rho_y: np.ndarray
    ydot: np.ndarray


class LagrangianSystem:
    """A chart together with a Lagrangian on its (x, y) coordinates.

    The Lagrangian is an expression in the base and fiber coordinate names,
    differentiated exactly. Every field at a point is one call of the
    mechanics point with nothing constrained, assembled from L's partial
    trees and the anchor and bracket trees of the chart's spec. The rank
    tolerance is resolved from AMECH_TOL once, here. A point is an EPoint,
    any (x, y) of float arrays, or the packed vector (x, y).
    """

    def __init__(self, chart: AlgebroidChart, lagrangian: Expr):
        self.chart = chart
        self.rank_rtol = rank_rtol()
        self._sf = ScalarFunction(chart.base_names + chart.fiber_names,
                                  expr=lagrangian, params=chart.params)
        self._point = _mechanics_point(chart.spec, (), (lagrangian,))
        self._energy: ScalarFunction | None = None
        # the regularity verdict of a constant W, decided at its first solve
        self._verdict: tuple[bool, float] | None = None

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
        """Every field at the point, from one call of the mechanics point with
        nothing constrained; the arrays are the call's own, read-only."""
        lt, _, ly, lx, w, b, ydot, rho_y, _, energy, hxy, hxx = self._point(_packed(at))
        return LagrangianDerivatives(lt, lx, ly, hxy, w, hxx, energy, b, rho_y, ydot)

    def energy(self, at: EPoint) -> float:
        """E_L = y dL/dy - L, its sum taken left to right."""
        return self._point.values(_packed(at))[9]

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
        return self._energy.derivatives(_packed(at))


def _packed(at) -> np.ndarray:
    """The packed vector (x, y) of a point of E, or (x, p) of a point of E*,
    or the point itself when it is one."""
    if isinstance(at, np.ndarray):
        return at
    return np.concatenate([at.x, at.y if hasattr(at, "y") else at.p])


def _energy_tree(lagrangian: Expr, names: tuple[str, ...], m: int) -> Expr:
    """E_L = y dL/dy - L over names, the velocities after the first m, its
    sum taken left to right."""
    return _fold("-", _dot(zip(map(Var, names[m:]), partials(lagrangian, names)[m:])),
                 lagrangian)


def _multiplier_names(constrained: tuple[int, ...]) -> tuple[str, ...]:
    """The momentum names of the constrained directions, which the
    multipliers take; the DSL keeps them free of every other name."""
    return tuple(f"p{a + 1}" for a in constrained)


def _mechanics_point(spec, constrained: tuple[int, ...],
                     trees: tuple[Expr, ...]) -> Callable[[np.ndarray], tuple]:
    """The generated function of a packed state (x, ya, palpha) that returns
    every field of `_point_layout`, in its order.

    trees are Ltilde, then Psi per constrained index; with none constrained
    it is L's Euler-Lagrange point of (x, y). Made once per spec, constrained
    split and trees, and kept on the spec like the chart code, so an EL and
    a vakonomic system of one L share it; the code is generated at the first
    point.
    """
    free_names = tuple(name for a, name in enumerate(spec.fiber) if a not in constrained)
    # the entry's layout holds the trees, so their ids stay theirs
    return kept(spec, ("mechanics_point", constrained, tuple(map(id, trees))),
                lambda: lazy_generated(
                    spec.base + free_names + _multiplier_names(constrained), spec.params,
                    functools.partial(_point_layout, spec, constrained, trees)))


def _point_layout(spec, constrained: tuple[int, ...], trees: tuple[Expr, ...]) -> tuple:
    """The mechanics point's fields as trees over (x, ya, palpha): Ltilde,
    y_full, p_full, lam = dLtilde/dx - p.dPsi/dx, the regularity matrix R
    and right-hand side rhs of the free-velocity equation R yadot = rhs,
    yadot itself when R is a constant that `_solve_trees` solves against
    (else empty), xdot, the multiplier drive pdot and H_W1; with nothing
    constrained also d p/dx (m x n) and d lam/dx (m x m), the blocks of L's
    Hessian that LagrangianDerivatives reads.

    The checks walk Ltilde's jet, then the stacked Psi values, gradients and
    Hessians, then rho's and C's entries, so an error is the one the
    separate evaluations reported, in their order. The fields are sums of
    products of those trees with the multipliers and velocities.
    """
    m, n = spec.m, spec.n
    free = tuple(a for a in range(n) if a not in constrained)
    nf, nc = len(free), len(constrained)
    names = spec.base + tuple(spec.fiber[a] for a in free)
    nv = len(names)
    lt_jet = _jet_layout(trees[0], names, 2)[0]
    psi_jets = [_jet_layout(f, names, 2)[0] for f in trees[1:]]
    psi_groups = [([tree for jet in psi_jets for tree in jet[k][0]], shape, k)
                  for k, shape in enumerate([(nc,), (nc, nv), (nc, nv, nv)])]

    lt, psi = trees[0], trees[1:]
    g, h = lt_jet[1][0], lt_jet[2][0]
    psi_g = [jet[1][0] for jet in psi_jets]
    psi_h = [jet[2][0] for jet in psi_jets]
    ya = [Var(name) for name in names[m:]]
    p = [Var(name) for name in _multiplier_names(constrained)]

    def first(k: int) -> Expr:
        # gradient entry k of Ltilde less the multipliers' of Psi
        return _fold("-", g[k], _dot(zip(p, (gb[k] for gb in psi_g))))

    def second(k: int) -> Expr:
        # Hessian entry k of Ltilde less the multipliers' of Psi
        return _fold("-", h[k], _dot(zip(p, (hb[k] for hb in psi_h))))

    y_full, p_full = [_ZERO] * n, [_ZERO] * n
    for k, a in enumerate(free):
        y_full[a], p_full[a] = ya[k], first(m + k)
    for j, a in enumerate(constrained):
        y_full[a], p_full[a] = psi[j], p[j]
    lam = [first(i) for i in range(m)]
    R = [second((m + a) * nv + m + b) for a in range(nf) for b in range(nf)]
    pfx = [second(i * nv + m + k) for i in range(m) for k in range(nf)]
    xdot, drive, tensor_checks = _anchor_drive(spec, lam, y_full, p_full)
    pdot = [drive[a] for a in constrained]
    # the p_a equation, expanded by the chain rule and solved against R
    rhs = [_fold("+", _fold("-", drive[a], _dot(zip(xdot, pfx[k::nf]))),
                 _dot(zip(pdot, (gb[m + k] for gb in psi_g))))
           for k, a in enumerate(free)]
    # the free part, then the constrained part, then Ltilde, as pontryagin_H
    h_w1 = _fold("-", _fold("+", _dot(zip([p_full[a] for a in free], ya)),
                            _dot(zip(p, psi))), lt)
    r = _constant(R, spec.params)
    yadot = [] if r is None else _solve_trees(r.reshape(nf, nf), rhs)
    groups = [([lt], None, 0), (y_full, (n,), 0), (p_full, (n,), 0), (lam, (m,), 0),
              (R, (nf, nf), 0), (rhs, (nf,), 0), (yadot, (len(yadot),), 0), (xdot, (m,), 0),
              (pdot, (nc,), 0), ([h_w1], None, 0)]
    if not constrained:
        lamx = [second(i * nv + j) for i in range(m) for j in range(m)]
        groups += [(pfx, (m, nf), 0), (lamx, (m, m), 0)]
    return groups, lt_jet + psi_groups + tensor_checks


def _constant(trees: list[Expr], params) -> np.ndarray | None:
    """The values of trees that name only params, from the tree walk, whose
    bits the generated code repeats; None when a tree names any other
    variable or fails there."""
    if any(variables_of(tree) - params.keys() for tree in trees):
        return None
    try:
        return np.array([evaluate(tree, params) for tree in trees])
    except (ArithmeticError, EvalDomainError):
        return None


def _solve_trees(r, b: list[Expr]) -> list[Expr]:
    """Trees of f with r f = b for a symmetric r, an array of constants or
    a nested list of trees: regular_solve's own operations for r's size
    class, so for constants, taken as literals, f has its bits. [] for a
    dense r of size 3 or more and for an r those operations would divide
    by a literal zero.

    1x1 and diagonal: b_a / w_a + 0.0. 2x2: the scaled adjugate,
    (q b0 - r b1) / det / scale + 0.0. Trees have no max, so a 2x2 of
    trees is not scaled, and one whose off-diagonal tree is the literal 0
    is diagonal. The nodes are built unfolded, so the + 0.0 that turns a
    -0.0 into +0.0 stays; only a division by 1.0, x bit for bit, folds away.
    """
    def plus_zero(tree: Expr) -> Expr:
        return Binary("+", tree, _ZERO)

    def over(tree: Expr, c: Expr) -> Expr:
        return tree if _is(c, 1.0) else Binary("/", tree, c)

    def adjugate(p: Expr, s: Expr, q: Expr, det: Expr, scale: Expr) -> list[Expr]:
        return [plus_zero(over(over(Binary("-", Binary("*", c0, b0), Binary("*", s, b1)), det),
                               scale))
                for c0, b0, b1 in ((q, b[0], b[1]), (p, b[1], b[0]))]

    if isinstance(r, np.ndarray):
        if not np.all(np.isfinite(r)):
            return []
        if len(b) == 2:
            (p, _), (s, q) = r.tolist()
            scale = max(abs(p), abs(s), abs(q))
            if not scale:
                return []
            p, s, q = p / scale, s / scale, q / scale
            det = p * q - s * s
            return adjugate(*map(Const, (p, s, q, det, scale))) if det else []
        if np.any(r - np.diag(r.diagonal())):
            return []
        w = [Const(v) for v in r.diagonal().tolist()]
    elif len(b) == 2 and not _is(r[1][0], 0.0):
        (p, _), (s, q) = r
        return adjugate(p, s, q, Binary("-", Binary("*", p, q), Binary("*", s, s)), _ONE)
    elif any(not _is(v, 0.0) for a, row in enumerate(r) for c, v in enumerate(row) if a != c):
        return []
    else:
        w = [row[a] for a, row in enumerate(r)]
    if any(_is(wa, 0.0) for wa in w):
        return []
    return [plus_zero(over(ba, wa)) for ba, wa in zip(b, w)]


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
    """Velocity with dL/dy(x, y) = p: dH/dp of the induced Hamiltonian, in
    closed form for a QuadraticHamiltonian, else by damped Newton seeded at
    y = p.

    Local only; convergence failure raises rather than returning a bad point.
    """
    return EPoint(at.x, hamiltonian_from_lagrangian(sys).gradients(at)[1])


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


def euler_lagrange_rhs(sys: LagrangianSystem, at: EPoint,
                       flat: bool = False) -> tuple[np.ndarray, np.ndarray] | list:
    """Euler-Lagrange vector field at a point of a regular Lagrangian.

    Returns (xdot, ydot), xdot = rho y read-only, and ydot from the force
    system, as `_solved` gives it with the Hessian's regularity verdict. at
    is an EPoint, any (x, y) of float arrays, or the packed vector (x, y).
    With flat, a right-hand side: one list, read from the point's floats.
    """
    point = sys._point.values if flat else sys._point
    _, _, _, _, r, rhs, f, xdot, *_ = point(_packed(at))
    regular, smin, f = _solved(sys, r, rhs, f)
    if not regular:
        raise SingularHessian(
            f"velocity Hessian singular (sigma_min={smin:.3e}); "
            "use the constraint algorithm")
    return [*xdot, *f] if flat else (xdot, f)


def _solved(sys, r, rhs, solution) -> tuple[bool, float, np.ndarray | tuple | None]:
    """(regular, smallest singular value, f) for r f = rhs at a point of sys,
    from the point's arrays or floats.

    solution is the point's own solve, non-empty only when r is a constant:
    its verdict is then decided once per system, with the system's rank
    tolerance, and kept on sys. Otherwise `regular_solve` gives both.
    """
    k = len(rhs)
    if not len(solution):
        regular, smin, _, f = regular_solve(np.reshape(r, (k, k)), np.asarray(rhs, dtype=float),
                                            sys.rank_rtol)
        return regular, smin, f
    if sys._verdict is None:
        sys._verdict = regularity(np.reshape(r, (k, k)), sys.rank_rtol)[:2]
    return (*sys._verdict, solution)


def hamilton_rhs(chart: AlgebroidChart, H, at: DualPoint,
                 flat: bool = False) -> tuple[np.ndarray, np.ndarray] | list:
    """Hamilton equations on the dual bundle.

    xdot_i = rho[i,A] dH/dp_A; pdot_A = -(rho[i,A] dH/dx_i + C[c,A,B] p_c dH/dp_B),
    from H's gradients and one call of the generated Hamilton field of the
    chart's spec. at is a DualPoint, or any (x, p) of float arrays. The
    arrays are two read-only views of the call's one array. With flat, H is
    a Hamiltonian of `hamiltonian_from_lagrangian`, at the packed (x, p) and
    the field a right-hand side: one list of the call's floats, fed those of
    a QuadraticHamiltonian's own call.
    """
    field = hamilton_field(chart.spec)
    if not flat:
        hx, hp = as_dual_observable(chart, H).gradients(at)
        field = field(np.concatenate([at.x, at.p, hx, hp]))
        return field[:chart.m], field[chart.m:]
    if isinstance(H, QuadraticHamiltonian):
        _, hx, hp = H._fields.values(at)
    else:  # a LegendreEnergy, which takes the packed point too
        hx, hp = (g.tolist() for g in H.gradients(at))
    return list(field.values([*at.tolist(), *hx, *hp]))


class LegendreEnergy:
    """The induced Hamiltonian H = E_L o FL^-1, regular or on the momentum
    image of a singular L.

    Velocities along kernel_idx, a constant coordinate-aligned kernel of the
    velocity Hessian (empty for a regular L), are pinned to zero; the
    transverse ones solve dL/dy_T = p_T by damped Newton seeded at p_T.
    With follow, each solve is seeded at the velocity of the one before, so
    the solves along one trajectory stay on one branch of the inverse; the
    first is seeded at p_T and, if that Newton fails, at y_T = 0.
    Stationarity of p y - L(x, y) in y makes the gradients exact at the
    solved velocity, dH/dx = -dL/dx and dH/dp_T = y_T, so the Newton inverse
    is never differenced; the Hessian adds the implicit-function derivatives
    of y_T there, so only second derivatives of L are needed.
    """

    def __init__(self, sys: LagrangianSystem, kernel_idx: tuple[int, ...] = (),
                 follow: bool = False):
        self.sys = sys
        self.follow = follow
        self._seed: np.ndarray | None = None  # the last solve's y_T, with follow
        self.chart = sys.chart
        self.kernel_idx = tuple(kernel_idx)
        self.transverse_idx = tuple(a for a in range(sys.chart.n)
                                    if a not in self.kernel_idx)
        self._tr = np.array(self.transverse_idx, dtype=np.intp)
        m = sys.chart.m
        # the value, gradients and Hessian at one packed (x, p) share one
        # solve; _solve_velocity is looked up at each call, so a wrap of it
        # sees every solve
        self._solved = keep_last(lambda z: self._solve_velocity(z[:m], z[m:]))

    def __call__(self, x: np.ndarray, p: np.ndarray) -> float:
        return self.value(DualPoint(x, p))

    def _solve_velocity(self, x: np.ndarray,
                        p: np.ndarray) -> tuple[np.ndarray, LagrangianDerivatives]:
        """Full velocity, read-only, with kernel components zero and
        dL/dy_T = p_T, and the derivatives of L there."""
        sys, tr = self.sys, self._tr
        tt, n = np.ix_(tr, tr), sys.chart.n

        def full(yt: np.ndarray) -> np.ndarray:
            y = np.zeros(n)
            y[tr] = yt
            return y

        def residual(yt: np.ndarray) -> tuple[np.ndarray, LagrangianDerivatives]:
            # the caller's (x, p) was checked where it entered
            d = sys.derivatives(np.concatenate([x, full(yt)]))
            return d.ly[tr] - p[tr], d

        def solve(seed: np.ndarray) -> tuple[np.ndarray, LagrangianDerivatives]:
            return damped_newton(residual,
                                 lambda d, r: regular_solution(d.w[tt], r, sys.rank_rtol),
                                 seed, "Legendre inverse")

        try:
            yt, d = solve(p[tr] if self._seed is None else self._seed)
        except NewtonFailed:
            if not self.follow or self._seed is not None:
                raise
            yt, d = solve(np.zeros(tr.size))
        if self.follow:
            self._seed = yt
        y = full(yt)
        y.flags.writeable = False
        return y, d

    def value(self, at: DualPoint) -> float:
        # E_L from the derivatives the Newton solve ends on
        return self._solved(_packed(at))[1].energy

    def gradients(self, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dx, dH/dp) = (-dL/dx, the kept solve's velocity), read-only;
        the kernel components of the solved velocity are zero."""
        y, d = self._solved(_packed(at))
        hx = -d.lx
        hx.flags.writeable = False
        return hx, y

    def hessian(self, at: DualPoint) -> np.ndarray:
        """Second derivatives of H in (x, p).

        At the solved velocity dy_T = W_TT^-1 (dp_T - L_{y_T x} dx) and
        d(dH/dx) = -L_xx dx - L_{x y_T} dy_T; kernel rows vanish.
        """
        _, d = self._solved(_packed(at))
        m, tr = self.chart.m, self._tr
        lxt = d.hxy[:, tr]
        # rows of dy_T / d(x, p_T)
        dyt = regular_solution(d.w[np.ix_(tr, tr)], np.hstack([-lxt.T, np.eye(tr.size)]),
                               self.sys.rank_rtol)
        h = np.zeros((m + self.chart.n,) * 2)
        h[:m, :m] = -d.hxx - lxt @ dyt[:, :m]
        h[:m, m + tr] = -lxt @ dyt[:, m:]
        h[m + tr, :m] = dyt[:, :m]
        h[np.ix_(m + tr, m + tr)] = dyt[:, m:]
        return h


class QuadraticHamiltonian:
    """The induced Hamiltonian of an L whose W names no velocity, in closed
    form: H = E_L(x, y) = p y - L(x, y) at the velocity y(x, p) with y_K = 0
    along kernel_idx and dL/dy_T = p_T, w being W_TT: its values where
    constant, else its trees.

    dL/dy_T = W_TT(x) y_T + a_T(x) at y_K = 0, so the Legendre Newton's
    first step from (0_K, p_T), y_T = p_T - W_TT^-1 r with r = dL/dy_T there
    less p_T, is exact, and y is written so: W_TT^-1 as `_solve_trees`
    applies it (so where the Newton stops after that step, y has its bits),
    or as literal entries for a dense constant one. y goes into E_L and L's
    partial trees by substitution. The value, E_L summed left to right as
    LegendreEnergy's, and the gradients, the stationarity identities
    dH/dx = -dL/dx and dH/dp = y that LegendreEnergy reads at its Newton
    velocity, are one generated call of (x, p), kept for its last point;
    the Hessian, LegendreEnergy's implicit-function formula as trees from
    L's second partials at y, is a second, made at its first call.
    """

    def __init__(self, chart: AlgebroidChart, lagrangian: Expr, w,
                 kernel_idx: tuple[int, ...] = ()):
        m, n, params = chart.m, chart.n, chart.params
        names = chart.base_names + chart.fiber_names
        self.chart, self.kernel_idx = chart, tuple(kernel_idx)
        self.transverse_idx = tr = tuple(a for a in range(n) if a not in self.kernel_idx)
        self.constant = isinstance(w, np.ndarray)
        grad = partials(lagrangian, names)
        p = [Var(name) for name in chart.momentum_names]
        at_p = {name: _ZERO if a in self.kernel_idx else p[a]
                for a, name in enumerate(chart.fiber_names)}

        def solve(b: list[Expr]) -> list[Expr]:
            return _solve_trees(w, b) or [_dot(zip(map(Const, row), b))
                                          for row in np.linalg.inv(w).tolist()]

        # the Newton residual at yhat: r = dL/dy_T(x, yhat) - p_T = W_TT p_T + a_T(x) - p_T
        r = [_fold("-", substitute(grad[m + a], at_p), p[a]) for a in tr]
        y = [_ZERO] * n
        for a, da in zip(tr, solve(r)):
            y[a] = _fold("-", p[a], da)
        velocity = dict(zip(chart.fiber_names, y))
        self.expr = substitute(_energy_tree(lagrangian, names, m), velocity)
        hx = [_fold("-", _ZERO, substitute(tree, velocity)) for tree in grad[:m]]
        self.gradient_trees = hx + y

        def hessian_trees() -> list[Expr]:
            # dy_T = W_TT^-1 (dp_T - L_{y_T x} dx), d(dH/dx) = -L_xx dx - L_{x y_T} dy_T
            d = m + n
            hessian = _jet_layout(lagrangian, names, 2)[0][2][0]
            at_y = [substitute(tree, velocity) for tree in hessian[:m * d]]
            neg = functools.partial(_fold, "-", _ZERO)
            lxt = [[at_y[i * d + m + a] for a in tr] for i in range(m)]
            columns = [solve([neg(t) for t in row]) for row in lxt] + [
                solve([_ONE if k == c else _ZERO for k in range(len(tr))]) for c in range(len(tr))]
            h = [[_ZERO] * d for _ in range(d)]
            for j, col in zip([*range(m), *(m + a for a in tr)], columns):
                for i in range(m):
                    term = _dot(zip(lxt[i], col))
                    h[i][j] = _fold("-", neg(at_y[i * d + j]), term) if j < m else neg(term)
                for a, t in zip(tr, col):
                    h[m + a][j] = t
            return [t for row in h for t in row]

        self.hessian_trees = functools.cache(hessian_trees)
        dual_names = chart.base_names + chart.momentum_names
        self._fields = lazy_generated(
            dual_names, params,
            lambda: ([([self.expr], None, 0), (hx, (m,), 0), (y, (chart.n,), 0)], ()))
        self._hessian = lazy_generated(
            dual_names, params, lambda: ([(self.hessian_trees(), (m + n, m + n), 0)], ()))

    def __call__(self, x: np.ndarray, p: np.ndarray) -> float:
        return self.value(DualPoint(x, p))

    def value(self, at: DualPoint) -> float:
        return self._fields.values(_packed(at))[0]

    def gradients(self, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dx, dH/dp), read-only."""
        return self._fields(_packed(at))[1:]

    def hessian(self, at: DualPoint) -> np.ndarray:
        """Second derivatives of H in (x, p), read-only."""
        return self._hessian(_packed(at))


def hamiltonian_from_lagrangian(sys: LagrangianSystem, follow: bool = False,
                                kernel_idx: tuple[int, ...] = ()
                                ) -> QuadraticHamiltonian | LegendreEnergy:
    """Energy pushed through the inverse Legendre transform, H(x, p), with
    the velocities along kernel_idx pinned to zero.

    A QuadraticHamiltonian when no tree of L's velocity Hessian W names a
    velocity (the trees are folded, so a zero coefficient leaves none) and
    its transverse block W_TT either names only params and is regular with
    the system's rank tolerance, or varies with x and is 1x1, diagonal or
    2x2. That check, W_TT's values or trees and the QuadraticHamiltonian
    are made once for the Lagrangian's root node, names, params and kernel,
    and kept on that node.
    Otherwise a LegendreEnergy, valid where its Newton inverse converges
    (hyperregular Lagrangians), which follows the branch of its last solve
    when follow is set, as a trajectory needs. Either is callable as H(x, p)
    and carries exact gradients for the Hamilton equations.
    """
    lagrangian, names, m, n = sys._sf.expr, sys._sf.names, sys.chart.m, sys.chart.n
    key = (names, m, tuple(sorted(sys._sf.params.items())), tuple(kernel_idx))
    tr = [a for a in range(n) if a not in kernel_idx]

    def transverse_hessian():
        # W_TT's values where its trees name only params, else the trees
        # themselves; None when a tree of W names a velocity
        hessian, memo = _jet_layout(lagrangian, names, 2)[0][2][0], {}
        block = [[hessian[(m + a) * (m + n) + m + b] for b in range(n)] for a in range(n)]
        if any(_free(tree, memo) & set(names[m:]) for row in block for tree in row):
            return None
        trees = [[block[a][b] for b in tr] for a in tr]
        w = _constant([tree for row in trees for tree in row], sys._sf.params)
        return trees if w is None else w.reshape(len(tr), len(tr))

    w = kept(lagrangian, ("velocity_hessian", *key), transverse_hessian)
    if not (regularity(w, sys.rank_rtol)[0] if isinstance(w, np.ndarray)
            else w is not None and _solve_trees(w, [_ZERO] * len(tr))):
        return LegendreEnergy(sys, kernel_idx, follow)
    return kept(lagrangian, ("hamiltonian", *key),
                lambda: QuadraticHamiltonian(sys.chart, lagrangian, w, kernel_idx))


def hamilton_start_regular(sys: LagrangianSystem, H, at: DualPoint) -> bool:
    """Whether W is regular at the start (x, p) of a Hamilton run of
    H = hamiltonian_from_lagrangian(sys): a QuadraticHamiltonian built on a
    regular constant W is, with no call of L's point; any other W is read
    at the velocity a LegendreEnergy's inverse gives the start, or at y = p
    where that inverse cannot be solved or W, a QuadraticHamiltonian's,
    does not depend on y.
    """
    if isinstance(H, QuadraticHamiltonian) and H.constant:
        return True
    try:
        y = at.p if isinstance(H, QuadraticHamiltonian) else H.gradients(at)[1]
    except NewtonFailed:
        y = at.p
    return is_regular(sys, EPoint(at.x, y)).regular


def sode_defect(at: EPoint, section_value: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """X-components minus velocities; zero exactly when the section is a SODE."""
    X, _ = section_value
    return np.asarray(X, dtype=float) - at.y
