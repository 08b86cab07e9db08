"""One coordinate chart of a Lie algebroid and its canonical structures.

A chart is the local data (anchor matrix field, structure-function field)
together with their exact Jacobians, generated from the expression trees of
a parsed spec, its only source; that code and the generated Hamilton field
are `expr.kept` entries of the spec. The trees of xdot = rho v and of the
momentum drive rho^T lam - C(v, p) are built in one place, shared by the
Hamilton field and the mechanics point of `dynamics`. On top of it this
module evaluates the structure-equation residuals (central differences of
the chart only as the "fd" cross-check), the differential of base
functions, the linear Poisson bracket on the dual bundle with its exact
Jacobi residual, and the canonical symplectic matrix.
Observables on the dual bundle are expression trees, differentiated exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dsl import SystemSpec, momentum_names
from .expr import (Const, Expr, ScalarFunction, Unary, Var, _ZERO, _dot, _fold, kept,
                   lazy_generated, partials)
# Bound under algebroid's own name: the traced benchmark run
# (perfbench/spans.py) wraps `algebroid._fd_tensor_jacobian`.
from .expr import _fd_gradient as _fd_tensor_jacobian

__all__ = [
    "AlgebroidChart",
    "DualPoint",
    "StructureReport",
    "chart_from_spec",
    "momentum_names",
    "check_structure",
    "d_E_function",
    "lie_poisson_bracket",
    "jacobi_residual",
    "omega_E_matrix",
    "DualObservable",
]

@dataclass(frozen=True)
class DualPoint:
    """Point of the dual bundle: base coordinates and momenta."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.p))):
            raise ValueError("dual point has non-finite entries")


class AlgebroidChart:
    """The local Lie algebroid data of a parsed spec, with derivative access.

    rho(x) is the m x n anchor matrix (columns are the anchor images of the
    basis sections), structure(x) the n x n x n tensor C[c, a, b], exactly
    antisymmetric in its last two slots. Both, and their exact Jacobians,
    are generated calls of the spec's expression trees, made once per spec
    and kept on it, so every later chart of the spec reuses the code.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.m, self.n = spec.m, spec.n
        (self.rho, self.structure, self._rho_jacobian,
         self._structure_jacobian) = kept(spec, "chart_code", lambda: _chart_code(spec))
        self.params = dict(spec.params)
        self.base_names, self.fiber_names = spec.base, spec.fiber
        self.momentum_names = momentum_names(self.n)

    def rho_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d rho[i, A] / d x[j], shape (m, n, m)."""
        return self._rho_jacobian(x)

    def structure_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d C[c, a, b] / d x[j], shape (n, n, n, m)."""
        return self._structure_jacobian(x)


def chart_from_spec(spec: SystemSpec) -> AlgebroidChart:
    """The evaluating chart of a parsed system document."""
    return AlgebroidChart(spec)


def _tensor_slots(spec: SystemSpec) -> tuple[list, list]:
    """(tree, negated) in each row-major slot of rho and of C, None for a zero."""
    m, n = spec.m, spec.n
    rho_slots: list = [None] * (m * n)
    for a, row in enumerate(spec.anchor):
        for i, entry in enumerate(row):
            rho_slots[i * n + a] = (entry, False)
    c_slots: list = [None] * n ** 3
    for (a, b), coeffs in spec.bracket.items():
        for c, coef in enumerate(coeffs):
            c_slots[(c * n + a) * n + b] = (coef, False)
            c_slots[(c * n + b) * n + a] = (coef, True)
    return rho_slots, c_slots


def _anchor_drive(spec: SystemSpec, lam: list[Expr], v: list[Expr],
                  p: list[Expr]) -> tuple[list[Expr], list[Expr], list]:
    """(xdot, drive, checks) as trees: xdot_i = rho[i, :].v and
    drive_a = rho[:, a].lam - C[b, a, d] v_d p_b, the momentum equation both
    the mechanics point (lam = dL/dx) and the Hamilton field (lam = -H_x,
    v = H_p) share. The bracket sum runs over C's nonzero slots only, in
    (b, d) order; checks walk rho's entries, then C's."""
    m, n = spec.m, spec.n
    rho_slots, c_slots = _tensor_slots(spec)
    rho_flat, c_flat = _tensor_trees(rho_slots), _tensor_trees(c_slots)
    xdot = [_dot(zip(rho_flat[i * n:(i + 1) * n], v)) for i in range(m)]
    cterm = [_ZERO] * n
    for k, slot in enumerate(c_slots):
        if slot is not None:
            b, a, d = k // (n * n), k // n % n, k % n
            cterm[a] = _fold("+", cterm[a], _fold("*", _fold("*", c_flat[k], v[d]), p[b]))
    drive = [_fold("-", _dot(zip(lam, rho_flat[a::n])), cterm[a]) for a in range(n)]
    return xdot, drive, [(rho_flat, None, 0), (c_flat, None, 0)]


def _signed(tree: Expr, negated: bool) -> Expr:
    """tree, or its negation; a constant under negations, as the parser
    writes a swapped bracket's, folds to the constant of the same bits."""
    if negated:
        tree = Unary("neg", tree)
    sign, core = 1.0, tree
    while isinstance(core, Unary) and core.op == "neg":
        sign, core = -sign, core.arg
    return Const(sign * core.value) if isinstance(core, Const) else tree


def _tensor_trees(slots: list) -> list[Expr]:
    """The tree of each slot, zero where it is None."""
    return [_ZERO if s is None else _signed(*s) for s in slots]


def _chart_code(spec: SystemSpec) -> tuple:
    """rho, C, d rho and dC as lazily generated code."""
    m, n = spec.m, spec.n
    base = spec.base
    rho_slots, c_slots = _tensor_slots(spec)

    def generated(slots: list, shape: tuple, jacobian: bool):
        def layout() -> tuple:
            if not jacobian:
                return [(_tensor_trees(slots), shape, 0)], ()
            trees = [tree for s in slots
                     for tree in ([_ZERO] * m if s is None
                                  else [_signed(d, s[1]) for d in partials(s[0], base)])]
            # every entry is checked before any partial, as grad checks its root;
            # a negated constant, as the parser writes (-1), is checked as its value
            entries = [_signed(s[0], False) for s in slots if s is not None]
            checks = [(entries, None, 0)] if m else []
            return [(trees, shape + (m,), 1)], checks

        return lazy_generated(base, spec.params, layout)

    return (generated(rho_slots, (m, n), False),
            generated(c_slots, (n, n, n), False),
            generated(rho_slots, (m, n), True),
            generated(c_slots, (n, n, n), True))


def hamilton_field(spec: SystemSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The spec's generated function of the packed (x, p, dH/dx, dH/dp) that
    returns the Hamilton field (xdot, pdot) as one read-only array; made
    once per spec and kept on it."""
    return kept(spec, "hamilton_field", lambda: _hamilton_field(spec))


def _hamilton_field(spec: SystemSpec) -> Callable[[np.ndarray], np.ndarray]:
    momenta = momentum_names(spec.n)
    # no spec name holds a "/", so the gradient slots are never shadowed
    gradient_names = tuple(f"dH/d{name}" for name in spec.base + momenta)

    def layout() -> tuple:
        # xdot = rho H_p and pdot = -rho^T H_x - C(H_p, p)
        lam = [_fold("-", _ZERO, Var(name)) for name in gradient_names[:spec.m]]
        hp = [Var(name) for name in gradient_names[spec.m:]]
        xdot, pdot, checks = _anchor_drive(spec, lam, hp, [Var(name) for name in momenta])
        return [(xdot + pdot, (spec.m + spec.n,), 0)], checks

    return lazy_generated(spec.base + momenta + gradient_names, spec.params, layout)


# ---------------------------------------------------------------------------
# Structure equations


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the two structure equations at one base point."""

    point: tuple[float, ...]
    r1: float
    r2: float
    source: str

    def to_json(self) -> str:
        return json.dumps({"point": list(self.point), "r1": self.r1,
                           "r2": self.r2, "source": self.source})


def check_structure(chart: AlgebroidChart, x: np.ndarray,
                    deriv_source: str = "ad") -> StructureReport:
    """Residuals of the compatibility equations between anchor and bracket.

    r1 is the largest violation of the anchor-bracket relation, r2 the largest
    violation of the Jacobi-type relation for the structure functions. Both
    vanish (to rounding) on a genuine Lie algebroid chart. deriv_source "ad"
    takes the chart's exact Jacobians, "fd" central differences of rho and C
    as a cross-check.
    """
    x = np.asarray(x, dtype=float)
    if deriv_source not in ("ad", "fd"):
        raise ValueError(f"unknown derivative source {deriv_source!r}")

    rho = chart.rho(x)
    cs = chart.structure(x)
    if deriv_source == "ad":
        drho = chart.rho_jacobian(x)
        dcs = chart.structure_jacobian(x)
    else:
        drho = _fd_tensor_jacobian(chart.rho, x)
        dcs = _fd_tensor_jacobian(chart.structure, x)

    lhs = np.einsum("ja,ibj->iab", rho, drho) - np.einsum("jb,iaj->iab", rho, drho)
    rhs = np.einsum("ic,cab->iab", rho, cs)
    r1 = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0

    term = np.einsum("ia,dbci->dabc", rho, dcs) + np.einsum("daf,fbc->dabc", cs, cs)
    cyc = term + np.einsum("dbca->dabc", term) + np.einsum("dcab->dabc", term)
    r2 = float(np.max(np.abs(cyc))) if cyc.size else 0.0

    return StructureReport(point=tuple(float(c) for c in x), r1=r1, r2=r2,
                           source=deriv_source)


# ---------------------------------------------------------------------------
# Differential and brackets


def d_E_function(chart: AlgebroidChart, f: Expr, x: np.ndarray) -> np.ndarray:
    """Components of the algebroid differential of a base function.

    Returns the n-covector with entries sum_i rho[i, A] df/dx[i]; for a chart
    with empty base it is the zero covector.
    """
    x = np.asarray(x, dtype=float)
    if chart.m == 0:
        return np.zeros(chart.n)
    df = ScalarFunction(chart.base_names, expr=f, params=chart.params).gradient(x)
    return chart.rho(x).T @ df


class DualObservable:
    """Scalar function on the dual-bundle chart (x, p) with gradient access.

    Takes an expression tree in the base and momentum coordinate names and
    differentiates it exactly; anything else raises TypeError.
    """

    def __init__(self, chart: AlgebroidChart, f: Expr):
        self.chart = chart
        sf = ScalarFunction(chart.base_names + chart.momentum_names, expr=f,
                            params=chart.params)
        self._value, self._gradient = sf.value, sf.gradient

    def value(self, at: DualPoint) -> float:
        return self._value(np.concatenate([at.x, at.p]))

    def gradients(self, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
        g = self._gradient(np.concatenate([at.x, at.p]))
        return g[:self.chart.m], g[self.chart.m:]


def as_dual_observable(chart: AlgebroidChart, f):
    """f itself when it has gradients(at) (a DualObservable, or a Hamiltonian
    with exact gradients), else a DualObservable of the expression tree."""
    if hasattr(f, "gradients"):
        return f
    return DualObservable(chart, f)


def _bracket(rho: np.ndarray, cp: np.ndarray, fx, fp, gx, gp) -> float:
    """{F, G} from the gradients (fx, fp) of F and (gx, gp) of G, cp being C.p."""
    return float(fx @ rho @ gp - fp @ rho.T @ gx) - float(fp @ cp @ gp)


def lie_poisson_bracket(chart: AlgebroidChart, F, G, at: DualPoint) -> float:
    """Linear Poisson bracket of two observables on the dual bundle.

    {F, G} = rho[i,A] (dF/dx_i dG/dp_A - dF/dp_A dG/dx_i)
             - C[c,A,B] p_c dF/dp_A dG/dp_B
    """
    (fx, fp), (gx, gp) = (as_dual_observable(chart, f).gradients(at) for f in (F, G))
    rho, cs = chart.rho(at.x), chart.structure(at.x)
    return _bracket(rho, np.einsum("cab,c->ab", cs, at.p), fx, fp, gx, gp)


def jacobi_residual(chart: AlgebroidChart, F, G, H, at: DualPoint) -> float:
    """{F, {G, H}} + {G, {H, F}} + {H, {F, G}} from the chart's exact Jacobians.

    The Hessians of F, G and H cancel from the cyclic sum (they are symmetric,
    the bracket is skew), so each term is {F, .} on the derivative of {G, H}
    with the gradients of G and H held fixed: its x_l part is
    gx.drho_l.hp - gp.drho_l^T.hx - gp.(dC_l.p).hp, its p_c part -gp.C[c].hp.
    """
    f, g, h = (as_dual_observable(chart, o).gradients(at) for o in (F, G, H))
    rho, cs = chart.rho(at.x), chart.structure(at.x)
    cp = np.einsum("cab,c->ab", cs, at.p)
    drho = chart.rho_jacobian(at.x)
    dcp = np.einsum("cabl,c->abl", chart.structure_jacobian(at.x), at.p)
    total = 0.0
    for (fx, fp), (gx, gp), (hx, hp) in ((f, g, h), (g, h, f), (h, f, g)):
        vx = (np.einsum("i,ial,a->l", gx, drho, hp) - np.einsum("a,ial,i->l", gp, drho, hx)
              - np.einsum("a,abl,b->l", gp, dcp, hp))
        total += _bracket(rho, cp, fx, fp, vx, -np.einsum("a,cab,b->c", gp, cs, hp))
    return total


def omega_E_matrix(chart: AlgebroidChart, at: DualPoint) -> np.ndarray:
    """Canonical symplectic matrix on the prolongation of the dual bundle.

    Basis order is the n vertical-dual directions followed by the n momentum
    directions; the matrix is [[C.p, I], [-I, 0]] and exactly skew.
    """
    n = chart.n
    cs = chart.structure(at.x)
    cp = np.einsum("cab,c->ab", cs, at.p)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = cp
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -np.eye(n)
    return out
