"""One coordinate chart of a Lie algebroid and its canonical structures.

A chart is the local data (anchor matrix field, structure-function field)
together with derivative access. On top of it this module evaluates the
structure-equation residuals, the differential of base functions, the linear
Poisson bracket on the dual bundle and the canonical symplectic matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dsl import SystemSpec
from .expr import (Const, Expr, ScalarFunction, Unary, evaluate, grad, lazy_generated,
                   partials)
# Bound under algebroid's own name: the traced benchmark run
# (perfbench/spans.py) wraps `algebroid._fd_tensor_jacobian`.
from .expr import _fd_gradient as _fd_tensor_jacobian
from .errors import AmechError

__all__ = [
    "AlgebroidChart",
    "DualPoint",
    "StructureReport",
    "chart_from_spec",
    "momentum_names",
    "check_structure",
    "d_E_function",
    "lie_poisson_bracket",
    "omega_E_matrix",
    "DualObservable",
]

_ZERO = Const(0.0)


def momentum_names(n: int) -> tuple[str, ...]:
    """Names of the dual-bundle fiber coordinates, by basis position."""
    return tuple(f"p{A + 1}" for A in range(n))


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
    """Local Lie algebroid data with derivative access.

    rho(x) is the m x n anchor matrix (columns are the anchor images of the
    basis sections), structure(x) the n x n x n tensor C[c, a, b], exactly
    antisymmetric in its last two slots. Charts built from a parsed spec
    differentiate their expression trees exactly; closure-defined charts fall
    back to central finite differences with step 1e-6 * max(1, |x|).
    """

    def __init__(self, m: int, n: int,
                 rho: Callable[[np.ndarray], np.ndarray],
                 structure: Callable[[np.ndarray], np.ndarray],
                 *,
                 rho_jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
                 structure_jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
                 base_names: Sequence[str] | None = None,
                 fiber_names: Sequence[str] | None = None,
                 params: dict[str, float] | None = None,
                 spec: SystemSpec | None = None):
        self.m = int(m)
        self.n = int(n)
        self.rho = rho
        self.structure = structure
        self._rho_jacobian = rho_jacobian
        self._structure_jacobian = structure_jacobian
        self.spec = spec
        self.params = dict(params) if params else {}
        if base_names is None:
            base_names = tuple(f"x{i + 1}" for i in range(self.m))
        if fiber_names is None:
            fiber_names = tuple(f"y{A + 1}" for A in range(self.n))
        self.base_names = tuple(base_names)
        self.fiber_names = tuple(fiber_names)
        self.momentum_names = momentum_names(self.n)
        self.deriv_source = "ad" if rho_jacobian is not None else "fd"

    def rho_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d rho[i, A] / d x[j], shape (m, n, m)."""
        if self._rho_jacobian is not None:
            return self._rho_jacobian(x)
        return _fd_tensor_jacobian(self.rho, x)

    def structure_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d C[c, a, b] / d x[j], shape (n, n, n, m)."""
        if self._structure_jacobian is not None:
            return self._structure_jacobian(x)
        return _fd_tensor_jacobian(self.structure, x)


def chart_from_spec(spec: SystemSpec) -> AlgebroidChart:
    """Build an evaluating chart from a parsed system document.

    rho, C and their Jacobians are each one generated call, made once per
    spec and kept on it, so every later chart of the spec reuses the code.
    """
    code = vars(spec).get("_chart_code")
    if code is None:
        code = vars(spec)["_chart_code"] = _chart_code(spec)
    rho, structure, rho_jacobian, structure_jacobian = code
    return AlgebroidChart(spec.m, spec.n, rho, structure, rho_jacobian=rho_jacobian,
                          structure_jacobian=structure_jacobian, base_names=spec.base,
                          fiber_names=spec.fiber, params=spec.params, spec=spec)


def _chart_code(spec: SystemSpec) -> tuple:
    """rho, C, d rho and dC as lazily generated code, the walks their reference."""
    m, n = spec.m, spec.n
    base = spec.base
    params = dict(spec.params)

    def env(x: np.ndarray) -> dict[str, float]:
        e = dict(params)
        e.update(zip(base, (float(c) for c in x)))
        return e

    def rho_walk(x: np.ndarray) -> np.ndarray:
        e = env(x)
        out = np.zeros((m, n))
        for a, row in enumerate(spec.anchor):
            for i, entry in enumerate(row):
                out[i, a] = evaluate(entry, e)
        return out

    def structure_walk(x: np.ndarray) -> np.ndarray:
        e = env(x)
        out = np.zeros((n, n, n))
        for (a, b), coeffs in spec.bracket.items():
            for c, coef in enumerate(coeffs):
                v = evaluate(coef, e)
                out[c, a, b] = v
                out[c, b, a] = -v
        return out

    def rho_jacobian_walk(x: np.ndarray) -> np.ndarray:
        e = env(x)
        out = np.zeros((m, n, m))
        if m == 0:
            return out
        for a, row in enumerate(spec.anchor):
            for i, entry in enumerate(row):
                out[i, a, :] = grad(entry, base, e)
        return out

    def structure_jacobian_walk(x: np.ndarray) -> np.ndarray:
        e = env(x)
        out = np.zeros((n, n, n, m))
        if m == 0:
            return out
        for (a, b), coeffs in spec.bracket.items():
            for c, coef in enumerate(coeffs):
                g = grad(coef, base, e)
                out[c, a, b, :] = g
                out[c, b, a, :] = -g
        return out

    # (tree, negated) in each row-major slot of rho and C, None for a zero,
    # filled in the walks' order
    rho_slots: list = [None] * (m * n)
    for a, row in enumerate(spec.anchor):
        for i, entry in enumerate(row):
            rho_slots[i * n + a] = (entry, False)
    c_slots: list = [None] * n ** 3
    for (a, b), coeffs in spec.bracket.items():
        for c, coef in enumerate(coeffs):
            c_slots[(c * n + a) * n + b] = (coef, False)
            c_slots[(c * n + b) * n + a] = (coef, True)

    def generated(slots: list, shape: tuple, walk, jacobian: bool):
        def signed(tree: Expr, negated: bool) -> Expr:
            return Unary("neg", tree) if negated else tree

        def layout() -> tuple:
            if not jacobian:
                return [([_ZERO if s is None else signed(*s) for s in slots], shape)], ()
            trees = [tree for s in slots
                     for tree in ([_ZERO] * m if s is None
                                  else [signed(d, s[1]) for d in partials(s[0], base)])]
            # the walk evaluates each entry before its partials
            checks = [s[0] for s in slots if s is not None] if m else []
            return [(trees, shape + (m,))], checks

        return lazy_generated(base, params, layout, walk)

    return (generated(rho_slots, (m, n), rho_walk, False),
            generated(c_slots, (n, n, n), structure_walk, False),
            generated(rho_slots, (m, n), rho_jacobian_walk, True),
            generated(c_slots, (n, n, n), structure_jacobian_walk, True))


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
                    deriv_source: str = "auto") -> StructureReport:
    """Residuals of the compatibility equations between anchor and bracket.

    r1 is the largest violation of the anchor-bracket relation, r2 the largest
    violation of the Jacobi-type relation for the structure functions. Both
    vanish (to rounding) on a genuine Lie algebroid chart.
    """
    x = np.asarray(x, dtype=float)
    if deriv_source not in ("auto", "ad", "fd"):
        raise ValueError(f"unknown derivative source {deriv_source!r}")
    use_ad = chart._rho_jacobian is not None and deriv_source in ("auto", "ad")
    if deriv_source == "ad" and chart._rho_jacobian is None:
        raise AmechError("chart has no expression data, AD derivatives unavailable")

    rho = chart.rho(x)
    cs = chart.structure(x)
    if use_ad:
        drho = chart.rho_jacobian(x)
        dcs = chart.structure_jacobian(x)
        source = "ad"
    else:
        drho = _fd_tensor_jacobian(chart.rho, x)
        dcs = _fd_tensor_jacobian(chart.structure, x)
        source = "fd"

    if chart.m == 0:
        r1 = 0.0
    else:
        lhs = np.einsum("ja,ibj->iab", rho, drho) - np.einsum("jb,iaj->iab", rho, drho)
        rhs = np.einsum("ic,cab->iab", rho, cs)
        r1 = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0

    if chart.m:
        term = np.einsum("ia,dbci->dabc", rho, dcs)
    else:
        term = np.zeros((chart.n,) * 4)
    term = term + np.einsum("daf,fbc->dabc", cs, cs)
    cyc = term + np.einsum("dbca->dabc", term) + np.einsum("dcab->dabc", term)
    r2 = float(np.max(np.abs(cyc))) if cyc.size else 0.0

    return StructureReport(point=tuple(float(c) for c in x), r1=r1, r2=r2, source=source)


# ---------------------------------------------------------------------------
# Differential and brackets


def d_E_function(chart: AlgebroidChart, f: "Expr | Callable[[np.ndarray], float]",
                 x: np.ndarray) -> np.ndarray:
    """Components of the algebroid differential of a base function.

    Returns the n-covector with entries sum_i rho[i, A] df/dx[i]; for a chart
    with empty base it is the zero covector.
    """
    x = np.asarray(x, dtype=float)
    if chart.m == 0:
        return np.zeros(chart.n)
    if isinstance(f, Expr):
        sf = ScalarFunction(chart.base_names, expr=f, params=chart.params)
    else:
        sf = ScalarFunction(chart.base_names, fn=lambda v: f(v))
    df = sf.gradient(x)
    return chart.rho(x).T @ df


class DualObservable:
    """Scalar function on the dual-bundle chart (x, p) with gradient access.

    Accepts an expression in the base and momentum coordinate names, or a
    callable of (x, p). Expressions differentiate exactly; callables use
    central finite differences.
    """

    def __init__(self, chart: AlgebroidChart,
                 f: "Expr | Callable[[np.ndarray, np.ndarray], float]"):
        self.chart = chart
        names = chart.base_names + chart.momentum_names
        if isinstance(f, Expr):
            self._sf = ScalarFunction(names, expr=f, params=chart.params)
        else:
            m = chart.m

            def packed(v: np.ndarray) -> float:
                return float(f(v[:m], v[m:]))

            self._sf = ScalarFunction(names, fn=packed)
        self.source = self._sf.source

    def value(self, at: DualPoint) -> float:
        return self._sf.value(np.concatenate([at.x, at.p]))

    def gradients(self, at: DualPoint) -> tuple[np.ndarray, np.ndarray]:
        g = self._sf.gradient(np.concatenate([at.x, at.p]))
        return g[:self.chart.m], g[self.chart.m:]


def as_dual_observable(chart: AlgebroidChart, f):
    """f itself when it has gradients(at) (a DualObservable, or a Hamiltonian
    with exact gradients), else a DualObservable of the expression or callable."""
    if hasattr(f, "gradients"):
        return f
    return DualObservable(chart, f)


def lie_poisson_bracket(chart: AlgebroidChart, F, G, at: DualPoint) -> float:
    """Linear Poisson bracket of two observables on the dual bundle.

    {F, G} = rho[i,A] (dF/dx_i dG/dp_A - dF/dp_A dG/dx_i)
             - C[c,A,B] p_c dF/dp_A dG/dp_B
    """
    Fo = as_dual_observable(chart, F)
    Go = as_dual_observable(chart, G)
    fx, fp = Fo.gradients(at)
    gx, gp = Go.gradients(at)
    rho = chart.rho(at.x)
    cs = chart.structure(at.x)
    anchor_part = float(fx @ rho @ gp - fp @ rho.T @ gx) if chart.m else 0.0
    cp = np.einsum("cab,c->ab", cs, at.p)
    return anchor_part - float(fp @ cp @ gp)


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
