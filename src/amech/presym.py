"""Pointwise constraint algorithm for presymplectic systems on algebroids.

A problem bundles the presymplectic matrix field, the forcing covector, its
exact Jacobian and the anchor from fiber directions to coordinate tangents.
The engine grows constraint levels until the forcing is compatible with the
admissible fiber directions, then solves the restricted dynamical equation.
A level's constraints are one `Constraints` value, the problem's primaries
then the pairing z -> alpha(z) @ E with the directions E kept so far; one
call of it reads each callable once and returns the values with their exact
rows, and a probe keeps the read its projection ended on. A probe's rank is
one SVD of its rows; a candidate's rank test folds the rows kept before it
into that row basis, a Gram-Schmidt step judged by the one rank rule.
Nothing here is differenced; only the SODE defect that `cli` projects onto
has differenced rows. The two builders at the bottom generate each side's
problem from trees, as code kept on the spec: the Lagrangian side's omega,
alpha and anchor are one call of z = (x, y), alpha's Jacobian from the E_L
tree a second, made at its first call; the Hamiltonian side's omega, anchor,
primaries and alpha are one call of z = (x, p), alpha's Jacobian a second,
both from the trees of `dynamics.QuadraticHamiltonian`, with the kernel of
the velocity Hessian. A Lagrangian without that closed form keeps
`dynamics.LegendreEnergy`, whose derivatives feed a generated forcing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebroid import DualPoint, _tensor_slots, _tensor_trees, momentum_names
from .dynamics import (EPoint, LagrangianSystem, LegendreEnergy, QuadraticHamiltonian,
                       _el_force_rhs, _energy_tree, hamiltonian_from_lagrangian)
from .errors import (AmechError, InconsistentDynamics,
                     LinearSolveResidualTooLarge, MaxLevelsExceeded,
                     NotOnFinalManifold)
# Bound under presym's own name, where cli's SODE projection imports it at
# call time: the traced benchmark run (perfbench/spans.py) wraps
# `presym._fd_gradient`.
from .expr import (Const, Expr, Unary, Var, _ONE, _ZERO, _bindings, _dot, _evaluated,
                   _fd_gradient, _fold, _jet_layout, kept, lazy_generated, partials,
                   substitute)
from .linalg import (_count, _spaces, damped_newton, min_norm_lstsq, null_space, regularity,
                     row_space_rank)

__all__ = [
    "PresymplecticProblem",
    "Constraints",
    "ConstraintLevel",
    "ConstraintRun",
    "SodeResult",
    "kernel",
    "perp",
    "consistency_residual",
    "run_constraint_algorithm",
    "solve_on_final",
    "sode_extract",
    "lagrangian_problem",
    "hamiltonian_problem_from_lagrangian",
]

# A function counts as absent (value and gradient both noise) below these.
ZERO_VALUE_TOL = 1e-9
ZERO_GRAD_TOL = 1e-7
MAX_LEVELS = 10  # levels grown before giving up on stabilization


@dataclass(frozen=True)
class PresymplecticProblem:
    """Presymplectic data over a d-dimensional coordinate space.

    omega(z) is r x r skew, alpha(z) an r-covector, anchor(z) the d x r map
    from fiber vectors to coordinate tangents, alpha_jacobian(z) the r x d
    matrix d alpha / dz. primary(z) returns the values of the primary
    constraints, whose joint zero set is the level-0 set, and their exact
    Jacobian rows; it is None for a problem posed on the whole space.
    """

    d: int
    r: int
    omega: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], np.ndarray]
    anchor: Callable[[np.ndarray], np.ndarray]
    alpha_jacobian: Callable[[np.ndarray], np.ndarray]
    primary: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True, eq=False)
class Constraints:
    """A level's constraints: the problem's primaries, then z -> alpha(z) @ e.

    The columns of e are the directions every level so far kept, side by side.
    A call at z reads the primaries, alpha and alpha_jacobian once each (the
    last two not when e has no columns) and returns the values, their exact
    rows (primary rows, then e^T d(alpha)), and alpha and alpha_jacobian or None.
    """

    problem: PresymplecticProblem
    e: np.ndarray

    def __call__(self, z: np.ndarray) -> tuple:
        problem, e = self.problem, self.e
        parts = [(np.zeros(0), np.zeros((0, problem.d)))]
        if problem.primary is not None:
            parts.append(problem.primary(z))
        alpha = alpha_jacobian = None
        if e.shape[1]:
            alpha, alpha_jacobian = problem.alpha(z), problem.alpha_jacobian(z)
            parts.append((alpha @ e, e.T @ alpha_jacobian))
        values, rows = zip(*parts)
        return np.concatenate(values), np.vstack(rows), alpha, alpha_jacobian


def _constraint_jacobian(constraints: Constraints, z: np.ndarray) -> np.ndarray:
    """Rows of the constraint values' Jacobian at z; a module-level name that
    the traced benchmark run (perfbench/spans.py) wraps."""
    return constraints(z)[1]


def kernel(omega_matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a skew matrix."""
    omega_matrix = np.asarray(omega_matrix, dtype=float)
    skew_defect = np.max(np.abs(omega_matrix + omega_matrix.T), initial=0.0)
    if skew_defect > 1e-10 * (1.0 + np.max(np.abs(omega_matrix), initial=0.0)):
        raise ValueError(f"matrix is not skew (defect {skew_defect:.3e})")
    return null_space(omega_matrix)


def perp(omega_matrix: np.ndarray, f_basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the omega-orthogonal complement of span(f_basis)."""
    omega_matrix = np.asarray(omega_matrix, dtype=float)
    f_basis = np.asarray(f_basis, dtype=float)
    if f_basis.ndim != 2 or f_basis.shape[0] != omega_matrix.shape[0]:
        raise ValueError("f_basis must be r x k")
    if row_space_rank(f_basis) < f_basis.shape[1]:
        raise ValueError("f_basis is rank-deficient")
    return _perp(omega_matrix, f_basis)


def _perp(omega_matrix: np.ndarray, f_basis: np.ndarray) -> np.ndarray:
    """perp without its checks, for an orthonormal f_basis such as `_fiber_basis` gives."""
    return null_space(f_basis.T @ omega_matrix.T)


def _fiber_basis(problem: PresymplecticProblem, j: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
    """Rank-guarded orthonormal basis of the admissible fiber directions cut out by rows j."""
    return _spaces(j @ problem.anchor(z), guarded=True)[1]


@dataclass(frozen=True)
class ConstraintLevel:
    """Level k: the primaries plus the pairing with every direction kept so far."""

    k: int
    constraints: Constraints
    new_rank: int
    fiber_constraint_rank: int
    probe_residuals: tuple[float, ...]

    def report(self) -> dict:
        return {"k": self.k, "new_constraint_rank": self.new_rank,
                "fiber_constraint_rank": self.fiber_constraint_rank,
                "probe_residuals": list(self.probe_residuals)}


@dataclass(frozen=True)
class ConstraintRun:
    """Outcome of a constraint-algorithm run."""

    problem: PresymplecticProblem
    levels: tuple[ConstraintLevel, ...]
    stabilization_level: int
    probes: tuple[np.ndarray, ...]
    final_basis: np.ndarray | None = None  # the last level's fiber basis at probes[0]

    @property
    def final_constraints(self) -> Constraints:
        return self.levels[-1].constraints

    def membership_residual(self, z: np.ndarray) -> float:
        return float(np.max(np.abs(self.final_constraints(z)[0]), initial=0.0))

    def report(self) -> dict:
        return {"levels": [lvl.report() for lvl in self.levels],
                "stabilization_level": self.stabilization_level}


def consistency_residual(problem: PresymplecticProblem, z: np.ndarray,
                         level: ConstraintLevel) -> float:
    """Largest pairing of the forcing with an inadmissible-for-level direction.

    Zero means the dynamical equation is solvable inside the level's fiber
    subspace at z; the value is basis-independent through the max-abs norm.
    """
    z = np.asarray(z, dtype=float)
    e_basis = _fiber_basis(problem, _constraint_jacobian(level.constraints, z), z)
    pair = problem.alpha(z) @ _perp(problem.omega(z), e_basis)
    return float(np.max(np.abs(pair), initial=0.0))


def _project_onto(read: Callable[[np.ndarray], tuple], z0: np.ndarray,
                  tol: float = 1e-12) -> tuple[np.ndarray, tuple]:
    """Move a point onto the zero set of read(z) = (values, rows, ...) by damped
    Gauss-Newton; returns it and its read. rows are the values' Jacobian rows,
    or a function giving them that only a step calls."""

    def residual(zz: np.ndarray) -> tuple[np.ndarray, tuple]:
        data = read(zz)
        return data[0], data

    def step(data: tuple, r: np.ndarray) -> np.ndarray:
        return min_norm_lstsq(data[1]() if callable(data[1]) else data[1], r)[0]

    return damped_newton(residual, step, z0, "constraint projection", tol=tol)


def _grown(basis: np.ndarray, scale: float, row: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Orthonormal rows basis and their scale with row folded in, and whether
    it added rank: whether `_count` with decide_rank's guard counts the size
    of its component off basis against the larger of scale and |row|."""
    off = row - (basis @ row) @ basis
    size, scale = float(np.linalg.norm(off)), max(scale, float(np.linalg.norm(row)))
    if not size or _count(np.array([scale, size]), guarded=True) < 2:
        return basis, scale, False
    return np.vstack([basis, off / size]), scale, True


def _kept_columns(problem: PresymplecticProblem, e: np.ndarray,
                  projected: Sequence[tuple[np.ndarray, tuple]],
                  spans: Sequence[tuple[np.ndarray, np.ndarray, float]]) -> list[int]:
    """Columns of e whose pairing z -> alpha(z) @ e[:, c] cuts the probe set further.

    A column whose pairing is nonzero at some probe is kept; one that
    vanishes at every probe is kept when its gradient is not noise and adds
    rank, at some probe, to the probe's rows (in spans) and the rows kept
    before it, folded in when a candidate reaches the probe.
    """
    alphas = [problem.alpha(z) if read[2] is None else read[2] for z, read in projected]
    vanishes = ~np.any(np.abs(np.vstack([a @ e for a in alphas])) > ZERO_VALUE_TOL, axis=0)
    grads = [e.T @ (problem.alpha_jacobian(z) if read[3] is None else read[3])
             for z, read in projected] if vanishes.any() else []
    kept: list[int] = []
    held = [[basis, scale, 0] for basis, _, scale in spans]  # and how many kept rows it holds

    def adds_rank(p: int, c: int) -> bool:
        g, (basis, scale, count) = grads[p], held[p]
        for row in g[kept[count:]]:
            basis, scale, _ = _grown(basis, scale, row)
        held[p] = [basis, scale, len(kept)]
        return _grown(basis, scale, g[c])[2]

    for c in range(vanishes.size):
        if (not vanishes[c]
                or any(np.max(np.abs(g[c]), initial=0.0) > ZERO_GRAD_TOL for g in grads)
                and any(adds_rank(p, c) for p in range(len(grads)))):
            kept.append(c)
    return kept


def run_constraint_algorithm(problem: PresymplecticProblem,
                             seeds: Sequence[np.ndarray]) -> ConstraintRun:
    """Grow constraint levels until the forcing is compatible at every probe.

    Probe points are projected onto each new zero set, whose last read is the
    probe's. The candidate directions are the omega-orthogonal complements of
    the admissible ones at every probe; those kept join the columns of E in
    the next level's constraints, the primaries and z -> alpha(z) @ E. A
    level is final when none is kept.
    """
    if not seeds:
        raise ValueError("need at least one seed point")
    accumulated = Constraints(problem, np.zeros((problem.r, 0)))
    projected = [_project_onto(accumulated, np.asarray(s, dtype=float)) for s in seeds]

    levels: list[ConstraintLevel] = []
    old_rank = 0
    for k in range(MAX_LEVELS):
        spans = [_spaces(read[1], guarded=True) for _, read in projected]
        rank = max(len(rows) for rows, _, _ in spans)
        bases = [_fiber_basis(problem, read[1], z) for z, read in projected]
        levels.append(ConstraintLevel(
            k=k, constraints=accumulated, new_rank=rank - old_rank,
            fiber_constraint_rank=problem.r - bases[0].shape[1],
            probe_residuals=tuple(float(np.max(np.abs(read[0]), initial=0.0))
                                  for _, read in projected)))
        old_rank = rank

        e = np.hstack([_perp(problem.omega(z), b) for (z, _), b in zip(projected, bases)])
        kept = _kept_columns(problem, e, projected, spans) if e.shape[1] else []
        if not kept:
            return ConstraintRun(problem=problem, levels=tuple(levels), stabilization_level=k,
                                 probes=tuple(z for z, _ in projected), final_basis=bases[0])
        accumulated = Constraints(problem, np.hstack([accumulated.e, e[:, kept]]))
        projected = [_project_onto(accumulated, z) for z, _ in projected]

    raise MaxLevelsExceeded(f"no stabilization within {MAX_LEVELS} levels")


@dataclass(frozen=True)
class SolveResult:
    X: np.ndarray
    residual: float
    basis: np.ndarray


def solve_on_final(problem: PresymplecticProblem, z: np.ndarray,
                   run: ConstraintRun | None = None,
                   basis: np.ndarray | None = None,
                   tol: float = 1e-9) -> SolveResult:
    """Minimum-norm fiber solution of the dynamical equation at a final point.

    Solves omega(z) X = alpha(z) over X in the span of the admissible basis;
    a residual above tol means the sequence should not have stopped here.
    """
    z = np.asarray(z, dtype=float)
    alpha = None
    if basis is None:
        constraints = (run.final_constraints if run is not None
                       else Constraints(problem, np.zeros((problem.r, 0))))
        _, rows, alpha, _ = constraints(z)
        basis = _fiber_basis(problem, rows, z)
    alpha = problem.alpha(z) if alpha is None else alpha
    if not basis.shape[1]:
        residual = float(np.max(np.abs(alpha), initial=0.0))
        if residual > tol:
            raise InconsistentDynamics(f"no admissible directions, residual {residual:.3e}")
        return SolveResult(X=np.zeros(problem.r), residual=residual, basis=basis)
    c, residual = min_norm_lstsq(problem.omega(z) @ basis, alpha)
    if residual > tol:
        raise InconsistentDynamics(
            f"restricted dynamical equation inconsistent, residual {residual:.3e}")
    return SolveResult(X=basis @ c, residual=residual, basis=basis)


@dataclass(frozen=True)
class SodeResult:
    """Second-order locus membership and the extracted SODE value."""

    at: EPoint
    on_locus: bool
    defect: np.ndarray
    xi_X: np.ndarray
    xi_V: np.ndarray
    solve_residual: float


def sode_extract(sys: LagrangianSystem, run: ConstraintRun, at: EPoint) -> SodeResult:
    """Extract the second-order field on the final constraint set.

    At a final-set point, membership of the second-order locus means the
    minimum-norm solution's X-components equal the velocities; on the locus
    the vertical components come from the force system of the Lagrangian.
    """
    z = np.concatenate([at.x, at.y])
    membership = run.membership_residual(z)
    if membership > 1e-6:
        raise NotOnFinalManifold(f"point violates final constraints by {membership:.3e}")
    solved = solve_on_final(run.problem, z, run=run)
    defect = solved.X[:sys.chart.n] - at.y
    on_locus = bool(np.max(np.abs(defect), initial=0.0) < 1e-8)
    w, b = _el_force_rhs(sys, at)
    xi_v, resid = min_norm_lstsq(w, b)
    if resid > 1e-7:
        raise LinearSolveResidualTooLarge(
            f"force system residual {resid:.3e} at a locus point")
    return SodeResult(at=at, on_locus=on_locus, defect=defect,
                      xi_X=at.y.copy(), xi_V=xi_v, solve_residual=resid)


# ---------------------------------------------------------------------------
# Problem builders for the two sides of a Lagrangian system


def _anchor_trees(spec, rho: list[Expr]) -> list[Expr]:
    """The prolongation anchor [[rho, 0], [0, I]], (m + n) x 2n, row-major."""
    m, n = spec.m, spec.n
    return [rho[i * n + a] if i < m and a < n else _ONE if i - m == a - n else _ZERO
            for i in range(m + n) for a in range(2 * n)]


def _forcing(spec, g: list[Expr], h: list[Expr] | None = None) -> tuple:
    """The group of alpha = -[rho^T g[:m]; g[m:]], g the gradient of a
    function of (x, v); given its Hessian h too, row-major, of d alpha
    instead: -[rho^T h[:m] + d rho . g[:m]; h[m:]], 2n x (m + n). Each sum
    runs in the numpy assembly's order, the d rho term subtracted last."""
    m, n, d = spec.m, spec.n, spec.m + spec.n
    rho = _tensor_trees(_tensor_slots(spec)[0])
    neg = functools.partial(_fold, "-", _ZERO)
    if h is None:
        return [neg(_dot(zip(rho[a::n], g))) for a in range(n)] + [*map(neg, g[m:])], (2 * n,), 0
    drho = [partials(tree, spec.base) for tree in rho]
    return [_fold("-", neg(_dot(zip(rho[a::n], h[j::d]))),
                  _dot((drho[i * n + a][j], g[i]) for i in range(m)) if j < m else _ZERO)
            for a in range(n) for j in range(d)] + [*map(neg, h[m * d:])], (2 * n, d), 0


def _lagrangian_layout(spec, lagrangian: Expr) -> tuple:
    """omega_L, alpha and the anchor as trees over (x, y), in `cartan`'s and
    `energy_differential`'s assembly: omega_L = [[M - M^T + L_y.C, W], [-W^T, 0]],
    M = hxy^T rho, and alpha = -[rho^T (hxy y - L_x); W y]. L's jet, rho's
    and C's entries are walked first, as the mechanics point walks them."""
    m, n, d = spec.m, spec.n, spec.m + spec.n
    jet = _jet_layout(lagrangian, spec.base + spec.fiber, 2)[0]
    g, h = jet[1][0], jet[2][0]
    rho, cs = map(_tensor_trees, _tensor_slots(spec))
    hxy = [h[i * d + m:(i + 1) * d] for i in range(m)]
    w = [h[a * d + m:(a + 1) * d] for a in range(m, d)]
    mx = [[_dot(zip((row[a] for row in hxy), rho[b::n])) for b in range(n)] for a in range(n)]
    omega = [t for a in range(n) for t in [
        _fold("+", _fold("-", mx[a][b], mx[b][a]), _dot(zip(g[m:], cs[a * n + b::n * n])))
        for b in range(n)] + w[a]]
    omega += [t for a in range(n) for t in [_fold("-", _ZERO, w[b][a]) for b in range(n)]
              + [_ZERO] * n]
    y = [Var(name) for name in spec.fiber]
    alpha = _forcing(spec, [_fold("-", _dot(zip(row, y)), lx) for row, lx in zip(hxy, g)]
                     + [_dot(zip(row, y)) for row in w])
    groups = [(omega, (2 * n, 2 * n), 0), alpha, (_anchor_trees(spec, rho), (d, 2 * n), 0)]
    return groups, jet + [(rho, None, 0), (cs, None, 0)]


def _forcing_layout(spec, g: list[Expr], h: list[Expr] | None = None,
                    checks: list = ()) -> tuple:
    """`_forcing`'s group, walked after checks and rho's entries."""
    return [_forcing(spec, g, h)], [*checks, (_tensor_trees(_tensor_slots(spec)[0]), None, 0)]


def _energy_forcing_layout(spec, lagrangian: Expr) -> tuple:
    """d alpha over (x, y) from E_L's jet, which is walked first."""
    names = spec.base + spec.fiber
    jet = _jet_layout(_energy_tree(lagrangian, names, spec.m), names, 2)[0]
    return _forcing_layout(spec, jet[1][0], jet[2][0], jet)


def lagrangian_problem(sys: LagrangianSystem) -> PresymplecticProblem:
    """Presymplectic problem of the Cartan section with energy forcing.

    Coordinates are z = (x, y); fiber directions are (X_A, V_A). The forcing
    is the negated energy differential so that solving omega X = alpha gives
    the dynamics rather than its time-reverse. Its exact Jacobian comes from
    the Hessian of the E_L tree.
    """
    spec, lagrangian = sys.chart.spec, sys._sf.expr

    def code(role: str, layout: Callable) -> Callable[[np.ndarray], object]:
        # the entry's layout holds L, so its id stays L's
        return kept(spec, (role, id(lagrangian)), lambda: lazy_generated(
            spec.base + spec.fiber, spec.params, functools.partial(layout, spec, lagrangian)))

    point = code("presymplectic_point", _lagrangian_layout)
    return PresymplecticProblem(
        d=spec.m + spec.n, r=2 * spec.n, omega=lambda z: point(z)[0],
        alpha=lambda z: point(z)[1], anchor=lambda z: point(z)[2],
        alpha_jacobian=code("energy_forcing_jacobian", _energy_forcing_layout))


def _kernel_indices(sys: LagrangianSystem) -> tuple[int, ...]:
    """Indices of a constant, coordinate-aligned kernel of the y-Hessian W.

    Sampled at fixed points away from the coordinate origin (degeneracy loci
    of the presets sit at zero). At each, the kernel is the rows of W within
    sys.rank_rtol of zero relative to its largest entry, and the rest of W
    must pass regularity. A kernel that moves or tilts across samples is out
    of scope for the Hamiltonian-side builder. The indices are sampled
    once for the Lagrangian's root node, names, params and rank tolerance,
    and kept on that node; a sampling that raises keeps nothing.
    """
    key = ("kernel_indices", sys._sf.names, sys.chart.m,
           tuple(sorted(sys._sf.params.items())), sys.rank_rtol)
    return kept(sys._sf.expr, key, functools.partial(_sampled_kernel, sys))


def _sampled_kernel(sys: LagrangianSystem) -> tuple[int, ...]:
    m, n, names = sys.chart.m, sys.chart.n, sys._sf.names
    # W's trees, each shared node evaluated once per point: the point's bits
    hessian = _jet_layout(sys._sf.expr, names, 2)[0][2][0]
    trees = [hessian[(m + a) * (m + n) + m + b] for a in range(n) for b in range(n)]
    rng = np.random.default_rng(12345)
    idx = None
    for _ in range(5):
        x = rng.uniform(0.5, 1.5, size=m)
        y = rng.uniform(-0.5, 0.5, size=n)
        w = np.array(_evaluated([(trees, (n, n), 2)], _bindings(names, sys._sf.params, [*x, *y]),
                                names[m:])).reshape(n, n)
        rows = np.max(np.abs(w), axis=1)
        in_kernel = rows <= sys.rank_rtol * np.max(rows)
        here = tuple(np.flatnonzero(in_kernel).tolist())
        tr = np.flatnonzero(~in_kernel)
        if idx not in (None, here) or (
                tr.size and not regularity(w[np.ix_(tr, tr)], sys.rank_rtol)[0]):
            raise AmechError("kernel of the velocity Hessian varies across sample "
                             "points or is not coordinate-aligned; "
                             "Hamiltonian-side construction unavailable")
        idx = here
    return idx


# Bound under presym's own name: the traced benchmark run (perfbench/spans.py)
# wraps `presym.HamiltonianSideData._solve_velocity`.
HamiltonianSideData = LegendreEnergy


def hamiltonian_problem_from_lagrangian(
        sys: LagrangianSystem) -> tuple[PresymplecticProblem,
                                        QuadraticHamiltonian | LegendreEnergy]:
    """Dual-bundle presymplectic problem of a Lagrangian, on its momentum image.

    Coordinates are z = (x, p); level-0 constraints are the primary ones
    (empty for regular L). The forcing is the negated differential of the
    induced Hamiltonian, its exact Jacobian from the Hamiltonian's Hessian:
    for a QuadraticHamiltonian in the generated point, and d alpha from its
    Hessian trees in a second call; a LegendreEnergy's, read at z, are fed
    to the spec's generated forcing.
    """
    spec, lagrangian = sys.chart.spec, sys._sf.expr
    m, n = spec.m, spec.n
    kernel = _kernel_indices(sys)
    data = hamiltonian_from_lagrangian(sys, kernel_idx=kernel)
    g = data.gradient_trees if isinstance(data, QuadraticHamiltonian) else None

    def code(role: str, layout: Callable) -> Callable[[np.ndarray], object]:
        # the entry's layout holds L, so its id stays L's
        return kept(spec, (role, id(lagrangian), kernel), lambda: lazy_generated(
            spec.base + momentum_names(n), spec.params, layout))

    point = code("dual_presymplectic_point",
                 functools.partial(_dual_layout, spec, lagrangian, kernel, g))
    if g is None:
        codes = [_forcing_code(spec, hessian) for hessian in (False, True)]

        def forcing(z: np.ndarray, hessian: bool = False) -> np.ndarray:
            at = DualPoint(z[:m], z[m:])
            parts = [at.x, *data.gradients(at)] + ([data.hessian(at).ravel()] if hessian else [])
            return codes[hessian](np.concatenate(parts))

        alpha, alpha_jacobian = forcing, functools.partial(forcing, hessian=True)
    else:
        alpha, alpha_jacobian = (lambda z: point(z)[4]), code(
            "dual_forcing_jacobian", lambda: _forcing_layout(spec, g, data.hessian_trees()))
    return PresymplecticProblem(
        d=m + n, r=2 * n, omega=lambda z: point(z)[0], alpha=alpha,
        anchor=lambda z: point(z)[1], alpha_jacobian=alpha_jacobian,
        primary=(lambda z: point(z)[2:4]) if kernel else None), data


def _dual_layout(spec, lagrangian: Expr, kernel: tuple[int, ...],
                 g: list[Expr] | None) -> tuple:
    """omega_E = [[C.p, I], [-I, 0]] and the anchor as trees over (x, p), in
    `omega_E_matrix`'s assembly, the primaries p_K - dL/dy_K(x, 0) with
    their rows (-d2L/dy_K dx at (x, 0), e_K), and alpha given H's gradient
    g; rho's and C's entries are walked first."""
    m, n, d = spec.m, spec.n, spec.m + spec.n
    rho, cs = map(_tensor_trees, _tensor_slots(spec))
    p = [Var(name) for name in momentum_names(n)]
    omega = [t for a in range(n) for t in [_dot(zip(cs[a * n + b::n * n], p)) for b in range(n)]
             + [_ONE if b == a else _ZERO for b in range(n)]]
    omega += [Const(-1.0) if b == a else _ZERO for a in range(n) for b in range(2 * n)]
    at_zero = dict.fromkeys(spec.fiber, _ZERO)
    jet = _jet_layout(lagrangian, spec.base + spec.fiber, 2)[0]
    phi = [_fold("-", p[a], substitute(jet[1][0][m + a], at_zero)) for a in kernel]
    rows = [Unary("neg", substitute(jet[2][0][(m + a) * d + i], at_zero)) if i < m
            else _ONE if i == m + a else _ZERO for a in kernel for i in range(d)]
    groups = [(omega, (2 * n, 2 * n), 0), (_anchor_trees(spec, rho), (m + n, 2 * n), 0),
              (phi, (len(kernel),), 0), (rows, (len(kernel), d), 0)]
    return groups + ([_forcing(spec, g)] if g else []), [(rho, None, 0), (cs, None, 0)]


def _forcing_code(spec, hessian: bool) -> Callable[[np.ndarray], np.ndarray]:
    """The spec's generated alpha of the packed (x, g), or d alpha of the
    packed (x, g, h), g and h a function's gradient and row-major Hessian in
    (x, p); kept on the spec."""
    m, d = spec.m, spec.m + spec.n
    # no spec name holds a "/", so these slots are never shadowed
    names = spec.base + tuple(f"g/{k}" for k in range(d)) + tuple(
        f"h/{k}" for k in range(d * d * hessian))
    g, h = [Var(name) for name in names[m:m + d]], [Var(name) for name in names[m + d:]]
    return kept(spec, ("forcing", hessian), lambda: lazy_generated(
        names, spec.params, functools.partial(_forcing_layout, spec, g, h or None)))
