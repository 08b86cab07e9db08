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
has differenced rows. The two builders at the bottom wire up the Lagrangian
side and the Hamiltonian side, which takes its Hamiltonian from
`dynamics.LegendreEnergy` with the kernel of the velocity Hessian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebroid import DualPoint
from .dynamics import (EPoint, LagrangianSystem, LegendreEnergy, _el_force_rhs, cartan,
                       energy_differential)
from .errors import (AmechError, InconsistentDynamics,
                     LinearSolveResidualTooLarge, MaxLevelsExceeded,
                     NotOnFinalManifold)
# Bound under presym's own name, where cli's SODE projection imports it at
# call time: the traced benchmark run (perfbench/spans.py) wraps
# `presym._fd_gradient`.
from .expr import _fd_gradient
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


def _prolongation_anchor(chart, z: np.ndarray) -> np.ndarray:
    m, n = chart.m, chart.n
    out = np.zeros((m + n, 2 * n))
    out[:m, :n] = chart.rho(z[:m])
    out[m:, n:] = np.eye(n)
    return out


def _forcing_jacobian(chart, x: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d alpha for alpha = -[rho^T d_x f ; d_v f], f a function of (x, v)
    with gradient g and Hessian h at the point."""
    m, n = chart.m, chart.n
    out = np.zeros((2 * n, m + n))
    out[n:] = -h[m:]
    out[:n] = -(chart.rho(x).T @ h[:m])
    out[:n, :m] -= np.einsum("iaj,i->aj", chart.rho_jacobian(x), g[:m])
    return out


def lagrangian_problem(sys: LagrangianSystem) -> PresymplecticProblem:
    """Presymplectic problem of the Cartan section with energy forcing.

    Coordinates are z = (x, y); fiber directions are (X_A, V_A). The forcing
    is the negated energy differential so that solving omega X = alpha gives
    the dynamics rather than its time-reverse. Its exact Jacobian comes from
    the Hessian of the E_L tree.
    """
    chart = sys.chart
    m, n = chart.m, chart.n

    def omega(z: np.ndarray) -> np.ndarray:
        return cartan(sys, EPoint(z[:m], z[m:])).omegaL

    def alpha(z: np.ndarray) -> np.ndarray:
        return -energy_differential(sys, EPoint(z[:m], z[m:]))

    def alpha_jacobian(z: np.ndarray) -> np.ndarray:
        _, g, h = sys.energy_derivatives(z)
        return _forcing_jacobian(chart, z[:m], g, h)

    return PresymplecticProblem(d=m + n, r=2 * n, omega=omega, alpha=alpha,
                                anchor=functools.partial(_prolongation_anchor, chart),
                                alpha_jacobian=alpha_jacobian)


def _kernel_indices(sys: LagrangianSystem) -> tuple[int, ...]:
    """Indices of a constant, coordinate-aligned kernel of the y-Hessian W.

    Sampled at fixed points away from the coordinate origin (degeneracy loci
    of the presets sit at zero). At each, the kernel is the rows of W within
    sys.rank_rtol of zero relative to its largest entry, and the rest of W
    must pass regularity. A kernel that moves or tilts across samples is out
    of scope for the Hamiltonian-side builder.
    """
    chart = sys.chart
    rng = np.random.default_rng(12345)
    idx = None
    for _ in range(5):
        x = rng.uniform(0.5, 1.5, size=chart.m)
        y = rng.uniform(-0.5, 0.5, size=chart.n)
        _, w = sys.second_derivatives(EPoint(x, y))
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


def _primary_constraints(sys: LagrangianSystem, kernel_idx: np.ndarray,
                         z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_K(x, p) = p_K - dL/dy_K(x, 0) over the kernel directions K, and
    their rows (-d2L/dy_K dx at (x, 0), e_K), from one call of L's
    derivatives: dL/dy along a kernel direction is velocity-independent.
    """
    m, n = sys.chart.m, sys.chart.n
    d = sys.derivatives(EPoint(z[:m], np.zeros(n)))
    rows = np.zeros((kernel_idx.size, m + n))
    rows[:, :m] = -d.hxy[:, kernel_idx].T
    rows[np.arange(kernel_idx.size), m + kernel_idx] = 1.0
    return z[m + kernel_idx] - d.ly[kernel_idx], rows


# Bound under presym's own name: the traced benchmark run (perfbench/spans.py)
# wraps `presym.HamiltonianSideData._solve_velocity`.
HamiltonianSideData = LegendreEnergy


def hamiltonian_problem_from_lagrangian(
        sys: LagrangianSystem) -> tuple[PresymplecticProblem, LegendreEnergy]:
    """Dual-bundle presymplectic problem of a Lagrangian, on its momentum image.

    Coordinates are z = (x, p); level-0 constraints are the primary ones
    (empty for regular L). The forcing is the negated differential of the
    induced Hamiltonian, its exact Jacobian from the Hessian of the
    Hamiltonian.
    """
    from .algebroid import omega_E_matrix

    chart = sys.chart
    m, n = chart.m, chart.n
    data = LegendreEnergy(sys, _kernel_indices(sys))
    primary = (functools.partial(_primary_constraints, sys,
                                 np.array(data.kernel_idx, dtype=np.intp))
               if data.kernel_idx else None)

    def omega(z: np.ndarray) -> np.ndarray:
        return omega_E_matrix(chart, DualPoint(z[:m], z[m:]))

    def alpha(z: np.ndarray) -> np.ndarray:
        hx, hp = data.gradients(DualPoint(z[:m], z[m:]))
        return -np.concatenate([chart.rho(z[:m]).T @ hx, hp])

    def alpha_jacobian(z: np.ndarray) -> np.ndarray:
        at = DualPoint(z[:m], z[m:])
        return _forcing_jacobian(chart, at.x, np.concatenate(data.gradients(at)),
                                 data.hessian(at))

    problem = PresymplecticProblem(
        d=m + n, r=2 * n, omega=omega, alpha=alpha,
        anchor=functools.partial(_prolongation_anchor, chart),
        alpha_jacobian=alpha_jacobian, primary=primary)
    return problem, data
