"""Pointwise constraint algorithm for presymplectic systems on algebroids.

A problem bundles the presymplectic matrix field, the forcing covector and
the anchor that maps fiber directions to coordinate tangents. The engine
grows a sequence of constraint levels until the forcing is compatible with
the admissible fiber directions, then solves the restricted dynamical
equation. Each level adds one constraint field, the pairing z -> alpha(z) @ E
of the forcing with the directions E it keeps, one component per column.
The Lagrangian and Hamiltonian sides of a concrete system are wired up by the
two problem builders at the bottom.

The Hamiltonian side takes its Hamiltonian, Hessian and primary constraints
from `dynamics.LegendreEnergy` with the kernel of the velocity Hessian.
Every problem carries the exact Jacobian of its forcing, so constraint
gradients are exact: a level field's Jacobian is E^T d(alpha), and the
primary constraints of the Hamiltonian side read theirs from one Hessian of
L. Only a plain closure field, such as the SODE defect that `cli` projects
onto, is differenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebroid import DualPoint
from .dynamics import (EPoint, LagrangianSystem, LegendreEnergy, PrimaryConstraint,
                       _el_force_rhs, cartan, energy_differential)
from .errors import (AmechError, InconsistentDynamics,
                     LinearSolveResidualTooLarge, MaxLevelsExceeded,
                     NotOnFinalManifold)
# Bound under presym's own name: the traced benchmark run (perfbench/spans.py)
# wraps `presym._fd_gradient`.
from .expr import _fd_gradient
from .linalg import (_null_space, damped_newton, decide_rank, min_norm_lstsq, null_space,
                     regularity, row_space_rank)

__all__ = [
    "PresymplecticProblem",
    "Pairing",
    "PrimaryConstraint",
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

# A constraint field returns one value (float) or several (1-D array). A field
# with a `jacobian(z)` method is differentiated by it, any other by differences.
ConstraintField = Callable[[np.ndarray], "float | np.ndarray"]


@dataclass(frozen=True)
class PresymplecticProblem:
    """Presymplectic data over a d-dimensional coordinate space.

    omega(z) is r x r skew, alpha(z) an r-covector, anchor(z) the d x r map
    from fiber vectors to coordinate tangents, alpha_jacobian(z) the r x d
    matrix d alpha / dz. constraints are fields whose joint zero
    set is the level-0 set (empty for a problem posed on the whole space);
    each may return one value or an array of them.
    """

    d: int
    r: int
    omega: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], np.ndarray]
    anchor: Callable[[np.ndarray], np.ndarray]
    alpha_jacobian: Callable[[np.ndarray], np.ndarray]
    constraints: tuple[ConstraintField, ...] = ()


class Pairing:
    """Level field z -> alpha(z) @ e: the forcing paired with the columns of e."""

    def __init__(self, problem: PresymplecticProblem, e: np.ndarray):
        self.problem = problem
        self.e = e

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.problem.alpha(z) @ self.e

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """e^T d(alpha) at z."""
        return self.e.T @ self.problem.alpha_jacobian(z)


def _values(constraints: Sequence[ConstraintField], z: np.ndarray) -> np.ndarray:
    """Values of every constraint field at z, stacked into one vector."""
    return np.concatenate([np.zeros(0)] + [np.ravel(g(z)) for g in constraints])


def _field_jacobian(g: ConstraintField, z: np.ndarray) -> np.ndarray:
    """Jacobian of one field at z, one row per value."""
    jacobian = getattr(g, "jacobian", None)
    rows = jacobian(z) if jacobian is not None else _fd_gradient(g, z)
    return np.reshape(rows, (-1, z.size))


def _constraint_jacobian(constraints: Sequence[ConstraintField],
                         z: np.ndarray) -> np.ndarray:
    """Rows of the stacked constraint values' Jacobian at z."""
    z = np.asarray(z, dtype=float)
    return np.vstack([np.zeros((0, z.size))]
                     + [_field_jacobian(g, z) for g in constraints])


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
    return null_space(f_basis.T @ omega_matrix.T)


def _fiber_basis(problem: PresymplecticProblem, j: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
    """Rank-guarded basis of the admissible fiber directions cut out by rows j."""
    return _null_space(j @ problem.anchor(z), guarded=True)


@dataclass(frozen=True)
class ConstraintLevel:
    """Level k: the level-0 constraint fields plus one pairing field per level."""

    k: int
    constraints: tuple[ConstraintField, ...]
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

    @property
    def final_constraints(self) -> tuple[ConstraintField, ...]:
        return self.levels[-1].constraints

    def membership_residual(self, z: np.ndarray) -> float:
        return float(np.max(np.abs(_values(self.final_constraints, z)), initial=0.0))

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
    v = perp(problem.omega(z), e_basis)
    if not v.shape[1]:
        return 0.0
    pair = problem.alpha(z) @ v
    return float(np.max(np.abs(pair)))


def _project_onto(constraints: Sequence[ConstraintField], z0: np.ndarray,
                  tol: float = 1e-12) -> np.ndarray:
    """Move a point onto the joint zero set by damped Gauss-Newton."""

    def step(zz: np.ndarray, r: np.ndarray) -> np.ndarray:
        return min_norm_lstsq(_constraint_jacobian(constraints, zz), r)[0]

    return damped_newton(lambda zz: (_values(constraints, zz), zz), step, z0,
                         "constraint projection", tol=tol)[0]


def _kept_columns(candidates: ConstraintField, probes: Sequence[np.ndarray],
                  jacs: Sequence[np.ndarray]) -> list[int]:
    """Components of a candidate field that cut the probe set further.

    A component nonzero at some probe is kept; one that vanishes at every
    probe is kept when its gradient is not noise and adds rank, at some probe,
    to the accumulated rows jacs[p] plus the rows kept before it.
    """
    values = np.vstack([candidates(z) for z in probes])
    vanishes = ~np.any(np.abs(values) > ZERO_VALUE_TOL, axis=0)
    grads = [_field_jacobian(candidates, z) for z in probes] if vanishes.any() else []
    kept: list[int] = []
    for c in range(vanishes.size):
        if not vanishes[c]:
            kept.append(c)
        elif (any(np.max(np.abs(g[c]), initial=0.0) > ZERO_GRAD_TOL for g in grads)
              and any(decide_rank(np.vstack([j, g[kept + [c]]]))
                      > decide_rank(np.vstack([j, g[kept]]))
                      for j, g in zip(jacs, grads))):
            kept.append(c)
    return kept


def run_constraint_algorithm(problem: PresymplecticProblem,
                             seeds: Sequence[np.ndarray]) -> ConstraintRun:
    """Grow constraint levels until the forcing is compatible at every probe.

    Probe points are projected onto each new zero set. The candidate
    directions are the omega-orthogonal complements of the admissible ones at
    every probe; those kept become the columns of E in the next level's field
    z -> alpha(z) @ E. A level is final when none is kept.
    """
    if not seeds:
        raise ValueError("need at least one seed point")
    accumulated = list(problem.constraints)
    probes = [_project_onto(accumulated, np.asarray(s, dtype=float)) for s in seeds]

    levels: list[ConstraintLevel] = []
    old_rank = 0
    for k in range(MAX_LEVELS):
        jacs = [_constraint_jacobian(accumulated, z) for z in probes]
        rank = max(decide_rank(j) for j in jacs)
        bases = [_fiber_basis(problem, j, z) for j, z in zip(jacs, probes)]
        levels.append(ConstraintLevel(
            k=k, constraints=tuple(accumulated), new_rank=rank - old_rank,
            fiber_constraint_rank=problem.r - bases[0].shape[1],
            probe_residuals=tuple(float(np.max(np.abs(_values(accumulated, z)),
                                               initial=0.0)) for z in probes)))
        old_rank = rank

        e = np.hstack([perp(problem.omega(z), b) for z, b in zip(probes, bases)])
        kept = _kept_columns(Pairing(problem, e), probes, jacs) if e.shape[1] else []
        if not kept:
            return ConstraintRun(problem=problem, levels=tuple(levels),
                                 stabilization_level=k, probes=tuple(probes))
        accumulated.append(Pairing(problem, e[:, kept]))
        probes = [_project_onto(accumulated, z) for z in probes]

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
    if basis is None:
        constraints = run.final_constraints if run is not None else problem.constraints
        basis = _fiber_basis(problem, _constraint_jacobian(constraints, z), z)
    alpha = problem.alpha(z)
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


def _prolongation_anchor(chart, x: np.ndarray) -> np.ndarray:
    m, n = chart.m, chart.n
    out = np.zeros((m + n, 2 * n))
    out[:m, :n] = chart.rho(x)
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
        _, g, h = sys.energy_derivatives(EPoint(z[:m], z[m:]))
        return _forcing_jacobian(chart, z[:m], g, h)

    def anchor(z: np.ndarray) -> np.ndarray:
        return _prolongation_anchor(chart, z[:m])

    return PresymplecticProblem(d=m + n, r=2 * n, omega=omega, alpha=alpha,
                                anchor=anchor, alpha_jacobian=alpha_jacobian)


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

    def omega(z: np.ndarray) -> np.ndarray:
        return omega_E_matrix(chart, DualPoint(z[:m], z[m:]))

    def alpha(z: np.ndarray) -> np.ndarray:
        hx, hp = data.gradients(DualPoint(z[:m], z[m:]))
        return -np.concatenate([chart.rho(z[:m]).T @ hx, hp])

    def alpha_jacobian(z: np.ndarray) -> np.ndarray:
        at = DualPoint(z[:m], z[m:])
        return _forcing_jacobian(chart, at.x, np.concatenate(data.gradients(at)),
                                 data.hessian(at))

    def anchor(z: np.ndarray) -> np.ndarray:
        return _prolongation_anchor(chart, z[:m])

    problem = PresymplecticProblem(
        d=m + n, r=2 * n, omega=omega, alpha=alpha, anchor=anchor,
        alpha_jacobian=alpha_jacobian, constraints=data.primary_constraints())
    return problem, data
