"""Constraint-algorithm engine: kernels, levels, restricted solves, SODE."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from amech import dynamics, expr, presym
from amech.dsl import parse_system
from amech.dynamics import (EPoint, LegendreEnergy, cartan,
                            energy_differential, euler_lagrange_rhs,
                            legendre, system_from_spec)
from amech.errors import (
    AmechError,
    InconsistentDynamics,
    NewtonFailed,
    NotOnFinalManifold,
    RankAmbiguous,
)
from amech.expr import _fd_gradient
from amech.linalg import _spaces, decide_rank, rank_rtol
from amech.presets import ids as preset_ids, load as load_preset
from amech.presym import (
    ConstraintLevel,
    ConstraintRun,
    Constraints,
    PresymplecticProblem,
    _fiber_basis,
    _kernel_indices,
    _project_onto,
    consistency_residual,
    hamiltonian_problem_from_lagrangian,
    kernel,
    lagrangian_problem,
    perp,
    run_constraint_algorithm,
    sode_extract,
    solve_on_final,
)

OMEGA3 = np.array([[0.0, 1.0, 0.0],
                   [-1.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0]])


def _ck():
    return system_from_spec(load_preset("capri_kobayashi").spec)


def _seeds(m, n, count, seed):
    rng = np.random.default_rng(seed)
    return [np.concatenate([rng.uniform(0.6, 1.4, m), rng.uniform(-0.5, 0.5, n)])
            for _ in range(count)]


# -- kernel and perp ----------------------------------------------------------


def test_kernel_of_rank_two_skew():
    k = kernel(OMEGA3)
    assert k.shape == (3, 1)
    assert abs(abs(k[2, 0]) - 1.0) < 1e-14
    assert_allclose(OMEGA3 @ k, np.zeros((3, 1)), atol=1e-14)


def test_kernel_empty_for_symplectic_block():
    k = kernel(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert k.shape == (2, 0)


def test_kernel_rejects_non_skew():
    with pytest.raises(ValueError):
        kernel(np.eye(2))


def test_perp_hand_oracle():
    # F = e1: omega-orthogonal complement is span{e1, e3}
    f = np.array([[1.0], [0.0], [0.0]])
    v = perp(OMEGA3, f)
    assert v.shape == (3, 2)
    assert_allclose(f.T @ OMEGA3.T @ v, np.zeros((1, 2)), atol=1e-14)
    assert np.max(np.abs(v[1, :])) < 1e-14


def test_perp_validates_basis():
    with pytest.raises(ValueError):
        perp(OMEGA3, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        perp(OMEGA3, np.column_stack([np.ones(3), np.ones(3)]))


def _skews():
    entries = st.integers(min_value=-3, max_value=3)

    @st.composite
    def build(draw):
        d = draw(st.integers(min_value=2, max_value=5))
        mat = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                     min_size=d, max_size=d)), dtype=float)
        k = draw(st.integers(min_value=1, max_value=d))
        f = np.array(draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                   min_size=d, max_size=d)), dtype=float)
        return mat - mat.T, f

    return build()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=_skews())
def test_perp_dimension_and_kernel_inclusion(data):
    omega, f = data
    d = omega.shape[0]
    svals = np.linalg.svd(f, compute_uv=False)
    assume(svals.size and svals[-1] > 1e-9 * max(svals[0], 1.0))
    v = perp(omega, f)
    # columns are orthonormal and omega-orthogonal to span(f)
    assert_allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-12)
    assert np.max(np.abs(f.T @ omega.T @ v), initial=0.0) < 1e-9
    prod = omega @ f
    rank = np.linalg.matrix_rank(prod, tol=1e-9 * max(1.0, np.max(np.abs(prod))))
    assert v.shape[1] == d - rank
    # ker(omega) is contained in every omega-orthogonal complement
    k = kernel(omega)
    if k.shape[1] and v.shape[1]:
        proj = v @ (v.T @ k)
        assert np.max(np.abs(proj - k)) < 1e-9


def test_the_fiber_basis_takes_its_guarded_rank_and_basis_from_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(kw) or svd(a, **kw))
    sys = _ck()
    problem = lagrangian_problem(sys)
    z = _seeds(sys.chart.m, sys.chart.n, 1, seed=0)[0]
    j = np.eye(problem.d)[:2]
    basis = _fiber_basis(problem, j, z)
    assert len(calls) == 1
    a = j @ problem.anchor(z)
    assert basis.shape == (problem.r, problem.r - 2)
    assert np.max(np.abs(a @ basis)) < 1e-12


def test_the_fiber_basis_refuses_a_rank_inside_the_band():
    problem = PresymplecticProblem(d=2, r=2, omega=None, alpha=None, alpha_jacobian=None,
                                   anchor=lambda z: np.diag([1.0, 1e-8]))
    with pytest.raises(RankAmbiguous):
        _fiber_basis(problem, np.eye(2), np.zeros(2))


def test_the_fiber_basis_is_orthonormal():
    # the loop takes omega-orthogonal complements of it without perp's check
    rng = np.random.default_rng(13)
    for side in SIDES:
        problem = _problem(_ck(), side)
        for z in _seeds(3, 4, 3, seed=14):
            for j in (np.zeros((0, problem.d)), rng.normal(size=(2, problem.d)),
                      np.eye(problem.d)[[0, 1, 3]]):
                basis = _fiber_basis(problem, j, z)
                assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-14)
                assert np.max(np.abs(j @ problem.anchor(z) @ basis), initial=0.0) < 1e-12


# -- incremental rank of the kept columns ---------------------------------------


def _pairing_problem(rows):
    """A problem whose pairings all vanish and whose candidate gradients, with
    e the identity, are rows."""
    rows = np.asarray(rows, dtype=float)
    return PresymplecticProblem(d=rows.shape[1], r=rows.shape[0], omega=None,
                                alpha=lambda z: np.zeros(rows.shape[0]), anchor=None,
                                alpha_jacobian=lambda z: rows)


def _kept(rows, constraint_rows=None, probes=1):
    problem = _pairing_problem(rows)
    j = np.zeros((0, problem.d)) if constraint_rows is None else constraint_rows
    read = (np.zeros(len(j)), j, None, None)
    return presym._kept_columns(problem, np.eye(problem.r), [(np.zeros(problem.d), read)] * probes,
                                [_spaces(j, guarded=True)] * probes)


def _kept_by_rank(rows, constraint_rows):
    # the rule the incremental basis replaces: a vanishing column adds rank
    # when decide_rank of the rows with it exceeds decide_rank without it
    kept = []
    for c, row in enumerate(rows):
        with_c = np.vstack([constraint_rows, rows[kept + [c]]])
        if decide_rank(with_c) > decide_rank(np.vstack([constraint_rows, rows[kept]])):
            kept.append(c)
    return kept


def test_a_row_off_the_kept_rows_by_1e_9_is_ambiguous():
    for off in (1e-9, 1e-10, 1e-8):
        rows = [[1.0, 0.0, 0.0], [1.0, off, 0.0]]
        with pytest.raises(RankAmbiguous):
            _kept(rows)
        with pytest.raises(RankAmbiguous):
            decide_rank(np.array(rows))


def test_a_row_off_the_kept_rows_by_1e_13_adds_no_rank():
    rows = [[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0], [0.0, 0.0, 2.0], [3.0, 1e-13, -4.0]]
    assert _kept(rows) == [0, 2]
    # off the constraint rows too, and at every probe of several
    assert _kept(rows[1:], constraint_rows=np.array([[2.0, 0.0, 0.0]]), probes=3) == [1]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_kept_columns_agree_with_the_accumulated_rank(data):
    # integer rows, some sums of others: the incremental basis keeps what
    # comparing decide_rank with and without each row keeps
    d = data.draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-3, max_value=3)
    base = np.array(data.draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                       min_size=1, max_size=4)), dtype=float)
    picks = data.draw(st.lists(st.lists(st.integers(0, len(base) - 1), max_size=3),
                               min_size=1, max_size=5))
    rows = np.vstack([base] + [base[p].sum(axis=0, keepdims=True) for p in picks if p])
    order = data.draw(st.permutations(range(len(rows))))
    rows = rows[list(order)]
    j = np.array(data.draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                    max_size=2)), dtype=float).reshape(-1, d)
    assert _kept(rows, j) == _kept_by_rank(rows, j)


# -- projection helper --------------------------------------------------------


def _circle(z):
    return np.array([z[0] ** 2 + z[1] ** 2 - 1.0])


def test_project_onto_circle():
    z, (values, rows) = _project_onto(lambda z: (_circle(z), _fd_gradient(_circle, z)),
                                      np.array([2.0, 1.0]))
    assert abs(np.hypot(z[0], z[1]) - 1.0) < 1e-10
    # the read of the point it returns
    assert np.array_equal(values, _circle(z))
    assert np.array_equal(rows, _fd_gradient(_circle, z))


def test_project_onto_reports_failure():
    # g has no zeros, so the projection cannot converge
    g = lambda z: np.array([z[0] ** 2 + 1.0])
    with pytest.raises(NewtonFailed):
        _project_onto(lambda z: (g(z), _fd_gradient(g, z)), np.array([0.5]))


# -- regular Lagrangian: level zero, solve equals the direct field ------------


def test_regular_system_stabilizes_immediately():
    sys = system_from_spec(load_preset("tq_pendulum").spec)
    problem = lagrangian_problem(sys)
    run = run_constraint_algorithm(problem, _seeds(1, 1, 3, seed=0))
    assert run.stabilization_level == 0
    assert run.final_constraints(np.array([0.3, 0.4]))[0].size == 0
    assert run.membership_residual(np.array([0.3, 0.4])) == 0.0
    rep = run.report()
    assert rep["stabilization_level"] == 0
    assert rep["levels"][0]["new_constraint_rank"] == 0


def test_restricted_solve_matches_euler_lagrange():
    # minimum-norm solve of omega X = alpha against the direct force route
    sys = system_from_spec(load_preset("tq_pendulum").spec)
    problem = lagrangian_problem(sys)
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.uniform(-1.0, 1.0, 2)
        sol = solve_on_final(problem, z)
        xdot, ydot = euler_lagrange_rhs(sys, EPoint(z[:1], z[1:]))
        assert_allclose(sol.X[:1], z[1:], atol=1e-10)      # SODE part
        assert_allclose(sol.X[1:], ydot, atol=1e-10)
        assert sol.residual < 1e-12


def test_consistency_residual_zero_for_regular():
    sys = system_from_spec(load_preset("tq_pendulum").spec)
    problem = lagrangian_problem(sys)
    run = run_constraint_algorithm(problem, _seeds(1, 1, 2, seed=1))
    assert consistency_residual(problem, np.array([0.7, -0.2]), run.levels[0]) < 1e-12


# -- singular model: both constraint sequences --------------------------------


def test_lagrangian_side_constraint_sequence():
    sys = _ck()
    facts = load_preset("capri_kobayashi").facts["constraint_algorithm"]["lagrangian"]
    problem = lagrangian_problem(sys)
    run = run_constraint_algorithm(problem, _seeds(3, 4, 3, seed=2))
    assert run.stabilization_level == facts["stabilization_level"]
    assert run.levels[1].new_rank == facts["new_rank"]
    # the added level cuts exactly the plane x1 = y1 = 0
    rng = np.random.default_rng(3)
    for _ in range(10):
        z0 = np.concatenate([rng.uniform(0.6, 1.4, 3), rng.uniform(-0.5, 0.5, 4)])
        z = _project_onto(run.final_constraints, z0)[0]
        assert abs(z[0]) < 1e-9 and abs(z[1]) < 1e-9
        assert run.membership_residual(z) < 1e-9
        assert solve_on_final(problem, z, run=run).residual < 1e-9


def test_level_zero_is_inconsistent_for_singular_model():
    sys = _ck()
    problem = lagrangian_problem(sys)
    z = np.array([0.9, 1.1, 1.0, 0.1, 0.2, 0.3, 0.4])
    run = run_constraint_algorithm(problem, _seeds(3, 4, 2, seed=4))
    assert consistency_residual(problem, z, run.levels[0]) > 1e-3
    with pytest.raises(InconsistentDynamics):
        solve_on_final(problem, z, basis=np.eye(8))


def test_hamiltonian_side_constraint_sequence():
    sys = _ck()
    facts = load_preset("capri_kobayashi").facts["constraint_algorithm"]["hamiltonian"]
    problem, data = hamiltonian_problem_from_lagrangian(sys)
    assert data.kernel_idx == (0, 1)
    assert data.transverse_idx == (2, 3)
    run = run_constraint_algorithm(problem, _seeds(3, 4, 3, seed=5))
    assert run.stabilization_level == facts["stabilization_level"]
    assert run.levels[1].new_rank == facts["new_rank"]
    rng = np.random.default_rng(6)
    for _ in range(10):
        z0 = np.concatenate([rng.uniform(0.6, 1.4, 3), rng.uniform(-0.5, 0.5, 4)])
        z = _project_onto(run.final_constraints, z0)[0]
        # primaries pin p1 and p2, the secondary level pins x1 and y1
        assert abs(z[3]) < 1e-9 and abs(z[4]) < 1e-9
        assert abs(z[0]) < 1e-9 and abs(z[1]) < 1e-9
        assert run.membership_residual(z) < 1e-9


@pytest.mark.parametrize("side", ["lagrangian", "hamiltonian"])
def test_each_level_adds_one_field_within_an_alpha_budget(side):
    # a level's kept directions join one pairing, read with one alpha and
    # alpha_jacobian call per point, and a probe's read is the projection's
    # last: a capri analysis makes 9 alpha calls, and 9 (Lagrangian side) or
    # 6 (Hamiltonian side) alpha_jacobian calls
    sys = _ck()
    if side == "lagrangian":
        problem, jacobians = lagrangian_problem(sys), 9
    else:
        problem, jacobians = hamiltonian_problem_from_lagrangian(sys)[0], 6
    calls = {"alpha": 0, "alpha_jacobian": 0}

    def counted(name):
        real = getattr(problem, name)

        def call(z):
            calls[name] += 1
            return real(z)
        return call

    run = run_constraint_algorithm(
        dataclasses.replace(problem, alpha=counted("alpha"),
                            alpha_jacobian=counted("alpha_jacobian")),
        _seeds(3, 4, 3, seed=2))
    assert [level.constraints.e.shape[1] for level in run.levels] == [0, 6]
    assert calls["alpha"] <= 9
    assert calls["alpha_jacobian"] <= jacobians


@pytest.mark.parametrize("side", ["lagrangian", "hamiltonian"])
def test_a_level_reads_each_point_once(side, monkeypatch):
    # a level is the projection onto its constraints and the analysis of its
    # probes; within one, each problem callable is called once per distinct
    # point, the probes' reads being the projection's last
    problem = _problem(_ck(), side)
    levels = []
    monkeypatch.setattr(presym, "Constraints",
                        lambda *args: levels.append([]) or Constraints(*args))

    def counted(name):
        real = getattr(problem, name)
        return lambda z: levels[-1].append((name, z.tobytes())) or real(z)

    run = run_constraint_algorithm(
        dataclasses.replace(problem, **{name: counted(name) for name in
                                        ("primary", "alpha", "alpha_jacobian", "omega")
                                        if getattr(problem, name) is not None}),
        _seeds(3, 4, 3, seed=2))
    assert run.stabilization_level == 1 and len(levels) == 2
    for calls in levels:
        assert len(calls) == len(set(calls)), calls
    names = {name for calls in levels for name, _ in calls}
    assert names == {"alpha", "alpha_jacobian", "omega"} | (
        {"primary"} if side == "hamiltonian" else set())


def test_the_final_solve_reads_alpha_once():
    # without a basis it reads the final constraints at z, and takes alpha
    # from that read; the defect of an off-locus sode start is differenced
    # through it
    problem = lagrangian_problem(_ck())
    run = run_constraint_algorithm(problem, _seeds(3, 4, 3, seed=2))
    calls = []
    counted = dataclasses.replace(problem, alpha=lambda z: calls.append(z) or problem.alpha(z))
    final = dataclasses.replace(run.levels[-1],
                                constraints=Constraints(counted, run.final_constraints.e))
    counted_run = dataclasses.replace(run, problem=counted, levels=(*run.levels[:-1], final))
    z = run.probes[1]
    solved = solve_on_final(counted, z, run=counted_run)
    assert len(calls) == 1
    assert np.array_equal(solved.X, solve_on_final(problem, z, run=run).X)


def test_constraints_call_alpha_once_per_point_for_any_number_of_levels():
    # primaries first, then the pairing with every kept column: one call reads
    # the primaries, alpha and alpha_jacobian once each per point, however
    # many levels the columns came from
    problem = hamiltonian_problem_from_lagrangian(_ck())[0]
    calls = []
    counted = dataclasses.replace(
        problem, alpha=lambda z: calls.append("alpha") or problem.alpha(z),
        alpha_jacobian=lambda z: calls.append("jacobian") or problem.alpha_jacobian(z),
        primary=lambda z: calls.append("primary") or problem.primary(z))
    rng = np.random.default_rng(7)
    z = np.array([0.2, -0.3, 1.2, 0.7, -0.4, 0.9, 0.1])
    one = rng.normal(size=(problem.r, 1))
    for e in (one, np.hstack([one, rng.normal(size=(problem.r, 2))])):
        constraints = Constraints(counted, e)
        calls.clear()
        values, rows, alpha, alpha_jacobian = constraints(z)
        assert calls == ["primary", "alpha", "jacobian"]
        assert np.array_equal(values, np.concatenate([problem.primary(z)[0],
                                                      problem.alpha(z) @ e]))
        assert np.array_equal(rows, np.vstack([problem.primary(z)[1],
                                               e.T @ problem.alpha_jacobian(z)]))
        assert np.array_equal(alpha, problem.alpha(z))
        assert np.array_equal(alpha_jacobian, problem.alpha_jacobian(z))
        level = ConstraintLevel(k=0, constraints=constraints, new_rank=0,
                                fiber_constraint_rank=0, probe_residuals=())
        run = ConstraintRun(problem=counted, levels=(level,), stabilization_level=0,
                            probes=())
        assert run.membership_residual(z) == np.max(np.abs(values))
    none = Constraints(counted, np.zeros((problem.r, 0)))
    calls.clear()
    values, rows, alpha, alpha_jacobian = none(z)
    assert np.array_equal(values, problem.primary(z)[0])
    assert rows.shape == (2, problem.d)
    assert alpha is None and alpha_jacobian is None
    assert calls == ["primary"]


def test_primary_constraints_are_momentum_zeroes():
    sys = _ck()
    problem, _ = hamiltonian_problem_from_lagrangian(sys)
    z = np.array([0.2, -0.3, 1.2, 0.7, -0.4, 0.9, 0.1])
    values, rows = problem.primary(z)
    assert_allclose(values, [0.7, -0.4], atol=1e-12)
    hxy, _ = sys.second_derivatives(EPoint(z[:3], np.zeros(4)))
    for a in range(2):
        assert np.array_equal(rows[a], np.concatenate([-hxy[:, a], np.eye(4)[a]]))


def test_hamiltonian_value_matches_energy_through_legendre():
    sys = _ck()
    _, data = hamiltonian_problem_from_lagrangian(sys)
    at = EPoint(np.array([0.0, 0.0, 1.1]), np.array([0.0, 0.0, 0.4, -0.2]))
    dp = legendre(sys, at)
    assert data.value(dp) == pytest.approx(sys.energy(at), abs=1e-10)
    gx, gp = data.gradients(dp)
    lx, _ = sys.gradients(at)
    assert_allclose(gx, -lx, atol=1e-10)
    assert_allclose(gp, [0.0, 0.0, 0.4, -0.2], atol=1e-10)


REGULAR = [pid for pid in preset_ids() if "hamilton" in load_preset(pid).facts["modes"]]


@pytest.mark.parametrize("pid", REGULAR)
def test_regular_hamiltonian_side_is_the_legendre_energy(pid):
    # one class: with an empty kernel the Hamiltonian side's data is the
    # regular LegendreEnergy, number for number (the Hamilton mode of these
    # presets takes the closed form, compared in test_constant_hessian.py)
    sys = system_from_spec(load_preset(pid).spec)
    _, data = hamiltonian_problem_from_lagrangian(sys)
    H = LegendreEnergy(sys)
    assert presym.HamiltonianSideData is LegendreEnergy
    assert data.kernel_idx == ()
    rng = np.random.default_rng(9)
    for _ in range(3):
        at = legendre(sys, EPoint(rng.uniform(0.6, 1.4, sys.chart.m),
                                  rng.uniform(-0.5, 0.5, sys.chart.n)))
        assert data.value(at) == H.value(at)
        for got, want in zip(data.gradients(at), H.gradients(at)):
            assert np.array_equal(got, want)
        assert np.array_equal(data.hessian(at), H.hessian(at))


# -- SODE extraction ----------------------------------------------------------


def _ck_run():
    sys = _ck()
    problem = lagrangian_problem(sys)
    return sys, run_constraint_algorithm(problem, _seeds(3, 4, 3, seed=7))


def test_sode_extract_on_locus():
    sys, run = _ck_run()
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho, e3, e0 = rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        at = EPoint(np.array([0.0, 0.0, rho]), np.array([0.0, 0.0, e3, e0]))
        res = sode_extract(sys, run, at)
        assert res.on_locus
        assert np.max(np.abs(res.defect)) < 1e-10
        assert_allclose(res.xi_X, at.y, atol=0)
        xi3 = rho * ((e0 + 2.0) * e0 - 2.0)
        xi4 = -2.0 * e3 * (e0 + 1.0) / rho
        assert_allclose(res.xi_V, [0.0, 0.0, xi3, xi4], atol=1e-10)
        assert res.solve_residual < 1e-10


def test_sode_extract_off_locus_reports_defect():
    sys, run = _ck_run()
    at = EPoint(np.array([0.0, 0.0, 1.0]), np.array([0.3, -0.2, 0.1, 0.4]))
    res = sode_extract(sys, run, at)
    assert not res.on_locus
    assert_allclose(res.defect, [-0.3, 0.2, 0.0, 0.0], atol=1e-9)


def test_sode_extract_requires_final_membership():
    sys, run = _ck_run()
    at = EPoint(np.array([0.5, -0.4, 1.0]), np.array([0.0, 0.0, 0.1, 0.2]))
    with pytest.raises(NotOnFinalManifold):
        sode_extract(sys, run, at)


# -- unsupported degeneracy shapes are refused, not mishandled ----------------


def test_tilted_kernel_is_rejected():
    text = ("system tilted\nbase []\nfiber [v1, v2]\nanchor zero\n"
            "lagrangian = 0.5*(v1 + v2)^2\n")
    with pytest.raises(AmechError, match="aligned"):
        hamiltonian_problem_from_lagrangian(system_from_spec(parse_system(text)))


def test_moving_kernel_is_rejected():
    text = ("system moving\nbase [x]\nfiber [v1, v2]\n"
            "anchor { v1 -> (1); v2 -> (0) }\n"
            "lagrangian = 0.5*(v1 + x*v2)^2\n")
    with pytest.raises(AmechError, match="varies"):
        hamiltonian_problem_from_lagrangian(system_from_spec(parse_system(text)))


def test_a_kernel_row_that_vanishes_only_in_floating_point_is_kernel():
    # the coefficient of v2^2 is sin^2 + cos^2 - 1: zero, or a rounding
    # residue far below the rank tolerance relative to W's largest entry
    text = ("system fp\nbase [q]\nfiber [v1, v2]\nanchor { v1 -> (1); v2 -> (0) }\n"
            "lagrangian = 0.5*v1^2 + 0.5*(sin(q)^2 + cos(q)^2 - 1)*v2^2 + q*v2 - 0.5*q^2\n")
    assert _kernel_indices(system_from_spec(parse_system(text))) == (1,)


def test_the_kernel_is_sampled_once_per_lagrangian_and_tolerance(monkeypatch):
    # W is sampled at five points for the first build; a second build from
    # the same spec reuses the indices, a different AMECH_TOL samples again
    spec = copy.deepcopy(load_preset("capri_kobayashi").spec)
    samples = []
    bindings = presym._bindings
    monkeypatch.setattr(presym, "_bindings",
                        lambda *args: samples.append(args) or bindings(*args))
    problem, data = hamiltonian_problem_from_lagrangian(system_from_spec(spec))
    assert len(samples) == 5 and data.kernel_idx == (0, 1)
    again, data = hamiltonian_problem_from_lagrangian(system_from_spec(spec))
    assert len(samples) == 5 and data.kernel_idx == (0, 1)
    monkeypatch.setenv("AMECH_TOL", "1e-7")
    hamiltonian_problem_from_lagrangian(system_from_spec(spec))
    assert len(samples) == 10


def test_a_varying_kernel_is_rejected_at_every_build():
    # nothing is kept when the sampling raises
    spec = parse_system("system moving\nbase [x]\nfiber [v1, v2]\n"
                        "anchor { v1 -> (1); v2 -> (0) }\n"
                        "lagrangian = 0.5*(v1 + x*v2)^2\n")
    for _ in range(2):
        with pytest.raises(AmechError, match="varies"):
            hamiltonian_problem_from_lagrangian(system_from_spec(spec))


def test_run_requires_seeds():
    sys = system_from_spec(load_preset("tq_pendulum").spec)
    with pytest.raises(ValueError):
        run_constraint_algorithm(lagrangian_problem(sys), [])


@pytest.mark.parametrize("pid", ["capri_kobayashi", "plate_ball", "tq_pendulum"])
def test_alpha_is_the_energy_differential_without_the_cartan_matrix(pid):
    sys = system_from_spec(load_preset(pid).spec)
    structure_calls = []
    structure = sys.chart.structure
    sys.chart.structure = lambda x: structure_calls.append(x) or structure(x)
    m, n = sys.chart.m, sys.chart.n
    z = np.linspace(0.6, 1.4, m + n)
    at = EPoint(z[:m], z[m:])
    alpha = lagrangian_problem(sys).alpha(z)
    assert not structure_calls
    assert np.array_equal(alpha, -energy_differential(sys, at))
    assert np.array_equal(energy_differential(sys, at), cartan(sys, at).dEL)


def test_hamiltonian_value_reads_the_newton_point(monkeypatch):
    # E_L comes from the point of the partial Legendre solve: one call of
    # L's point code per Newton point and none after it, and the same bits
    # as the energy at the solved velocity
    sys = _ck()
    data = LegendreEnergy(sys, _kernel_indices(sys))
    x, p = np.array([0.3, -0.2, 1.1]), np.array([0.0, 0.0, 0.4, -0.2])
    y, _ = data._solve_velocity(x, p)
    expected = sys.energy(EPoint(x, y))
    evaluations, points = [], []
    point = sys._point
    monkeypatch.setattr(sys, "_point", lambda v: evaluations.append(v) or point(v))
    damped_newton = dynamics.damped_newton

    def newton(residual, step, x0, what, **kwargs):
        def counted(y):
            points.append(y)
            return residual(y)
        return damped_newton(counted, step, x0, what, **kwargs)

    monkeypatch.setattr(dynamics, "damped_newton", newton)
    value = data(x, p)
    assert points and len(evaluations) == len(points)
    assert value == expected


# -- exact constraint Jacobians -------------------------------------------------

SIDES = ("lagrangian", "hamiltonian")


def _problem(sys, side):
    if side == "lagrangian":
        return lagrangian_problem(sys)
    return hamiltonian_problem_from_lagrangian(sys)[0]


def _assert_matches_fd(exact, f, z):
    # central differences with step 1e-6 * max(1, |z|) agree to about 1e-10
    # of the entries' scale; a missing or wrong term is of the scale itself
    fd = _fd_gradient(f, z)
    scale = max(1.0, np.max(np.abs(fd), initial=0.0))
    assert np.shape(exact) == fd.shape
    assert np.max(np.abs(exact - fd), initial=0.0) <= 1e-7 * scale


def _counting_fd(monkeypatch):
    calls = []
    fd_gradient = presym._fd_gradient
    monkeypatch.setattr(presym, "_fd_gradient",
                        lambda f, z: calls.append(f) or fd_gradient(f, z))
    return calls


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("pid", preset_ids())
def test_exact_jacobians_match_finite_differences(pid, side):
    sys = system_from_spec(load_preset(pid).spec)
    problem = _problem(sys, side)
    assert problem.alpha_jacobian is not None
    rng = np.random.default_rng(11)
    seeds = [rng.uniform(0.6, 1.4, problem.d) for _ in range(3)]
    run = run_constraint_algorithm(problem, seeds)
    constraints = Constraints(problem, rng.normal(size=(problem.r, 2)))
    final = run.final_constraints
    for z in seeds + list(run.probes):
        _assert_matches_fd(problem.alpha_jacobian(z), problem.alpha, z)
        for c in (constraints, final):
            _assert_matches_fd(c(z)[1], lambda zz: c(zz)[0], z)


@pytest.mark.parametrize("side", SIDES)
def test_capri_constraint_algorithm_differences_nothing(side, monkeypatch):
    calls = _counting_fd(monkeypatch)
    run = run_constraint_algorithm(_problem(_ck(), side), _seeds(3, 4, 3, seed=2))
    assert run.stabilization_level == 1
    assert calls == []


def test_energy_tree_is_built_at_the_first_jacobian_request(monkeypatch):
    # regular presets stop at level 0 and never ask for a Jacobian; its code
    # (E_L's jet, third derivatives of L) is generated at the first request
    sources = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: sources.append(source)
                        or compile_(source))
    sys = system_from_spec(copy.deepcopy(load_preset("tq_pendulum").spec))
    problem = lagrangian_problem(sys)
    assert sources == []
    run_constraint_algorithm(problem, _seeds(1, 1, 3, seed=0))
    assert len(sources) == 1
    problem.alpha_jacobian(np.array([0.3, 0.4]))
    assert len(sources) == 2
    problem.alpha_jacobian(np.array([0.5, -0.4]))
    assert len(sources) == 2
