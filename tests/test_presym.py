"""Constraint-algorithm engine: kernels, levels, restricted solves, SODE."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from amech import presym
from amech.algebroid import chart_from_spec
from amech.dsl import parse_system
from amech.dynamics import (EPoint, LagrangianSystem, LegendreEnergy, cartan,
                            energy_differential, euler_lagrange_rhs,
                            hamiltonian_from_lagrangian, legendre, system_from_spec)
from amech.errors import (
    AmechError,
    InconsistentDynamics,
    NewtonFailed,
    NotOnFinalManifold,
)
from amech.expr import ScalarFunction, _fd_gradient, evaluate
from amech.linalg import rank_rtol
from amech.presets import ids as preset_ids, load as load_preset
from amech.presym import (
    ConstraintLevel,
    ConstraintRun,
    Pairing,
    PresymplecticProblem,
    _constraint_jacobian,
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


# -- projection helper --------------------------------------------------------


def test_project_onto_circle():
    g = lambda z: float(z[0] ** 2 + z[1] ** 2 - 1.0)
    z = _project_onto([g], np.array([2.0, 1.0]))
    assert abs(np.hypot(z[0], z[1]) - 1.0) < 1e-10


def test_project_onto_reports_failure():
    # g has no zeros, so the projection cannot converge
    g = lambda z: float(z[0] ** 2 + 1.0)
    with pytest.raises(NewtonFailed):
        _project_onto([g], np.array([0.5]))


def _circle(z):
    return float(z[0] ** 2 + z[1] ** 2 - 1.0)


def _line(z):
    return float(z[0] - 2.0 * z[1])


def _circle_and_line(z):
    return np.array([_circle(z), _line(z)])


def test_vector_field_projects_like_its_scalar_components():
    z0 = np.array([2.0, 1.5])
    z = _project_onto([_circle_and_line], z0)
    assert np.array_equal(z, _project_onto([_circle, _line], z0))
    assert abs(_circle(z)) < 1e-12 and abs(_line(z)) < 1e-12


def test_vector_field_membership_matches_scalar_components():
    def run_of(constraints):
        level = ConstraintLevel(k=0, constraints=tuple(constraints), new_rank=2,
                                fiber_constraint_rank=0, probe_residuals=())
        return ConstraintRun(problem=None, levels=(level,), stabilization_level=0,
                             probes=())

    z = np.array([0.3, -1.2])
    vector = run_of([_circle_and_line]).membership_residual(z)
    assert vector == run_of([_circle, _line]).membership_residual(z)
    assert vector == max(abs(_circle(z)), abs(_line(z)))


def test_constraint_jacobian_stacks_scalar_and_vector_rows():
    z = np.array([0.3, -1.2])
    mixed = _constraint_jacobian([_line, _circle_and_line], z)
    assert mixed.shape == (3, 2)
    assert np.array_equal(mixed, _constraint_jacobian([_line, _circle, _line], z))
    assert_allclose(mixed, [[1.0, -2.0], [0.6, -2.4], [1.0, -2.0]], atol=1e-8)


# -- regular Lagrangian: level zero, solve equals the direct field ------------


def test_regular_system_stabilizes_immediately():
    sys = system_from_spec(load_preset("tq_pendulum").spec)
    problem = lagrangian_problem(sys)
    run = run_constraint_algorithm(problem, _seeds(1, 1, 3, seed=0))
    assert run.stabilization_level == 0
    assert run.final_constraints == ()
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
        z = _project_onto(run.final_constraints, z0)
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
        z = _project_onto(run.final_constraints, z0)
        # primaries pin p1 and p2, the secondary level pins x1 and y1
        assert abs(z[3]) < 1e-9 and abs(z[4]) < 1e-9
        assert abs(z[0]) < 1e-9 and abs(z[1]) < 1e-9
        assert run.membership_residual(z) < 1e-9


@pytest.mark.parametrize("side", ["lagrangian", "hamiltonian"])
def test_each_level_adds_one_field_within_an_alpha_budget(side):
    # one pairing field per level, differenced once per probe and level: a
    # capri analysis stays far below the thousands of alpha calls that one
    # scalar field per candidate direction made
    sys = _ck()
    if side == "lagrangian":
        problem, fields = lagrangian_problem(sys), [0, 1]
    else:
        problem, fields = hamiltonian_problem_from_lagrangian(sys)[0], [2, 3]
    calls = []

    def alpha(z, _alpha=problem.alpha):
        calls.append(1)
        return _alpha(z)

    run = run_constraint_algorithm(dataclasses.replace(problem, alpha=alpha),
                                   _seeds(3, 4, 3, seed=2))
    assert [len(level.constraints) for level in run.levels] == fields
    assert len(calls) <= 500


def test_primary_constraints_are_momentum_zeroes():
    _, data = hamiltonian_problem_from_lagrangian(_ck())
    primaries = data.primary_constraints()
    assert len(primaries) == 2
    z = np.array([0.2, -0.3, 1.2, 0.7, -0.4, 0.9, 0.1])
    assert primaries[0](z) == pytest.approx(0.7, abs=1e-12)
    assert primaries[1](z) == pytest.approx(-0.4, abs=1e-12)


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
    # Hamiltonian of the Hamilton mode, number for number
    sys = system_from_spec(load_preset(pid).spec)
    _, data = hamiltonian_problem_from_lagrangian(sys)
    H = hamiltonian_from_lagrangian(sys)
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
    # E_L comes from the derivatives of the partial Legendre solve: no
    # value-and-gradient evaluation after it, and the same bits as the
    # energy at the solved velocity
    sys = _ck()
    _, data = hamiltonian_problem_from_lagrangian(sys)
    x, p = np.array([0.3, -0.2, 1.1]), np.array([0.0, 0.0, 0.4, -0.2])
    y, _ = data._solve_velocity(x, p)
    expected = sys.energy(EPoint(x, y))
    evaluations = []
    for name in ("value", "gradient", "hessian", "value_and_gradient", "derivatives"):
        def counting(self, v, _name=name, _f=getattr(ScalarFunction, name)):
            evaluations.append(_name)
            return _f(self, v)
        monkeypatch.setattr(ScalarFunction, name, counting)
    value = data(x, p)
    assert evaluations and set(evaluations) == {"derivatives"}
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
    e = rng.normal(size=(problem.r, 2))
    for z in seeds + list(run.probes):
        _assert_matches_fd(problem.alpha_jacobian(z), problem.alpha, z)
        _assert_matches_fd(Pairing(problem, e).jacobian(z), Pairing(problem, e), z)
        for g in run.final_constraints:
            _assert_matches_fd(g.jacobian(z), g, z)


@pytest.mark.parametrize("side", SIDES)
def test_capri_constraint_algorithm_differences_nothing(side, monkeypatch):
    calls = _counting_fd(monkeypatch)
    run = run_constraint_algorithm(_problem(_ck(), side), _seeds(3, 4, 3, seed=2))
    assert run.stabilization_level == 1
    assert calls == []


def test_energy_tree_is_built_at_the_first_jacobian_request():
    # regular presets stop at level 0 and never ask for a Jacobian
    sys = system_from_spec(load_preset("tq_pendulum").spec)
    problem = lagrangian_problem(sys)
    run_constraint_algorithm(problem, _seeds(1, 1, 3, seed=0))
    assert sys._energy is None
    problem.alpha_jacobian(np.array([0.3, 0.4]))
    assert sys._energy is not None


def _level_ranks(run):
    return run.stabilization_level, [(lvl.new_rank, lvl.fiber_constraint_rank)
                                     for lvl in run.levels]


def test_callable_lagrangian_takes_the_difference_path():
    spec = load_preset("capri_kobayashi").spec
    chart = chart_from_spec(spec)
    names = chart.base_names + chart.fiber_names

    def lagrangian(x, y):
        env = dict(chart.params)
        env.update(zip(names, np.concatenate([x, y]).tolist()))
        return evaluate(spec.lagrangian, env)

    sys = LagrangianSystem(chart, lagrangian)
    l_problem = lagrangian_problem(sys)
    h_problem, data = hamiltonian_problem_from_lagrangian(sys)
    assert l_problem.alpha_jacobian is None and h_problem.alpha_jacobian is None
    z = np.array([0.9, 1.1, 1.0, 0.1, 0.2, 0.3, 0.4])
    field = Pairing(l_problem, np.eye(8)[:, :2])
    primary = data.primary_constraints()[0]
    assert np.array_equal(field.jacobian(z), _fd_gradient(field, z))
    assert np.array_equal(primary.jacobian(z), _fd_gradient(primary, z))


@pytest.mark.parametrize("side", SIDES)
def test_difference_path_reaches_the_same_levels(side, monkeypatch):
    # the tree problem stripped of its Jacobians: every constraint gradient
    # is differenced, as for a callable L
    problem = _problem(_ck(), side)
    plain = dataclasses.replace(
        problem, alpha_jacobian=None,
        constraints=tuple((lambda z, _g=g: _g(z)) for g in problem.constraints))
    seeds = _seeds(3, 4, 3, seed=5)
    tree = run_constraint_algorithm(problem, seeds)
    calls = _counting_fd(monkeypatch)
    assert _level_ranks(run_constraint_algorithm(plain, seeds)) == _level_ranks(tree)
    assert calls
