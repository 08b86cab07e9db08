"""A Lagrangian at most quadratic in the velocities has its induced
Hamiltonian in closed form, as trees, also with a kernel and with a
transverse velocity Hessian W_TT that varies with the base: it agrees with
the Legendre Newton, its forcing Jacobian with central differences of the
forcing, and the Legendre map sends the Lagrangian-side final set into the
Hamiltonian-side one. The Hamiltonian side of `constrain` then runs no
Newton, no point of L and no dense solve; a Lagrangian of higher degree in
the velocities keeps the Newton."""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from amech import cli, dynamics, expr
from amech.algebroid import DualPoint
from amech.cli import main
from amech.dsl import MAX_DEPTH, parse_system
from amech.dynamics import (EPoint, LagrangianSystem, LegendreEnergy, QuadraticHamiltonian,
                            hamiltonian_from_lagrangian, legendre, system_from_spec)
from amech.expr import _fd_gradient
from amech.presets import ids as preset_ids, load as load_preset
from amech.presym import (_kernel_indices, _project_onto, hamiltonian_problem_from_lagrangian,
                          lagrangian_problem, run_constraint_algorithm)
from strategies import fiber_quadratic_charts

ONE_FIBER = "base [q]\nfiber [v]\nanchor { v -> (1) }\n"
CUBIC = f"system cubic\n{ONE_FIBER}lagrangian = v^3/6 - v^2 - 0.5*q^2\n"
# a product of MAX_DEPTH - 1 velocities, at the parser's depth bound
CHAIN = f"system chain\n{ONE_FIBER}lagrangian = v^2 + v{'*v' * (MAX_DEPTH - 2)}\n"
VARYING = f"system varying\n{ONE_FIBER}lagrangian = 0.5*(1 + q^2)*v^2 - 0.5*q^2\n"
# W = q^2, singular at q = 0
VANISHING = f"system vanishing\n{ONE_FIBER}lagrangian = 0.5*q^2*v^2 - 0.5*q^2\n"

# sha256 of the generated source of the closed-form Hamiltonian's value and
# gradients on the presets with a Hamilton mode: its statements as they were
# before the closed form took kernels and varying W (a regular constant W
# keeps its code), returning the groups as float tuples
CONSTANT_W_SOURCES = {
    "skinner_rusk_demo": "977771d20caca84f7f7197a92dd4a52584b7a419e93911f235c7e58e912e5b80",
    "so3_rigid_body": "e9bf96d548c5ab045bfec1cd48bd7d108640ab5de7321629e41b28fe86175648",
    "tq_pendulum": "4ee27fa8fcb06c47b87d83571537a6afab2a4b4bc4589665d4f0eae2ebc1eb4c",
}


def _close(got, want, rel: float) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) <= rel * scale


@settings(max_examples=12, deadline=None)
@given(fiber_quadratic_charts())
def test_the_tree_hamiltonian_is_the_legendre_newton_one(text):
    sys_ = system_from_spec(parse_system(text))
    m, n = sys_.chart.m, sys_.chart.n
    kernel = _kernel_indices(sys_)
    assert kernel == tuple(a for a, name in enumerate(sys_.chart.fiber_names) if name[0] == "u")
    H, newton = hamiltonian_from_lagrangian(sys_, kernel_idx=kernel), LegendreEnergy(sys_, kernel)
    assert isinstance(H, QuadraticHamiltonian) and not H.constant
    rng = np.random.default_rng(len(text))
    for _ in range(4):
        at = DualPoint(rng.uniform(-1.5, 1.5, m), rng.uniform(-1.5, 1.5, n))
        for got, want in [(H.value(at), newton.value(at)),
                          *zip(H.gradients(at), newton.gradients(at)),
                          (H.hessian(at), newton.hessian(at))]:
            assert _close(got, want, 1e-14)


@settings(max_examples=8, deadline=None)
@given(fiber_quadratic_charts())
def test_the_hamiltonian_side_forcing_jacobian_differentiates_the_forcing(text):
    problem, data = hamiltonian_problem_from_lagrangian(system_from_spec(parse_system(text)))
    assert isinstance(data, QuadraticHamiltonian)
    rng = np.random.default_rng(len(text))
    for _ in range(3):
        z = rng.uniform(-1.2, 1.2, problem.d)
        assert _close(problem.alpha_jacobian(z), _fd_gradient(problem.alpha, z), 1e-7)


@settings(max_examples=6, deadline=None)
@given(fiber_quadratic_charts())
def test_the_legendre_map_sends_the_lagrangian_final_set_into_the_hamiltonian_one(text):
    sys_ = system_from_spec(parse_system(text))
    m, d = sys_.chart.m, sys_.chart.m + sys_.chart.n
    rng = np.random.default_rng(7)
    lrun = run_constraint_algorithm(lagrangian_problem(sys_),
                                    [rng.uniform(0.6, 1.4, d) for _ in range(3)])
    hrun = run_constraint_algorithm(hamiltonian_problem_from_lagrangian(sys_)[0],
                                    [rng.uniform(0.6, 1.4, d) for _ in range(3)])
    for _ in range(10):
        zl = _project_onto(lrun.final_constraints, rng.uniform(-1.0, 1.0, d))[0]
        dp = legendre(sys_, EPoint(zl[:m], zl[m:]))
        assert hrun.membership_residual(np.concatenate([dp.x, dp.p])) < 1e-8


@pytest.mark.parametrize("pid", preset_ids())
def test_the_hamiltonian_side_of_constrain_runs_no_newton_l_point_or_dense_solve(
        pid, tmp_path, monkeypatch):
    argv = ["constrain", "--preset", pid, "--side", "hamiltonian",
            "--out", str(tmp_path / "r.json"), "--manifest", str(tmp_path / "m.json")]
    calls = _record_calls(monkeypatch)
    # the first run too: the kernel's samples walk W's trees
    assert main([*argv, "--seed", "0"]) == 0
    assert main([*argv, "--seed", "1"]) == 0
    assert calls == []


def _record_calls(monkeypatch) -> list:
    """The names of the Newton solve, L's point and numpy's dense solve, as
    they are called from here on."""
    calls = []
    for owner, name in ((LegendreEnergy, "_solve_velocity"), (LagrangianSystem, "derivatives"),
                        (np.linalg, "solve")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _name=name, _real=real:
                            calls.append(_name) or _real(*args))
    return calls


@pytest.mark.parametrize("pid", preset_ids())
def test_a_fresh_hamiltonian_problem_reads_no_l_point_and_compiles_nothing(pid, monkeypatch):
    # a copy of the spec holds nothing kept: the kernel is sampled here
    sources, compile_ = [], expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: sources.append(source)
                        or compile_(source))
    calls = _record_calls(monkeypatch)
    sys_ = system_from_spec(copy.deepcopy(load_preset(pid).spec))
    hamiltonian_problem_from_lagrangian(sys_)
    assert "kernel_indices" in {key[0] for key in vars(sys_._sf.expr)["_kept"]}
    assert calls == [] and sources == []


def _kept_w(sys_) -> list:
    """The W checks kept on L's root node."""
    kept_ = vars(sys_._sf.expr).get("_kept", {})
    return [value for key, value in kept_.items() if key[0] == "velocity_hessian"]


@pytest.mark.parametrize("text", [CUBIC, CHAIN], ids=["cubic", "chain"])
def test_a_lagrangian_of_higher_velocity_degree_keeps_the_newton(text):
    sys_ = system_from_spec(parse_system(text))
    assert isinstance(hamiltonian_from_lagrangian(sys_), LegendreEnergy)
    # W names the velocity, and that verdict is kept on L
    assert _kept_w(sys_) == [None]
    assert isinstance(hamiltonian_problem_from_lagrangian(sys_)[1], LegendreEnergy)


def test_a_zero_coefficient_of_a_higher_velocity_power_keeps_the_closed_form():
    # L has no cubic term, so W = 1 names no velocity and H is closed-form
    text = f"system zero_cubic\n{ONE_FIBER}lagrangian = 0.5*v^2 + 0*v^3 - 0.5*q^2\n"
    sys_ = system_from_spec(parse_system(text))
    H = hamiltonian_from_lagrangian(sys_)
    assert isinstance(H, QuadraticHamiltonian) and H.constant
    at = DualPoint(np.array([0.3]), np.array([0.8]))
    assert H.value(at) == pytest.approx(0.5 * 0.8**2 + 0.5 * 0.3**2, rel=1e-15)
    newton = LegendreEnergy(sys_).gradients(at)
    assert all(np.allclose(a, b, rtol=1e-12) for a, b in zip(H.gradients(at), newton))


@pytest.mark.parametrize("pid", sorted(CONSTANT_W_SOURCES))
def test_a_regular_constant_w_keeps_its_hamilton_code(pid, monkeypatch):
    sources, compile_ = [], expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: sources.append(source)
                        or compile_(source))
    # a copy of the spec holds nothing generated, so the code is made here
    sys_ = system_from_spec(copy.deepcopy(load_preset(pid).spec))
    H = hamiltonian_from_lagrangian(sys_)
    assert isinstance(H, QuadraticHamiltonian) and H.constant
    sources.clear()
    H.value(DualPoint(np.full(sys_.chart.m, 0.3), np.full(sys_.chart.n, 0.2)))
    [source] = sources
    assert hashlib.sha256(source.encode()).hexdigest() == CONSTANT_W_SOURCES[pid]


def _hamilton_csv(tmp_path, text, name, *init):
    model, out = tmp_path / "model.amech", tmp_path / name
    model.write_text(text)
    code = main(["simulate", str(model), "--mode", "hamilton",
                 *(f"--init={item}" for item in init), "--t1", "1", "--dt", "1e-2",
                 "--out", str(out), "--manifest", str(tmp_path / "m.json")])
    return code, (np.genfromtxt(out, delimiter=",", names=True) if code == 0 else None)


def _dense_solve(monkeypatch) -> list:
    """Step the Legendre Newton and solve its Hessian with np.linalg.solve,
    as before they took regular_solution; returns the solves' sizes."""
    sizes = []
    monkeypatch.setattr(dynamics, "regular_solution",
                        lambda a, b, rtol=None: sizes.append(len(a)) or np.linalg.solve(a, b))
    return sizes


def test_the_cubic_hamilton_run_keeps_the_bits_of_the_dense_solve(tmp_path, monkeypatch):
    # W is 1x1, where the sized solve is the division an LU makes
    model = tmp_path / "cubic.amech"
    model.write_text(CUBIC)

    def run(name: str) -> bytes:
        assert main(["simulate", str(model), "--mode", "hamilton", "--init=q=0",
                     "--init=p1=2.5", "--t1", "1", "--dt", "1e-2", "--out", str(tmp_path / name),
                     "--manifest", str(tmp_path / "m.json")]) == 0
        return (tmp_path / name).read_bytes()

    sized = run("sized.csv")
    sizes = _dense_solve(monkeypatch)
    assert run("dense.csv") == sized
    assert sizes and set(sizes) == {1}


# W = [[1 + 0.6 v^2 + 0.04 w^2, 0.3 + 0.08 v w], [0.3 + 0.08 v w, 1 + 0.04 v^2 + 0.6 q w]]
QUARTIC_2X2 = ("system quartic2\nbase [q]\nfiber [v, w]\nanchor { v -> (1); w -> (q) }\n"
               "lagrangian = 0.5*(v^2 + w^2) + 0.3*v*w + 0.05*v^4 + 0.02*v^2*w^2"
               " + 0.1*q*w^3 - 0.5*q^2\n")


def test_a_2x2_legendre_newton_agrees_with_the_dense_solve(monkeypatch):
    sys_ = system_from_spec(parse_system(QUARTIC_2X2))
    assert isinstance(hamiltonian_from_lagrangian(sys_), LegendreEnergy)
    rng = np.random.default_rng(34)
    points = [DualPoint(rng.uniform(-0.5, 0.5, 1), rng.uniform(-1.5, 1.5, 2)) for _ in range(20)]

    def outputs() -> list:
        H = LegendreEnergy(sys_)
        return [(H.value(at), *H.gradients(at), H.hessian(at)) for at in points]

    sized = outputs()
    sizes = _dense_solve(monkeypatch)
    dense = outputs()
    assert sizes and set(sizes) == {2}
    for got, want in zip(sized, dense):
        for a, b in zip(got, want):
            assert _close(a, b, 1e-14)


def test_a_varying_w_hamilton_run_takes_the_closed_form_and_agrees_with_the_newton(
        tmp_path, monkeypatch):
    H = hamiltonian_from_lagrangian(system_from_spec(parse_system(VARYING)))
    assert isinstance(H, QuadraticHamiltonian) and not H.constant
    code, closed = _hamilton_csv(tmp_path, VARYING, "closed.csv", "q=0.3", "p1=0.8")
    assert code == 0
    monkeypatch.setattr(cli, "hamiltonian_from_lagrangian",
                        lambda sys_, follow=False: LegendreEnergy(sys_, follow=follow))
    code, newton = _hamilton_csv(tmp_path, VARYING, "newton.csv", "q=0.3", "p1=0.8")
    assert code == 0
    for name in newton.dtype.names:
        assert _close(closed[name], newton[name], 1e-12), name


def test_a_varying_w_singular_at_a_hamilton_start_exits_3_with_no_newton(
        tmp_path, monkeypatch, capsys):
    assert isinstance(hamiltonian_from_lagrangian(system_from_spec(parse_system(VANISHING))),
                      QuadraticHamiltonian)
    read, is_regular = [], dynamics.is_regular
    monkeypatch.setattr(dynamics, "is_regular",
                        lambda s, at: read.append(at.y) or is_regular(s, at))
    monkeypatch.setattr(dynamics, "damped_newton", None)
    code, _ = _hamilton_csv(tmp_path, VANISHING, "o.csv", "q=0", "p1=0.3")
    assert code == 3
    assert "amech constrain" in capsys.readouterr().err
    # W does not depend on y: it is read at the start, at y = p
    assert [y.tolist() for y in read] == [[0.3]]


def test_a_system_builds_no_hamiltonian_until_one_is_asked_for(monkeypatch):
    # the W check and the Hamiltonian's code run when a Hamiltonian is built
    # and called, never when a system is made from a spec
    sources, compile_ = [], expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: sources.append(source)
                        or compile_(source))
    for pid in preset_ids():
        assert _kept_w(system_from_spec(copy.deepcopy(load_preset(pid).spec))) == []
    assert sources == []
    capri = system_from_spec(copy.deepcopy(load_preset("capri_kobayashi").spec))
    hamiltonian_from_lagrangian(capri)
    hamiltonian_from_lagrangian(capri)
    assert len(_kept_w(capri)) == 1 and sources == []
