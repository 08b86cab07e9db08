"""A constant velocity Hessian W, or vakonomic regularity matrix R, is solved
in closed form: the mechanics point emits the solve with `regular_solve`'s
own operations, the system decides the regularity verdict once with its own
rank tolerance, and the Hamilton mode takes a closed-form Hamiltonian with no
Legendre Newton."""

import copy
import sys

import numpy as np
import pytest

from amech import cli, dynamics, expr
from amech.algebroid import DualPoint
from amech.cli import MODES, main
from amech.dsl import parse_system
from amech.dynamics import (EPoint, LegendreEnergy, QuadraticHamiltonian, euler_lagrange_rhs,
                            hamilton_rhs, hamiltonian_from_lagrangian, legendre,
                            system_from_spec)
from amech.errors import SingularHessian, SingularR
from amech.linalg import regular_solve
from amech.presets import ids as preset_ids, load as load_preset
from amech.vakonomic import _PointData, vakonomic_from_spec, vakonomic_rhs
from strategies import perfbench_workloads

# the presets whose point emits the solve, by side
EMITTED_EL = {"skinner_rusk_demo", "so3_rigid_body", "tq_pendulum"}
EMITTED_VAKONOMIC = {"lie_algebra_affine", "martinet", "plate_ball", "skinner_rusk_demo",
                     "so3_rigid_body", "tq_pendulum"}

CUBIC = """\
system cubic
base [q]
fiber [v]
anchor { v -> (1) }
lagrangian = v^3/6 - v^2 - 0.5*q^2
"""

# W = diag(1, 0): constant and singular
SINGULAR = """\
system half
base [q]
fiber [y1, y2]
anchor { y1 -> (1); y2 -> (0) }
lagrangian = 0.5*y1^2
"""

# W = diag(1, 1e-6): regular at the default tolerance, singular at 1e-3
STIFF = """\
system stiff
base [q]
fiber [y1, y2]
anchor { y1 -> (1); y2 -> (q) }
lagrangian = 0.5*(y1^2 + 1e-6*y2^2) - 0.5*q^2
"""


def _states(size, seed):
    """The zero state, a state of signed zeros, then random states."""
    rng = np.random.default_rng(seed)
    yield np.zeros(size)
    yield -np.zeros(size)
    for _ in range(6):
        yield rng.uniform(-1.5, 1.5, size)


@pytest.mark.parametrize("pid", preset_ids())
def test_the_emitted_solve_is_regular_solve_bit_for_bit(pid, monkeypatch):
    spec = load_preset(pid).spec
    lsys, vsys = system_from_spec(spec), vakonomic_from_spec(spec)
    emitted = set()
    for state in _states(lsys.chart.m + lsys.chart.n, seed=3):
        d = lsys.derivatives(state)
        if d.ydot.size:
            emitted.add("el")
            regular, _, _, f = regular_solve(d.w, d.b, lsys.rank_rtol)
            assert regular and f.tobytes() == d.ydot.tobytes()
    for state in _states(len(vsys.state_labels), seed=4):
        d = _PointData(vsys, state)
        if d.yadot.size:
            emitted.add("vakonomic")
            regular, _, _, f = regular_solve(d.R, d.rhs, vsys.rank_rtol)
            assert regular and f.tobytes() == d.yadot.tobytes()
    assert emitted == ({"el"} if pid in EMITTED_EL else set()) | (
        {"vakonomic"} if pid in EMITTED_VAKONOMIC else set())
    # with the solve emitted, a right-hand side runs no regular_solve
    monkeypatch.setattr(dynamics, "regular_solve", None)
    state = np.full(lsys.chart.m + lsys.chart.n, 0.3)
    if pid in EMITTED_EL:
        assert euler_lagrange_rhs(lsys, state)[1] is lsys.derivatives(state).ydot
    if pid in EMITTED_VAKONOMIC:
        state = np.full(len(vsys.state_labels), 0.3)
        assert vakonomic_rhs(vsys, state)[1] is _PointData(vsys, state).yadot


def test_a_diagonal_solve_of_size_three_is_eigh_bit_for_bit():
    # so3's W with its entries permuted, and signed zeros in b
    rng = np.random.default_rng(11)
    for w in ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [0.7, -2.5, 1e-3]):
        tree = " + ".join(f"{c}*w{k + 1}^2" for k, c in enumerate(w))
        spec = parse_system(load_preset("so3_rigid_body").dsl.replace(
            "0.5*(I1*w1^2 + I2*w2^2 + I3*w3^2)", f"0.5*({tree})"))
        sys_ = system_from_spec(spec)
        for state in [*_states(3, seed=5), *rng.uniform(-1.0, 1.0, (200, 3))]:
            d = sys_.derivatives(state)
            assert d.ydot.size == 3
            assert regular_solve(d.w, d.b)[3].tobytes() == d.ydot.tobytes()


def _hamilton_cases():
    for pid in preset_ids():
        spec = load_preset(pid).spec
        if "hamilton" in load_preset(pid).facts["modes"]:
            yield pid, spec, True
    rng = np.random.default_rng(2011)
    for k in range(4):
        model = perfbench_workloads().generate_model(rng, k, f"sweep_closed_form_k{k}")
        yield f"sweep k={k}", parse_system(model.text), False


@pytest.mark.parametrize("case, spec, bitwise", list(_hamilton_cases()))
def test_the_closed_form_hamilton_field_is_the_newton_one(case, spec, bitwise):
    # the closed form is the Newton's first step from y = p; on the presets
    # (1x1, 2x2 and diagonal W) the Newton stops there and solves with the
    # same bits, so the field, gradients and value are the Newton ones; a
    # dense W of the sweep charts takes W^-1's entries instead of an LU
    sys_ = system_from_spec(spec)
    chart = sys_.chart
    H, newton = hamiltonian_from_lagrangian(sys_), LegendreEnergy(sys_)
    assert isinstance(H, QuadraticHamiltonian)
    rng = np.random.default_rng(17)
    for k in range(12):
        y = np.zeros(chart.n) if k == 0 else rng.uniform(-1.0, 1.0, chart.n)
        at = legendre(sys_, EPoint(rng.uniform(0.5, 1.5, chart.m), y))
        pairs = [*zip(hamilton_rhs(chart, H, at), hamilton_rhs(chart, newton, at)),
                 *zip(H.gradients(at), newton.gradients(at)),
                 (H.value(at), newton.value(at))]
        for got, want in [*pairs, (H.hessian(at), newton.hessian(at))]:
            got, want = np.asarray(got), np.asarray(want)
            scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * scale, case
        if bitwise:
            for got, want in pairs:
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), case


@pytest.mark.parametrize("pid", preset_ids())
def test_presets_without_a_regular_constant_w_keep_the_newton_route(pid):
    H = hamiltonian_from_lagrangian(system_from_spec(load_preset(pid).spec))
    closed_form = "hamilton" in load_preset(pid).facts["modes"]
    assert isinstance(H, QuadraticHamiltonian if closed_form else LegendreEnergy)


def test_a_cubic_lagrangian_keeps_the_newton_route():
    sys_ = system_from_spec(parse_system(CUBIC))
    H = hamiltonian_from_lagrangian(sys_)
    assert isinstance(H, LegendreEnergy)
    _, hp = H.gradients(DualPoint(np.array([0.0]), np.array([2.5])))
    # p = v^2/2 - 2v on the branch where W = v - 2 is positive
    assert hp[0] == pytest.approx(2.0 + np.sqrt(9.0), abs=1e-12)


def test_the_closed_form_hamiltonian_is_kept_on_the_lagrangian():
    spec = copy.deepcopy(load_preset("so3_rigid_body").spec)
    first = hamiltonian_from_lagrangian(system_from_spec(spec))
    assert hamiltonian_from_lagrangian(system_from_spec(spec)) is first
    at = DualPoint(np.zeros(0), np.array([0.3, -0.8, 1.5]))
    hx, hp = first.gradients(at)
    assert hx.size == 0 and not hp.flags.writeable
    assert first(at.x, at.p) == first.value(at)
    assert np.allclose(hp, at.p / np.array([1.0, 2.0, 3.0]), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("mode, error", [("el", SingularHessian), ("hamilton", SingularHessian),
                                         ("vakonomic", SingularR)])
def test_a_singular_constant_w_is_refused_with_exit_3(tmp_path, mode, error):
    spec = parse_system(SINGULAR)
    sys_ = system_from_spec(spec)
    assert not sys_.derivatives(np.full(3, 0.4)).ydot.size
    assert isinstance(hamiltonian_from_lagrangian(sys_), LegendreEnergy)
    state = np.full(3, 0.4)
    with pytest.raises(error, match="singular"):
        MODES[mode](spec).start(state, 0)
        MODES[mode](spec).rhs(0.0, state)
    model = tmp_path / "half.amech"
    model.write_text(SINGULAR)
    assert main(["simulate", str(model), "--mode", mode, "--t1", "0.05",
                 "--out", str(tmp_path / "o.csv"),
                 "--manifest", str(tmp_path / "m.json")]) == 3


def test_the_verdict_follows_each_systems_tolerance(tmp_path, monkeypatch):
    # one spec, so one kept point code with the emitted solve; the verdict
    # is each system's, from AMECH_TOL as it read it when it was built
    spec = parse_system(STIFF)
    state = np.array([0.3, 0.2, -0.1])
    regular = system_from_spec(spec)
    ydot = euler_lagrange_rhs(regular, state)[1]
    assert ydot is regular.derivatives(state).ydot
    assert isinstance(hamiltonian_from_lagrangian(regular), QuadraticHamiltonian)
    vakonomic_rhs(vakonomic_from_spec(spec), state)

    monkeypatch.setenv("AMECH_TOL", "1e-3")
    strict = system_from_spec(spec)
    assert strict._point is regular._point
    with pytest.raises(SingularHessian, match="sigma_min=1.000e-06"):
        euler_lagrange_rhs(strict, state)
    with pytest.raises(SingularR, match="sigma_min=1.000e-06"):
        vakonomic_rhs(vakonomic_from_spec(spec), state)
    assert isinstance(hamiltonian_from_lagrangian(strict), LegendreEnergy)
    # the system built first keeps its own verdict
    assert euler_lagrange_rhs(regular, state)[1] is ydot
    model = tmp_path / "stiff.amech"
    model.write_text(STIFF)
    assert main(["simulate", str(model), "--mode", "el", "--t1", "0.05",
                 "--out", str(tmp_path / "o.csv"),
                 "--manifest", str(tmp_path / "m.json")]) == 3


def test_the_hamilton_row_reaches_hamilton_rhs_by_its_module_level_name(monkeypatch):
    # the traced benchmark run rebinds `hamilton_rhs` in every amech module
    # that bound it, after the mode is built; the row must reach the wrapper
    real, calls = dynamics.hamilton_rhs, []

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    mode = MODES["hamilton"](load_preset("so3_rigid_body").spec)
    modules = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "amech" and getattr(module, "hamilton_rhs", None) is real]
    assert dynamics in modules and cli in modules
    for module in modules:
        monkeypatch.setattr(module, "hamilton_rhs", wrapped)
    mode.rhs(0.0, np.array([0.3, 0.4, 0.5]))
    assert len(calls) == 1


def _run_cubic(tmp_path, *init):
    model = tmp_path / "cubic.amech"
    model.write_text(CUBIC)
    out = tmp_path / "o.csv"
    code = main(["simulate", str(model), "--mode", "hamilton", "--init", "q=0",
                 *(f"--init={item}" for item in init), "--t1", "1", "--dt", "1e-2",
                 "--out", str(out), "--manifest", str(tmp_path / "m.json")])
    return code, (np.genfromtxt(out, delimiter=",", names=True) if code == 0 else None)


def test_the_hamilton_start_reads_w_at_the_legendre_inverse_velocity(tmp_path, monkeypatch):
    # the start's momentum is not a velocity: W = v - 2 is read at the v
    # whose momentum v^2/2 - 2v is p1, the velocity the first rhs reuses
    read, is_regular = [], dynamics.is_regular
    monkeypatch.setattr(dynamics, "is_regular",
                        lambda s, at: read.append(at.y) or is_regular(s, at))
    code, _ = _run_cubic(tmp_path, "p1=2.5")
    assert code == 0
    [y] = read
    assert y[0] != 2.5 and y[0] ** 2 / 2 - 2 * y[0] == pytest.approx(2.5, abs=1e-12)


def test_a_hamilton_start_where_y_equals_p_is_singular_runs_on_one_branch(tmp_path):
    # at p1 = 2 the Newton cannot begin at y = p (W = 0 there); it begins at
    # y = 0, finds v = 2 - sqrt(8), and every later solve is seeded at the
    # velocity of the one before, so the run keeps that branch (W < 0) and
    # its energy
    code, out = _run_cubic(tmp_path, "p1=2")
    assert code == 0
    v = 2 - np.sqrt(4 + 2 * out["p1"])
    assert out["p1"][0] == 2.0 and np.all(np.diff(out["p1"]) >= 0)
    assert np.all(v - 2 < -2.8)
    # RK4's drift at dt = 1e-2, far below the jump of a branch switch
    assert np.max(np.abs(out["energy"] - out["energy"][0])) < 1e-9


def test_a_followed_legendre_branch_keeps_the_energy(tmp_path):
    # from p1 = 2.5 the upper branch v = 2 + sqrt(4 + 2 p1) is followed to
    # t = 1; seeded at y = p at every solve, the run used to switch to the
    # lower branch near t = 0.44, where the energy fell from 16.667 to 1.580
    code, out = _run_cubic(tmp_path, "p1=2.5")
    assert code == 0
    assert out["energy"][0] == pytest.approx(50 / 3, rel=1e-12)
    assert np.max(np.abs(out["energy"] - out["energy"][0])) < 1e-9


def test_a_singular_varying_w_hamilton_start_routes_to_exit_3(tmp_path, capsys):
    # capri's W = diag(0, 0, m2, m2 rho^2) varies with x and has zero rows,
    # so the Legendre inverse cannot be solved at the start; W is then read
    # at y = p, where it is singular, and the run is refused as singular
    code = main(["simulate", "--preset", "capri_kobayashi", "--mode", "hamilton",
                 "--init", "rho=1", "--init", "p4=0.3", "--t1", "0.05",
                 "--out", str(tmp_path / "o.csv"), "--manifest", str(tmp_path / "m.json")])
    assert code == 3
    assert "amech constrain" in capsys.readouterr().err


def test_a_constant_w_hamilton_run_compiles_no_lagrangian_point(tmp_path, monkeypatch):
    # the start takes the verdict the closed-form Hamiltonian was built on,
    # so L's mechanics point is never generated
    text = ("system quad\nbase [q]\nfiber [v, w]\nanchor { v -> (1); w -> (0) }\n"
            "params { a = 2.0 }\nlagrangian = 0.5*(v^2 + a*w^2) + q*v - cos(q)\n")
    sources, compile_ = [], expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: sources.append(source)
                        or compile_(source))
    sys_ = system_from_spec(copy.deepcopy(parse_system(text)))
    assert isinstance(hamiltonian_from_lagrangian(sys_), QuadraticHamiltonian)
    sources.clear()
    sys_.derivatives(np.array([0.1, 0.2, 0.3]))
    [point] = sources
    sources.clear()
    model = tmp_path / "quad.amech"
    model.write_text(text)
    assert main(["simulate", str(model), "--mode", "hamilton", "--init", "p1=0.3",
                 "--t1", "0.05", "--dt", "1e-2", "--out", str(tmp_path / "o.csv"),
                 "--manifest", str(tmp_path / "m.json")]) == 0
    assert sources and point not in sources
