"""Per-process set-up: the argument parser, the last parsed document and each
preset are built once, and a later command on the same model reuses the
partial trees and generated code kept on its expression nodes."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amech import cli, dynamics, expr
from amech.cli import MODES, _resolve_init, build_parser, main
from amech.dsl import format_system, parse_system, with_params
from amech.dynamics import EPoint, LegendreEnergy, system_from_spec
from amech.errors import DslError
from amech.odeint import IntegratorConfig, OdeProblem, integrate
from amech.presets import ids as preset_ids, load as load_preset
from amech.vakonomic import h_w1, vakonomic_from_spec

REPO = Path(__file__).resolve().parents[1]

DOC = """\
system kept
base [q]
fiber [v, w]
anchor { v -> (1); w -> (q) }
bracket { [v, w] = v }
params { k = 2.0 }
lagrangian = 0.5*(v^2 + w^2) - k*cos(q)
"""

# used by no other test, so its code is compiled here first
COUNTED = """\
system counted
base [q1, q2]
fiber [u1, u2, u3]
anchor { u1 -> (1, 0); u2 -> (0, 1); u3 -> (0, 0) }
params { a = 1.25, b = 0.375 }
lagrangian = 0.5*(a*u1^2 + u2^2 + b*u3^2) + 0.125*q1*u1*u3 - sin(q1)*cos(q2) - 0.0625*q2^4
"""


def test_parse_system_keeps_the_last_document():
    spec = parse_system(DOC)
    assert parse_system(DOC) is spec
    other = parse_system(DOC.replace("k = 2.0", "k = 3.0"))
    assert other is not spec and other.params == {"k": 3.0}
    assert parse_system(DOC) is not spec
    assert parse_system(DOC) == spec


def test_parse_errors_are_raised_on_every_call():
    spec = parse_system(DOC)
    bad = DOC.replace("base [q]", "base [q?]")
    for _ in range(2):
        with pytest.raises(DslError):
            parse_system(bad)
    # a failed parse keeps nothing and leaves the last good document kept
    assert parse_system(DOC) is spec


def test_with_params_leaves_the_kept_spec_unchanged():
    spec = parse_system(DOC)
    changed = with_params(spec, k=9.0)
    assert changed.params == {"k": 9.0}
    assert parse_system(DOC) is spec and spec.params == {"k": 2.0}


def test_presets_are_parsed_once(tmp_path, capsys):
    assert load_preset("tq_pendulum") is load_preset("tq_pendulum")
    assert load_preset("tq_pendulum").spec is not load_preset("martinet").spec
    for _ in range(2):
        with pytest.raises(KeyError, match="tq_pendulum"):
            load_preset("no_such_system")
        assert main(["validate", "--preset", "no_such_system",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert main(["export-preset", "no_such_system"]) == 2
    capsys.readouterr()


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_flags_of_one_call_do_not_reach_the_next(tmp_path):
    base = ["simulate", "--preset", "tq_pendulum", "--mode", "el",
            "--t1", "0.05", "--dt", "1e-3"]
    flagged, plain, alone = (tmp_path / n for n in ("flagged.csv", "plain.csv", "alone.csv"))
    assert main(base + ["--init", "q=0.7", "--monitor", "twice_q=2*q",
                        "--out", str(flagged), "--manifest", str(tmp_path / "m1.json")]) == 0
    assert main(base + ["--out", str(plain), "--manifest", str(tmp_path / "m2.json")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.run(
        [sys.executable, "-c", "import sys; from amech.cli import main; "
                               "sys.exit(main(sys.argv[1:]))",
         *base, "--out", str(alone), "--manifest", str(tmp_path / "m3.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert "twice_q" in flagged.read_text().split("\n")[0]
    assert plain.read_bytes() == alone.read_bytes()
    config = json.loads((tmp_path / "m2.json").read_text())["config"]
    assert config["extra_monitors"] == []
    assert config == json.loads((tmp_path / "m3.json").read_text())["config"]


def test_a_second_command_on_a_model_derives_nothing(tmp_path, monkeypatch):
    model = tmp_path / "counted.amech"
    model.write_text(COUNTED)
    derived = []
    real_derivative = expr.derivative

    def counting_derivative(node, var, *memo):
        derived.append(var)
        return real_derivative(node, var, *memo)

    missed = []
    real_compile = expr._compile

    def recording_compile(source):
        misses = real_compile.cache_info().misses
        fn = real_compile(source)
        if real_compile.cache_info().misses > misses:
            missed.append(source)
        return fn

    monkeypatch.setattr(expr, "derivative", counting_derivative)
    monkeypatch.setattr(expr, "_compile", recording_compile)
    common = ["--manifest", str(tmp_path / "m.json")]
    assert main(["validate", str(model), "--points", "3",
                 "--out", str(tmp_path / "v.json"), *common]) == 0
    assert derived and missed
    del derived[:], missed[:]
    # the right-hand side and the energy monitor read L's point code, which
    # validate already built
    for out in ("t.csv", "t2.csv"):
        assert main(["simulate", str(model), "--mode", "el", "--t1", "0.01",
                     "--out", str(tmp_path / out), *common]) == 0
        assert derived == [] and missed == []


def test_energy_tree_is_kept_on_the_lagrangian(monkeypatch):
    spec = load_preset("capri_kobayashi").spec
    at = EPoint(np.array([0.9, 1.1, 1.0]), np.array([0.1, 0.2, 0.3, 0.4]))
    first = system_from_spec(spec)
    value, g, h = first.energy_derivatives(at)
    calls = []
    real_derivative = expr.derivative
    monkeypatch.setattr(expr, "derivative",
                        lambda node, var, *memo: calls.append(var)
                        or real_derivative(node, var, *memo))
    second = system_from_spec(spec)
    again = second.energy_derivatives(at)
    assert second._energy is first._energy and calls == []
    assert again[0] == value and np.array_equal(again[1], g) and np.array_equal(again[2], h)
    heavier = system_from_spec(with_params(spec, m2=2.0))
    assert heavier.energy_derivatives(at)[0] != value
    assert heavier._energy is not first._energy


def test_every_command_keeps_its_code_in_one_dict_a_copy_drops(tmp_path, monkeypatch):
    # what the commands build from a spec (chart code, Hamilton field, points,
    # restricted Lagrangian) and from L (partials, jets, E_L) is kept by
    # expr.kept in one `_kept` dict on its owner, and nowhere else on it
    spec = copy.deepcopy(load_preset("tq_pendulum").spec)
    real_load = cli._load_model
    monkeypatch.setattr(cli, "_load_model", lambda args: {**real_load(args), "spec": spec})
    common = ["--preset", "tq_pendulum", "--out", str(tmp_path / "out"),
              "--manifest", str(tmp_path / "m.json")]
    for argv in (["validate", "--points", "3"],
                 *(["simulate", "--mode", mode, "--t1", "0.05"]
                   for mode in ("el", "hamilton", "vakonomic")),
                 ["constrain"], ["bracket", "--F", "p1", "--G", "q", "--at", "q=0.3"]):
        assert main(argv + common) == 0
    for owner in (spec, spec.lagrangian):
        assert [k for k in vars(owner) if k.startswith("_")] == ["_kept"]
        assert vars(owner)["_kept"]
        assert not any(k.startswith("_") for k in vars(copy.deepcopy(owner)))


def test_el_then_vakonomic_runs_of_a_blockless_model_compile_one_point(tmp_path, monkeypatch):
    # with no vakonomic block the vakonomic point is L's EL point, kept on
    # the spec, so the vakonomic run after an el run compiles nothing; a
    # point's code returns its eleven fields, a monitor's jet fewer
    spec = copy.deepcopy(load_preset("tq_pendulum").spec)
    real_load = cli._load_model
    monkeypatch.setattr(cli, "_load_model", lambda args: {**real_load(args), "spec": spec})
    sources = []
    real_compile = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda source: sources.append(source) or real_compile(source))
    common = ["--preset", "tq_pendulum", "--t1", "0.05", "--out", str(tmp_path / "t.csv"),
              "--manifest", str(tmp_path / "m.json")]
    assert main(["simulate", "--mode", "el", *common]) == 0
    el_sources = len(sources)
    assert main(["simulate", "--mode", "vakonomic", *common]) == 0
    assert sources[el_sources:] == []
    points = [s for s in sources if s.rstrip().splitlines()[-1].count(",") >= 8]
    assert len(points) == 1


def _commands(facts, out):
    modes = [m for m in MODES if m in facts["modes"]]
    yield ["validate", "--points", "3", "--out", out]
    for side in ("lagrangian", "hamiltonian"):
        yield ["constrain", "--side", side, "--out", out]
    yield ["bracket", "--F", "p1", "--G", "p1^2", "--out", out]
    for mode in modes:
        yield ["simulate", "--mode", mode, "--t1", "0.02", "--out", out]


@pytest.mark.parametrize("pid", preset_ids())
def test_commands_leave_the_shared_spec_unchanged(tmp_path, pid):
    preset = load_preset(pid)
    text, facts = format_system(preset.spec), copy.deepcopy(preset.facts)
    out = str(tmp_path / "out")
    for argv in _commands(facts, out):
        assert main([*argv, "--preset", pid, "--manifest", str(tmp_path / "m.json")]) == 0, argv
    assert main(["export-preset", pid, "--out", out]) == 0
    assert load_preset(pid) is preset
    assert format_system(preset.spec) == text
    assert preset.facts == facts


def test_a_repeated_simulate_on_a_preset_generates_nothing(tmp_path, monkeypatch):
    # the preset channels are parsed once, with the preset, so the monitor
    # code built for their trees on the first run is found on the next
    argv = ["simulate", "--preset", "tq_pendulum", "--mode", "el", "--t1", "0.02",
            "--manifest", str(tmp_path / "m.json")]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main([*argv, "--out", str(first)]) == 0
    generated = []
    real_generate = expr.generate
    monkeypatch.setattr(expr, "generate",
                        lambda names, *args: generated.append(names)
                        or real_generate(names, *args))
    assert main([*argv, "--out", str(second)]) == 0
    assert generated == []
    assert "closed_form_energy" in first.read_text().split("\n")[0]
    assert second.read_bytes() == first.read_bytes()


# a cubic velocity term: W = v - 2 depends on the velocity, so its
# Hamiltonian takes the Legendre Newton
CUBIC = """\
system cubic
base [q]
fiber [v]
anchor { v -> (1) }
lagrangian = v^3/6 - v^2 - 0.5*q^2
"""


def test_hamilton_mode_solves_the_legendre_inverse_once_per_point(tmp_path, monkeypatch):
    # the energy monitor reads each row before the next step starts from it,
    # and that step's first stage finds the row's solve in LegendreEnergy's
    # last-point memo: 4N + 1 Newton solves for N RK4 steps, not 5N + 1
    solves = []
    real_solve = LegendreEnergy._solve_velocity
    monkeypatch.setattr(LegendreEnergy, "_solve_velocity",
                        lambda self, x, p: solves.append(1) or real_solve(self, x, p))
    model, out = tmp_path / "cubic.amech", tmp_path / "h.csv"
    model.write_text(CUBIC)
    assert main(["simulate", str(model), "--mode", "hamilton", "--init", "q=0",
                 "--init", "p1=2.5", "--t1", "0.2", "--dt", "0.01", "--out", str(out),
                 "--manifest", str(tmp_path / "m.json")]) == 0
    steps = len(out.read_text().splitlines()) - 2  # the header and row 0
    assert steps == 20
    assert len(solves) == 4 * steps + 1


@pytest.mark.parametrize("pid", ["tq_pendulum", "so3_rigid_body", "skinner_rusk_demo"])
def test_the_hamilton_row_returns_the_field_array_itself(pid):
    # xdot and pdot are views of one read-only array, which the row returns
    # without a copy: a repeated point hands out the kept array again
    mode = MODES["hamilton"](load_preset(pid).spec)
    y = np.linspace(0.3, 0.9, len(mode.labels))
    field = mode.rhs(0.0, y)
    assert field.shape == y.shape and not field.flags.writeable
    assert mode.rhs(0.0, y) is field


def test_vakonomic_mode_runs_the_point_code_once_per_stage(monkeypatch):
    # each right-hand side is one call of the generated point code; the h_w1
    # monitor reads each row before the next step's first stage finds it in
    # the last-point memo, so it adds one call, at the last row: 4N + 1 calls
    # for N RK4 steps with the monitor, 4N without
    runs = []
    real_generate = expr.generate

    def counting(names, *args):
        code = real_generate(names, *args)
        return lambda v: runs.append(names) or code(v)

    monkeypatch.setattr(expr, "generate", counting)
    spec = copy.deepcopy(load_preset("so3_rigid_body").spec)
    mode = MODES["vakonomic"](spec)
    problem = OdeProblem(dim=3, rhs=mode.rhs, labels=mode.labels)
    config = IntegratorConfig(t0=0.0, t1=0.2, h=0.01)
    y0 = np.array([0.3, 0.4, 0.5])
    del runs[:]
    plain = integrate(problem, config, y0, {})
    steps = len(plain.times) - 1
    assert steps == 20 and runs == [mode.labels] * (4 * steps)
    del runs[:]
    traj = integrate(problem, config, y0, {"energy": mode.energy})
    assert runs == [mode.labels] * (4 * steps + 1)
    assert traj.states.tobytes() == plain.states.tobytes()
    vsys = vakonomic_from_spec(spec)
    after = [h_w1(vsys, vsys.unpack(state)) for state in traj.states]
    assert traj.monitors["energy"].tobytes() == np.array(after).tobytes()


# used by no other test, renamed per case, so its code is compiled under the
# counting generate
MONITORED = """\
system monitored
base [q]
fiber [v]
anchor { v -> (1) }
params { g = 9.5 }
lagrangian = 0.5*v^2*(1.25 + 0.25*cos(q)) + g*cos(q)
"""


@pytest.mark.parametrize("config, extra", [
    (IntegratorConfig(t0=0.0, t1=0.1, h=0.01), 1),
    (IntegratorConfig(t0=0.0, t1=0.5, method="dp45", rtol=1e-9), 0),
])
def test_the_energy_monitor_reads_the_rows_the_stages_evaluate(monkeypatch, config, extra):
    # with the energy monitor, L's generated jet runs once more than without
    # it under RK4 (at the last row, where no stage evaluates) and not at all
    # more under DP45, whose last stage of an accepted step is at the row
    runs = []
    real_generate = expr.generate

    def counting(names, *args):
        code = real_generate(names, *args)
        return lambda v: runs.append(names) or code(v)

    monkeypatch.setattr(expr, "generate", counting)
    mode = MODES["el"](parse_system(MONITORED.replace("monitored", config.method)))
    problem = OdeProblem(dim=2, rhs=mode.rhs, labels=mode.labels)
    y0 = np.array([0.4, -0.3])

    def jet_runs(monitors):
        del runs[:]
        traj = integrate(problem, config, y0, monitors)
        return runs.count(mode.labels), traj

    bare, plain = jet_runs({})
    monitored, traj = jet_runs({"energy": mode.energy})
    assert bare > 0 and monitored == bare + extra
    assert traj.states.tobytes() == plain.states.tobytes()


def test_a_repeated_hamilton_simulate_generates_nothing(tmp_path, monkeypatch):
    # L's point code and the spec's Hamilton field are kept on the preset's
    # spec, so a second run finds both
    argv = ["simulate", "--preset", "skinner_rusk_demo", "--mode", "hamilton",
            "--t1", "0.02", "--manifest", str(tmp_path / "m.json")]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main([*argv, "--out", str(first)]) == 0
    generated = []
    real_generate = expr.generate
    monkeypatch.setattr(expr, "generate",
                        lambda names, *args: generated.append(names)
                        or real_generate(names, *args))
    assert main([*argv, "--out", str(second)]) == 0
    assert generated == []
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("pid", preset_ids())
def test_each_right_hand_side_runs_the_generated_code_once_per_point(pid, monkeypatch):
    # el, sode and vakonomic are one generated call at a fresh point, and
    # hamilton, whose presets all have a constant velocity Hessian, is one
    # call of the closed-form Hamiltonian and one of the Hamilton field, with
    # no Legendre Newton: no numpy assembly reads the chart tensors
    runs = []
    real_generate = expr.generate

    def counting(names, *args):
        code = real_generate(names, *args)
        return None if code is None else lambda v: runs.append(names) or code(v)

    newton_points = []
    real_newton = dynamics.damped_newton

    def counting_newton(residual, step, x0, what, **kwargs):
        def counted(y):
            newton_points.append(y)
            return residual(y)
        return real_newton(counted, step, x0, what, **kwargs)

    monkeypatch.setattr(expr, "generate", counting)
    monkeypatch.setattr(dynamics, "damped_newton", counting_newton)
    preset = load_preset(pid)
    spec = copy.deepcopy(preset.spec)
    seen = set()
    for name in (m for m in MODES if m in preset.facts["modes"]):
        seen.add(name)
        mode = MODES[name](spec)
        y0, _ = _resolve_init(mode.labels, preset.facts["default_init"].get(name, {}), {})
        for k in range(1, 4):
            del runs[:], newton_points[:]
            mode.rhs(0.0, y0 + 0.01 * k)
            if name == "hamilton":
                assert newton_points == [] and len(runs) == 2, name
            else:
                assert len(runs) == 1 and newton_points == [], name
    assert seen
