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

from amech import expr
from amech.cli import MODES, build_parser, main
from amech.dsl import format_system, parse_system, with_params
from amech.dynamics import EPoint, system_from_spec
from amech.errors import DslError
from amech.presets import ids as preset_ids, load as load_preset

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
    # the energy monitor reads L's Hessian jet, which validate already built
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
