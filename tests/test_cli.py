"""End-to-end command tests: exit codes, outputs, manifests, replays."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amech import algebroid, expr, presym
from amech.algebroid import chart_from_spec, check_structure
from amech.cli import main
from amech.dsl import MAX_DEPTH, MAX_NESTING, format_system, parse_system
from amech.errors import DslSyntaxError
from amech.presets import ids as preset_ids, load as load_preset

REPO = Path(__file__).resolve().parents[1]

BROKEN_JACOBI = """\
system broken
base []
fiber [w1, w2, w3]
anchor zero
bracket { [w1,w2] = w2; [w2,w3] = w1; [w3,w1] = w2 }
lagrangian = 0.5*(w1^2 + w2^2 + w3^2)
"""


def _read_csv(path):
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text and text.endswith("\n")
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def _col(header, data, name):
    return data[:, header.index(name)]


def test_validate_preset_succeeds(tmp_path):
    report = tmp_path / "report.json"
    manifest = tmp_path / "man.json"
    code = main(["validate", "--preset", "tq_pendulum",
                 "--out", str(report), "--manifest", str(manifest)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert doc["structure"]["max_r1"] < 1e-10
    assert doc["structure"]["max_r2"] < 1e-10
    assert len(doc["structure"]["points"]) == 20
    man = json.loads(manifest.read_text())
    assert man["command"] == "validate"
    assert man["exit_status"] == 0
    assert man["input"]["preset"] == "tq_pendulum"
    assert man["rank_tolerance"] > 0.0


def test_validate_rejects_broken_bracket(tmp_path):
    # the cyclic table with one right side replaced by w2 fails the closure
    # identity; confirm through the library first, then through the command
    model = tmp_path / "broken.amech"
    model.write_text(BROKEN_JACOBI)
    from amech.dsl import parse_system

    chart = chart_from_spec(parse_system(BROKEN_JACOBI))
    assert check_structure(chart, np.zeros(0)).r2 > 1e-8
    report = tmp_path / "report.json"
    code = main(["validate", str(model), "--out", str(report),
                 "--manifest", str(tmp_path / "man.json")])
    assert code == 1
    assert json.loads(report.read_text())["ok"] is False


def test_malformed_file_is_a_usage_error(tmp_path):
    model = tmp_path / "bad.amech"
    model.write_text("system bad\nbase [q\n")
    assert main(["validate", str(model)]) == 2


def test_unknown_preset_is_a_usage_error(tmp_path):
    assert main(["validate", "--preset", "nope",
                 "--manifest", str(tmp_path / "m.json")]) == 2


def test_missing_model_is_a_usage_error(tmp_path):
    assert main(["validate", "--manifest", str(tmp_path / "m.json")]) == 2


def test_missing_model_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "nofile.amech"
    assert main(["validate", str(path), "--manifest", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"


def test_a_package_error_outside_the_exit_code_table_is_exit_1(tmp_path, capsys):
    # the velocity Hessian's kernel turns with q, so the Hamiltonian side is
    # refused with a bare AmechError
    model = tmp_path / "rot.amech"
    model.write_text("system rot\nbase [q]\nfiber [v1, v2]\nanchor { v1 -> (1); v2 -> (0) }\n"
                     "lagrangian = 0.5*(cos(q)*v1 + sin(q)*v2)^2\n")
    code = main(["constrain", str(model), "--side", "hamiltonian",
                 "--out", str(tmp_path / "r.json"), "--manifest", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: kernel of the velocity Hessian varies across sample points")


def test_unknown_mode_is_a_usage_error(capsys):
    assert main(["simulate", "--preset", "tq_pendulum", "--mode", "bogus"]) == 2
    capsys.readouterr()


def test_simulate_el_csv_and_manifest(tmp_path):
    out = tmp_path / "run.csv"
    manifest = tmp_path / "man.json"
    code = main(["simulate", "--preset", "tq_pendulum", "--mode", "el",
                 "--t1", "1.0", "--dt", "1e-3",
                 "--out", str(out), "--manifest", str(manifest)])
    assert code == 0
    header, data = _read_csv(out)
    assert header == ["t", "q", "v", "energy", "closed_form_energy"]
    assert data.shape[0] == 1001
    energy = _col(header, data, "energy")
    assert np.max(np.abs(energy - energy[0])) < 1e-8
    assert np.allclose(energy, _col(header, data, "closed_form_energy"), atol=1e-12)
    cfg = json.loads(manifest.read_text())["config"]
    assert cfg["mode"] == "el"
    assert cfg["init"] == {"q": 1.2, "v": 0.3}


def test_simulate_without_out_writes_the_csv_to_stdout(tmp_path, capsys):
    out = tmp_path / "run.csv"
    argv = ["simulate", "--preset", "tq_pendulum", "--mode", "hamilton",
            "--t1", "0.02", "--dt", "0.01", "--manifest", str(tmp_path / "m.json")]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_deep_nesting_is_a_syntax_error(tmp_path, capsys):
    # one level past the parser's bound; on the line below the lagrangian
    # keyword, at the opening parenthesis that goes one level too deep
    depth = MAX_NESTING + 1
    model = tmp_path / "deep.amech"
    model.write_text("system deep\nbase [q]\nfiber [v]\nanchor { v -> (1) }\nlagrangian =\n  "
                     + "(" * depth + "v" + ")" * depth + "^2\n")
    assert main(["validate", str(model), "--manifest", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: line 6, column {depth + 2}: "
        f"expression nested deeper than {MAX_NESTING} levels\n")


CHAIN_HEAD = "system chain\nbase [q]\nfiber [v]\nanchor { v -> (1) }\n"


def test_a_1500_term_lagrangian_is_a_syntax_error(tmp_path, capsys):
    # a left-deep sum is one level per term, so it meets the tree-depth bound
    # long before the tree walks would run out of stack
    text = CHAIN_HEAD + "lagrangian = v^2" + " + q" * 1499 + "\n"
    with pytest.raises(DslSyntaxError, match=f"tree deeper than {MAX_DEPTH} levels"):
        parse_system(text)
    model = tmp_path / "long.amech"
    model.write_text(text)
    assert main(["validate", str(model), "--manifest", str(tmp_path / "m.json")]) == 2
    assert "tree deeper than" in capsys.readouterr().err


@pytest.mark.parametrize("chain", [
    "v^2" + " + q" * (MAX_DEPTH - 2),            # v^2 two levels, a link each
    "v^2 + v" + "*v" * (MAX_DEPTH - 2),          # product of MAX_DEPTH - 1 v's
])
def test_a_model_at_the_depth_bound_runs_every_command(tmp_path, chain):
    text = CHAIN_HEAD + f"lagrangian = {chain}\n"
    spec = parse_system(text)
    assert format_system(parse_system(format_system(spec))) == format_system(spec)
    model = tmp_path / "chain.amech"
    model.write_text(text)
    flags = ["--out", str(tmp_path / "out"), "--manifest", str(tmp_path / "m.json")]
    for argv in (["validate", "--points", "2"],
                 ["simulate", "--t1", "0.02", "--dt", "0.01", "--init", "v=0.5"],
                 ["simulate", "--mode", "hamilton", "--t1", "0.02", "--dt", "0.01",
                  "--init", "p1=0.5"],
                 ["simulate", "--mode", "vakonomic", "--t1", "0.02", "--dt", "0.01",
                  "--init", "v=0.5"],
                 ["constrain"], ["constrain", "--side", "hamiltonian"],
                 ["bracket", "--F", "p1", "--G", "q*p1", "--at", "q=0.2"]):
        assert main([argv[0], str(model), *argv[1:], *flags]) == 0, argv


def test_simulate_hamilton_keeps_casimir(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--preset", "so3_rigid_body", "--mode", "hamilton",
                 "--t1", "1.0", "--dt", "1e-3",
                 "--out", str(out), "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    header, data = _read_csv(out)
    assert header[:4] == ["t", "p1", "p2", "p3"]
    assert "casimir" in header and "closed_form_h" in header
    cas = _col(header, data, "casimir")
    assert np.max(np.abs(cas - cas[0])) < 1e-10


def test_simulate_vakonomic_adds_derived_channels(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--preset", "martinet", "--mode", "vakonomic",
                 "--t1", "0.5", "--dt", "1e-3",
                 "--out", str(out), "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    header, data = _read_csv(out)
    for name in ("energy", "cost_energy", "theta", "pendulum_residual"):
        assert name in header
    assert np.max(np.abs(_col(header, data, "pendulum_residual")[2:-2])) < 1e-3


def test_simulate_sode_stays_on_the_final_manifold(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--preset", "capri_kobayashi", "--mode", "sode",
                 "--t1", "0.2", "--dt", "1e-3",
                 "--out", str(out), "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    header, data = _read_csv(out)
    for name in ("x1", "y1", "e1", "e2"):
        assert np.max(np.abs(_col(header, data, name))) < 1e-9


def test_singular_lagrangian_routes_to_exit_3(tmp_path, capsys):
    code = main(["simulate", "--preset", "capri_kobayashi", "--mode", "el",
                 "--out", str(tmp_path / "x.csv"),
                 "--manifest", str(tmp_path / "m.json")])
    assert code == 3
    assert "constraint algorithm" in capsys.readouterr().err


def test_step_budget_exhaustion_is_exit_4(tmp_path, capsys):
    code = main(["simulate", "--preset", "tq_pendulum", "--mode", "el",
                 "--t1", "10.0", "--dt", "1e-3", "--max-steps", "10",
                 "--out", str(tmp_path / "x.csv"),
                 "--manifest", str(tmp_path / "m.json")])
    assert code == 4
    capsys.readouterr()


def test_init_overrides_and_rejects_unknown_names(tmp_path):
    out = tmp_path / "run.csv"
    manifest = tmp_path / "man.json"
    code = main(["simulate", "--preset", "tq_pendulum", "--mode", "el",
                 "--t1", "0.01", "--init", "q=0.5", "--init", "v=0.0",
                 "--out", str(out), "--manifest", str(manifest)])
    assert code == 0
    assert json.loads(manifest.read_text())["config"]["init"] == {"q": 0.5, "v": 0.0}
    header, data = _read_csv(out)
    assert data[0, header.index("q")] == 0.5
    code = main(["simulate", "--preset", "tq_pendulum", "--mode", "el",
                 "--init", "bogus=1", "--out", str(out),
                 "--manifest", str(manifest)])
    assert code == 2


def test_monitor_flag_adds_a_column(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--preset", "tq_pendulum", "--mode", "el",
                 "--t1", "0.1", "--monitor", "twice_q=2*q",
                 "--out", str(out), "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    header, data = _read_csv(out)
    assert "twice_q" in header
    assert np.array_equal(_col(header, data, "twice_q"),
                          2.0 * _col(header, data, "q"))


@pytest.mark.parametrize("flags", [[], ["--rtol", "1e-9"]])
def test_manifest_replay_is_bitwise(tmp_path, flags):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    manifest = tmp_path / "man.json"
    base = ["simulate", "--preset", "so3_rigid_body", "--mode", "hamilton",
            "--t1", "1.0", "--dt", "2e-3"] + flags
    assert main(base + ["--out", str(a), "--manifest", str(manifest)]) == 0
    assert main(["simulate", "--from-manifest", str(manifest),
                 "--out", str(b), "--manifest", str(tmp_path / "m2.json")]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_replay_refuses_non_simulate_manifests(tmp_path, capsys):
    manifest = tmp_path / "man.json"
    assert main(["validate", "--preset", "tq_pendulum",
                 "--out", str(tmp_path / "r.json"),
                 "--manifest", str(manifest)]) == 0
    assert main(["simulate", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "b.csv"),
                 "--manifest", str(tmp_path / "m2.json")]) == 2
    capsys.readouterr()


def test_bracket_command_reports_value_and_checks(tmp_path):
    report = tmp_path / "report.json"
    code = main(["bracket", "--preset", "so3_rigid_body",
                 "--F", "p1", "--G", "p2", "--at", "p3=2.0",
                 "--out", str(report), "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["value"] == pytest.approx(-2.0, abs=1e-12)
    assert doc["antisymmetry_defect"] == 0.0
    assert abs(doc["jacobi_residual_fd"]) < 1e-5


def test_bracket_rejects_unknown_coordinates(tmp_path, capsys):
    code = main(["bracket", "--preset", "so3_rigid_body",
                 "--F", "p1", "--G", "p2", "--at", "bogus=1.0",
                 "--manifest", str(tmp_path / "m.json")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("side,zero_names", [
    ("lagrangian", ["x1", "y1"]),
    ("hamiltonian", ["x1", "y1"]),
])
def test_constrain_stabilizes_both_sides(tmp_path, side, zero_names):
    report = tmp_path / "report.json"
    code = main(["constrain", "--preset", "capri_kobayashi", "--side", side,
                 "--out", str(report), "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["side"] == side
    assert doc["stabilization_level"] == 1
    assert doc["levels"][1]["new_constraint_rank"] == 2
    assert doc["final_solve_residual"] < 1e-8


def _preset_commands(pid):
    yield ["validate", "--points", "3"]
    for mode in load_preset(pid).facts["modes"]:
        yield ["simulate", "--mode", mode, "--t1", "0.05", "--dt", "0.01"]
    for side in ("lagrangian", "hamiltonian"):
        yield ["constrain", "--side", side]


@pytest.mark.parametrize("pid", preset_ids())
def test_preset_commands_difference_nothing(tmp_path, pid, monkeypatch):
    # every derivative of a model comes from its trees; of the commands only
    # bracket's Jacobi spot check, on nested brackets, may difference
    calls = []
    for module, name in ((expr, "_fd_gradient"), (expr, "_fd_hessian"),
                         (algebroid, "_fd_tensor_jacobian"), (presym, "_fd_gradient")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _real=real: calls.append(1) or _real(*args))
    common = ["--preset", pid, "--out", str(tmp_path / "out"),
              "--manifest", str(tmp_path / "m.json")]
    for argv in _preset_commands(pid):
        assert main([*argv, *common]) == 0, argv
        assert calls == [], argv
    assert main(["bracket", "--F", "p1", "--G", "p1^2", *common]) == 0
    assert calls


def test_export_preset_round_trip(tmp_path):
    out = tmp_path / "model.amech"
    assert main(["export-preset", "martinet", "--out", str(out)]) == 0
    assert out.read_text() == load_preset("martinet").dsl
    assert main(["validate", str(out), "--out", str(tmp_path / "r.json"),
                 "--manifest", str(tmp_path / "m.json")]) == 0


def test_rank_tolerance_env_lands_in_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("AMECH_TOL", "1e-7")
    manifest = tmp_path / "man.json"
    assert main(["validate", "--preset", "tq_pendulum",
                 "--out", str(tmp_path / "r.json"),
                 "--manifest", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["rank_tolerance"] == 1e-7


def test_default_manifest_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--preset", "tq_pendulum",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "amech-manifest.json").exists()


def _console_script():
    """Command prefix that runs the declared `amech` console script.

    An `amech` on PATH is used as is. Without one (the suite runs from source
    and needs no install), the `[project.scripts]` entry of pyproject.toml is
    run the way the wrapper an installer generates runs it: import the
    function, call it with no arguments so it reads `sys.argv`, and hand its
    return value to `sys.exit`.
    """
    exe = shutil.which("amech")
    if exe is not None:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["amech"]
    module, _, func = target.partition(":")
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'amech'\nsys.exit({func}())\n")
    return [sys.executable, "-c", wrapper]


def test_console_script_is_installed(tmp_path):
    # the child imports this checkout's src first, never a stale install
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    cmd = _console_script()

    proc = subprocess.run(cmd + ["export-preset", "tq_pendulum"], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == load_preset("tq_pendulum").dsl

    # main's return value becomes the process exit status (README table)
    proc = subprocess.run(cmd + ["export-preset", "no_such_preset"], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert any(line.startswith("error:")
               for line in proc.stderr.splitlines()), proc.stderr


def _bad_manifest(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return ["simulate", "--from-manifest", str(path)]


@pytest.mark.parametrize("argv, env, code", [
    (["validate", "--preset", "no_such_preset"], {}, 2),
    (["export-preset", "no_such_preset"], {}, 2),
    ("malformed", {}, 1),
    ("missing", {}, 2),
    ("not an object", {}, 2),
    (["constrain", "--preset", "tq_pendulum"], {"AMECH_TOL": "abc"}, 1),
    (["constrain", "--preset", "tq_pendulum"], {"AMECH_TOL": "-1"}, 1),
    (["constrain", "--preset", "tq_pendulum", "--probes", "0"], {}, 1),
    (["validate", "--preset", "tq_pendulum", "--seed", "-1"], {}, 1),
    (["simulate", "--preset", "tq_pendulum", "--init", "q=nan"], {}, 2),
    (["bracket", "--preset", "so3_rigid_body", "--F", "p1", "--G", "p2",
      "--at", "p3=inf"], {}, 2),
])
def test_bad_user_input_keeps_its_exit_code(tmp_path, monkeypatch, capsys,
                                            argv, env, code):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if argv == "malformed":
        argv = _bad_manifest(tmp_path, "{not json")
    elif argv == "missing":
        argv = _bad_manifest(tmp_path, json.dumps({"command": "simulate"}))
    elif argv == "not an object":
        argv = _bad_manifest(tmp_path, "[1, 2]")
    if argv[0] != "export-preset":
        argv = [*argv, "--manifest", str(tmp_path / "m.json")]
    assert main([*argv, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("exc", [ValueError("internal"), KeyError("internal")])
def test_library_value_and_key_errors_are_not_exit_codes(tmp_path, monkeypatch, exc):
    # only AmechError subclasses and usage errors map to exit codes; a
    # ValueError or KeyError from inside the library is a bug and surfaces
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("amech.cli.run_constraint_algorithm", broken)
    with pytest.raises(type(exc), match="internal"):
        main(["constrain", "--preset", "tq_pendulum",
              "--out", str(tmp_path / "r.json"), "--manifest", str(tmp_path / "m.json")])


def test_replay_checks_the_mode_against_the_table(tmp_path, capsys):
    manifest = tmp_path / "man.json"
    assert main(["simulate", "--preset", "tq_pendulum", "--t1", "0.01",
                 "--out", str(tmp_path / "a.csv"), "--manifest", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    doc["config"]["mode"] = "bogus"
    manifest.write_text(json.dumps(doc))
    assert main(["simulate", "--from-manifest", str(manifest),
                 "--manifest", str(tmp_path / "m2.json")]) == 2
    assert "unknown mode 'bogus'" in capsys.readouterr().err
