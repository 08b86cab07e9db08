"""Catalogue integrity: every entry parses, closes, and matches its facts."""

import numpy as np
import pytest

from amech.algebroid import (
    DualPoint,
    chart_from_spec,
    check_structure,
    lie_poisson_bracket,
    momentum_names,
)
from amech.cli import MODES, build_parser
from amech.dsl import parse_expression
from amech.expr import evaluate, variables_of
from amech.odeint import IntegratorConfig, OdeProblem, integrate
from amech.presets import (
    ids,
    load,
    martinet_pendulum_channels,
    plate_ball_pendulum_channels,
)
from amech.vakonomic import vakonomic_from_spec

ALL_IDS = ("capri_kobayashi", "lie_algebra_affine", "martinet", "plate_ball",
           "skinner_rusk_demo", "so3_rigid_body", "tq_pendulum")


def _mode_labels(preset, mode):
    return MODES[mode](preset.spec).labels


def test_catalogue_ids_are_sorted_and_complete():
    assert ids() == ALL_IDS


def test_unknown_id_reports_the_catalogue():
    with pytest.raises(KeyError, match="tq_pendulum"):
        load("no_such_system")


@pytest.mark.parametrize("preset_id", ALL_IDS)
def test_entry_parses_and_name_matches(preset_id):
    preset = load(preset_id)
    assert preset.id == preset_id
    assert preset.spec.name == preset_id


@pytest.mark.parametrize("preset_id", ALL_IDS)
def test_structure_closes(preset_id):
    chart = chart_from_spec(load(preset_id).spec)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(0.5, 1.5, size=chart.m)
        rep = check_structure(chart, x)
        assert rep.r1 < 1e-10 and rep.r2 < 1e-10


@pytest.mark.parametrize("preset_id", ALL_IDS)
def test_default_init_keys_are_state_labels(preset_id):
    preset = load(preset_id)
    facts = preset.facts
    assert set(facts["default_init"]) == set(facts["modes"])
    for mode, init in facts["default_init"].items():
        labels = _mode_labels(preset, mode)
        for key in init:
            assert key in labels, (preset_id, mode, key)
            assert np.isfinite(float(init[key]))


def test_mode_table_keys_are_the_simulate_choices():
    commands = next(a for a in build_parser()._actions if a.dest == "cmd")
    mode = next(a for a in commands.choices["simulate"]._actions if a.dest == "mode")
    assert list(mode.choices) == list(MODES) == ["el", "hamilton", "vakonomic", "sode"]


@pytest.mark.parametrize("preset_id", ALL_IDS)
def test_preset_modes_are_rows_of_the_table(preset_id):
    # _resolve_init drops a default_init name that is not a label of its row,
    # so test_default_init_keys_are_state_labels is what catches a typo there
    facts = load(preset_id).facts
    assert set(facts["modes"]) <= set(MODES)
    assert set(facts["default_init"]) <= set(MODES)


@pytest.mark.parametrize("preset_id", ALL_IDS)
def test_channel_expressions_bind(preset_id):
    preset = load(preset_id)
    bindable = set(preset.spec.params)
    for mode in preset.facts["modes"]:
        bindable |= set(_mode_labels(preset, mode))
    for name, text in preset.facts["channels"].items():
        used = variables_of(parse_expression(text))
        assert used <= bindable, (preset_id, name, used - bindable)


def test_bracket_sample_facts_reproduce():
    for preset_id in ALL_IDS:
        preset = load(preset_id)
        chart = chart_from_spec(preset.spec)
        for sample in preset.facts.get("bracket_samples", []):
            x = np.zeros(chart.m)
            p = np.zeros(chart.n)
            for key, val in sample["at"].items():
                names = chart.base_names + momentum_names(chart.n)
                idx = names.index(key)
                if idx < chart.m:
                    x[idx] = val
                else:
                    p[idx - chart.m] = val
            got = lie_poisson_bracket(chart, parse_expression(sample["F"]),
                                      parse_expression(sample["G"]),
                                      DualPoint(x, p))
            assert got == pytest.approx(sample["value"], abs=1e-12)


def test_plate_ball_bracket_table_facts():
    preset = load("plate_ball")
    chart = chart_from_spec(preset.spec)
    names = chart.base_names + momentum_names(chart.n)
    rng = np.random.default_rng(5)
    for row in preset.facts["bracket_table"]:
        expect = parse_expression(row["value"])
        for _ in range(5):
            z = rng.uniform(-1.0, 1.0, size=len(names))
            at = DualPoint(z[:chart.m], z[chart.m:])
            want = evaluate(expect, dict(zip(names, z)))
            got = lie_poisson_bracket(chart, parse_expression(row["F"]),
                                      parse_expression(row["G"]), at)
            assert got == pytest.approx(want, abs=1e-12)


def test_derived_channel_key_placement():
    for preset_id in ALL_IDS:
        facts = load(preset_id).facts
        if preset_id in ("martinet", "plate_ball"):
            assert "derived" in facts
        else:
            assert "derived" not in facts


def _vak_trajectory(preset_id, t1, h):
    preset = load(preset_id)
    sys = vakonomic_from_spec(preset.spec)
    init = preset.facts["default_init"]["vakonomic"]
    y0 = np.array([float(init.get(k, 0.0)) for k in sys.state_labels])
    prob = OdeProblem(dim=len(y0), rhs=sys.ode_rhs, labels=sys.state_labels)
    return integrate(prob, IntegratorConfig(t0=0.0, t1=t1, h=h), y0)


def test_martinet_pendulum_channels_on_trajectory():
    traj = _vak_trajectory("martinet", t1=2.0, h=1e-3)
    out = martinet_pendulum_channels(traj)
    assert set(out) == {"theta", "pendulum_residual"}
    assert out["theta"].shape == traj.times.shape
    assert np.max(np.abs(out["pendulum_residual"][2:-2])) < 1e-3


def test_plate_ball_pendulum_channels_on_trajectory():
    # the pendulum reduction holds for the pure rolling problem
    from amech.dsl import with_params

    preset = load("plate_ball")
    sys = vakonomic_from_spec(with_params(preset.spec, Omega=0.0, c=0.0))
    init = preset.facts["default_init"]["vakonomic"]
    y0 = np.array([float(init.get(k, 0.0)) for k in sys.state_labels])
    prob = OdeProblem(dim=len(y0), rhs=sys.ode_rhs, labels=sys.state_labels)
    traj = integrate(prob, IntegratorConfig(t0=0.0, t1=2.0, h=1e-3), y0)
    out = plate_ball_pendulum_channels(traj)
    assert set(out) == {"theta", "pendulum_residual"}
    assert np.max(np.abs(out["pendulum_residual"][2:-2])) < 1e-3


@pytest.mark.parametrize("pid", ["martinet", "plate_ball"])
def test_derived_channels_are_the_declared_names(pid):
    facts = load(pid).facts
    out = facts["derived"](_vak_trajectory(pid, t1=0.05, h=1e-2))
    assert tuple(out) == facts["derived_names"]


def test_pendulum_channels_need_enough_samples():
    traj = _vak_trajectory("martinet", t1=3e-3, h=1e-3)
    assert traj.times.size < 5
    assert martinet_pendulum_channels(traj) == {}


def test_capri_kobayashi_algorithm_facts():
    facts = load("capri_kobayashi").facts["constraint_algorithm"]
    assert facts["lagrangian"]["stabilization_level"] == 1
    assert facts["lagrangian"]["zero_coords"] == ["x1", "y1"]
    assert facts["hamiltonian"]["primary_zero_momenta"] == ["p1", "p2"]
