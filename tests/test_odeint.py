"""Fixed-step and adaptive integration, drift reports, and failure modes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amech import odeint
from amech.errors import (MaxStepsExceeded, SingularHessian, SingularR, StepFailure,
                          ToleranceUnreachable)
from amech.odeint import (
    DriftReport,
    IntegratorConfig,
    OdeProblem,
    Trajectory,
    integrate,
    monitor_drift,
)

HARMONIC = OdeProblem(dim=2, rhs=lambda t, y: np.array([y[1], -y[0]]),
                      labels=("q", "v"))


def _energy(t, y):
    return 0.5 * (y[0] ** 2 + y[1] ** 2)


def test_constant_rhs_stays_put():
    prob = OdeProblem(dim=2, rhs=lambda t, y: np.zeros(2))
    traj = integrate(prob, IntegratorConfig(t0=0.0, t1=1.0, h=0.1), np.array([3.0, -4.0]))
    assert np.all(traj.states == np.array([3.0, -4.0]))


def test_exponential_growth_accuracy():
    prob = OdeProblem(dim=1, rhs=lambda t, y: y)
    traj = integrate(prob, IntegratorConfig(t0=0.0, t1=1.0, h=1e-3), np.array([1.0]))
    assert traj.times[-1] == 1.0
    assert abs(traj.states[-1, 0] - math.e) < 1e-10


def test_harmonic_energy_drift_long_run():
    cfg = IntegratorConfig(t0=0.0, t1=100.0, h=1e-3)
    traj = integrate(HARMONIC, cfg, np.array([1.0, 0.0]), {"E": _energy})
    rep = monitor_drift(traj, "E")
    assert isinstance(rep, DriftReport)
    assert rep.max_abs_deviation < 1e-6
    assert 0.0 <= rep.time_of_max <= 100.0


def test_rk4_is_fourth_order():
    # y' = y^2, y(0) = 1 has the solution 1/(1 - t); halving h must shrink
    # the endpoint error by about 2^4
    prob = OdeProblem(dim=1, rhs=lambda t, y: y ** 2)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = integrate(prob, IntegratorConfig(t0=0.0, t1=0.5, h=h), np.array([1.0]))
        errors.append(abs(traj.states[-1, 0] - 2.0))
    assert errors[0] / errors[1] > 14.0
    assert errors[1] / errors[2] > 14.0


def test_rk4_grid_includes_short_final_step():
    traj = integrate(OdeProblem(dim=1, rhs=lambda t, y: np.zeros(1)),
                     IntegratorConfig(t0=0.0, t1=0.35, h=0.1), np.array([1.0]))
    assert traj.times.shape == (5,)
    assert traj.times[-1] == 0.35
    assert_allclose(np.diff(traj.times)[:-1], 0.1, atol=0)


def test_integration_is_bitwise_deterministic():
    cfg = IntegratorConfig(t0=0.0, t1=3.0, h=1e-2)
    y0 = np.array([0.3, 0.7])
    a = integrate(HARMONIC, cfg, y0, {"E": _energy})
    b = integrate(HARMONIC, cfg, y0, {"E": _energy})
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.monitors["E"], b.monitors["E"])


def test_dp45_matches_rk4_within_tolerance():
    cfg_fixed = IntegratorConfig(t0=0.0, t1=10.0, h=1e-3)
    cfg_adapt = IntegratorConfig(t0=0.0, t1=10.0, method="dp45", rtol=1e-10, atol=1e-12)
    y0 = np.array([1.0, 0.0])
    fixed = integrate(HARMONIC, cfg_fixed, y0)
    adapt = integrate(HARMONIC, cfg_adapt, y0)
    assert adapt.times[-1] == 10.0
    # compare endpoints against the closed-form solution
    exact = np.array([math.cos(10.0), -math.sin(10.0)])
    assert np.max(np.abs(fixed.states[-1] - exact)) < 1e-9
    assert np.max(np.abs(adapt.states[-1] - exact)) < 1e-7
    # the adaptive grid should be far coarser than the fixed one
    assert adapt.times.size < fixed.times.size / 5


def test_dp45_monitors_on_accepted_steps():
    cfg = IntegratorConfig(t0=0.0, t1=5.0, method="dp45", rtol=1e-9, atol=1e-11)
    traj = integrate(HARMONIC, cfg, np.array([1.0, 0.0]), {"E": _energy})
    assert traj.monitors["E"].shape == traj.times.shape
    assert monitor_drift(traj, "E").max_abs_deviation < 1e-7


def test_step_failure_names_the_bad_component():
    def rhs(t, y):
        return np.array([0.0, np.nan])

    with pytest.raises(StepFailure) as err:
        integrate(OdeProblem(dim=2, rhs=rhs, labels=("a", "b")),
                  IntegratorConfig(t0=0.0, t1=1.0, h=0.1), np.array([0.0, 0.0]))
    assert "b" in str(err.value)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_step_failure_message_names_the_first_non_finite_component(bad):
    def rhs(t, y):
        return np.array([1.0, bad, np.nan])

    with pytest.raises(StepFailure) as err:
        integrate(OdeProblem(dim=3, rhs=rhs, labels=("a", "b", "c")),
                  IntegratorConfig(t0=0.0, t1=1.0, h=0.1), np.zeros(3))
    assert str(err.value) == "rhs component 1 (b) is not finite at t=0.0"


def test_step_failure_on_nonfinite_initial_state():
    with pytest.raises(StepFailure):
        integrate(OdeProblem(dim=1, rhs=lambda t, y: y),
                  IntegratorConfig(t0=0.0, t1=1.0, h=0.1), np.array([np.inf]))


def test_step_failure_wraps_rhs_exceptions():
    def rhs(t, y):
        raise RuntimeError("boom")

    with pytest.raises(StepFailure) as err:
        integrate(OdeProblem(dim=1, rhs=rhs),
                  IntegratorConfig(t0=0.0, t1=1.0, h=0.1), np.array([1.0]))
    assert "boom" in str(err.value)


@pytest.mark.parametrize("error", [SingularHessian, SingularR])
def test_singular_dynamics_mid_run_keeps_its_error(error):
    # singular dynamics is exit code 3, an integration failure exit code 4
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) == 6:
            raise error("singular at the sixth evaluation")
        return -y

    with pytest.raises(error, match="sixth"):
        integrate(OdeProblem(dim=1, rhs=rhs),
                  IntegratorConfig(t0=0.0, t1=1.0, h=0.1), np.array([1.0]))


def test_max_steps_exceeded():
    with pytest.raises(MaxStepsExceeded):
        integrate(OdeProblem(dim=1, rhs=lambda t, y: y),
                  IntegratorConfig(t0=0.0, t1=1.0, h=1e-4, max_steps=100),
                  np.array([1.0]))


def test_tolerance_unreachable_at_discontinuity():
    # a jump in the rhs keeps the local error estimate above any tolerance
    # the step-size controller can satisfy before the step underflows
    def rhs(t, y):
        return np.array([0.0 if t < 0.5 else 1e8])

    with pytest.raises(ToleranceUnreachable):
        integrate(OdeProblem(dim=1, rhs=rhs),
                  IntegratorConfig(t0=0.0, t1=1.0, method="dp45",
                                   rtol=1e-8, atol=1e-10),
                  np.array([0.0]))


@pytest.mark.parametrize("kwargs", [
    {"t0": 0.0, "t1": 0.0, "h": 0.1},
    {"t0": 1.0, "t1": 0.0, "h": 0.1},
    {"t0": 0.0, "t1": 1.0},                      # rk4 without a step
    {"t0": 0.0, "t1": 1.0, "h": -0.1},
    {"t0": 0.0, "t1": 1.0, "method": "euler", "h": 0.1},
    {"t0": 0.0, "t1": 1.0, "method": "dp45", "rtol": 0.0},
    {"t0": 0.0, "t1": 1.0, "method": "dp45", "atol": -1.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        IntegratorConfig(**kwargs)


def test_problem_label_handling():
    assert OdeProblem(dim=2, rhs=lambda t, y: y).labels == ("y1", "y2")
    with pytest.raises(ValueError):
        OdeProblem(dim=2, rhs=lambda t, y: y, labels=("only",))


def test_rhs_shape_mismatch_is_a_step_failure():
    with pytest.raises(StepFailure):
        integrate(OdeProblem(dim=2, rhs=lambda t, y: np.zeros(3)),
                  IntegratorConfig(t0=0.0, t1=1.0, h=0.1), np.zeros(2))


def test_csv_layout():
    traj = integrate(HARMONIC, IntegratorConfig(t0=0.0, t1=0.2, h=0.1),
                     np.array([1.0, 0.0]), {"E": _energy})
    text = traj.to_csv()
    lines = text.split("\n")
    assert lines[0] == "t,q,v,E"
    assert len(lines) == 5 and lines[-1] == ""      # three rows, trailing newline
    assert text.endswith("\n") and "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    # full double precision survives the round trip
    parsed = float(lines[2].split(",")[1])
    assert parsed == traj.states[1, 0]


def test_csv_rows_match_the_per_value_join():
    # one "%.17g" format per row writes each value as formatting it alone does,
    # signed zeros, subnormals, huge values and non-finite monitors included
    rng = np.random.default_rng(4)
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
               -1e300, 1.0 / 3.0, -123456789.0, 0.1]
    states = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-20, 20, size=(12, 3))
    states[:len(special), 1] = special
    monitors = {"E": np.array(special[::-1] + [math.inf, math.nan]), "n": np.arange(12.0)}
    traj = Trajectory(times=np.linspace(0.0, 1.1, 12), states=states, labels=("a", "b", "c"),
                      monitors=monitors)
    cols = [traj.times, *traj.states.T, *traj.monitors.values()]
    expected = "\n".join(["t,a,b,c,E,n", *(",".join("%.17g" % v for v in row)
                                           for row in zip(*cols))]) + "\n"
    assert traj.to_csv() == expected
    assert "-0," in expected and "e-324" in expected and "1.7976931348623157e+308" in expected


def test_json_round_trip():
    import json

    traj = integrate(HARMONIC, IntegratorConfig(t0=0.0, t1=0.2, h=0.1),
                     np.array([1.0, 0.0]), {"E": _energy})
    data = json.loads(traj.to_json())
    assert data["labels"] == ["q", "v"]
    assert len(data["times"]) == 3
    assert data["monitors"]["E"][0] == 0.5


def test_monitor_drift_unknown_channel():
    traj = integrate(HARMONIC, IntegratorConfig(t0=0.0, t1=0.2, h=0.1),
                     np.array([1.0, 0.0]), {"E": _energy})
    with pytest.raises(KeyError) as err:
        monitor_drift(traj, "H")
    assert "E" in str(err.value)


def test_trajectory_rejects_bad_time_grid():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 1)), labels=("y",))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 1)), labels=("y",))


def test_dp45_reuses_the_last_stage_as_the_next_first(monkeypatch):
    # a stiff decay from a far too large first step: rejections and acceptances
    calls = []

    def rhs(t, y):
        calls.append((t, y.copy()))
        return np.array([-50.0 * y[0] + math.sin(t), y[0]])

    attempts = []
    step = odeint._dp45_step

    def counted(*args):
        attempts.append(args[1])
        return step(*args)

    monkeypatch.setattr(odeint, "_dp45_step", counted)
    traj = integrate(OdeProblem(dim=2, rhs=rhs),
                     IntegratorConfig(t0=0.0, t1=1.0, method="dp45", h=0.5, rtol=1e-6),
                     np.array([1.0, 0.0]))
    accepted = len(traj.times) - 1
    assert len(attempts) > accepted > 0
    assert len(calls) == 1 + 6 * len(attempts)
    # every accepted state is exactly a point where the last stage was taken
    seen = {(t, y.tobytes()) for t, y in calls}
    for t, y in zip(traj.times, traj.states):
        assert (t, y.tobytes()) in seen


def _stiff(t, y):
    return np.array([-50.0 * y[0] + math.sin(t), y[0]])


@pytest.mark.parametrize("method, problem, config", [
    ("rk4", HARMONIC, IntegratorConfig(t0=0.0, t1=1.05, h=0.1)),
    ("dp45", OdeProblem(dim=2, rhs=_stiff),
     IntegratorConfig(t0=0.0, t1=1.0, method="dp45", h=0.5, rtol=1e-6)),
])
def test_inline_monitors_equal_monitors_of_the_returned_rows(method, problem, config,
                                                             monkeypatch):
    # each accepted row is monitored once, in row order, as it is accepted;
    # the channels equal the monitors evaluated afterwards, bit for bit
    seen = []

    def monitor(t, y):
        seen.append((t, y.tobytes()))
        return math.exp(math.sin(3.0 * y[0])) / (1.5 + math.cos(t * y[1]))

    attempts = []
    step = odeint._dp45_step

    def counted(*args):
        attempts.append(args[1])
        return step(*args)

    monkeypatch.setattr(odeint, "_dp45_step", counted)
    traj = integrate(problem, config, np.array([1.0, 0.0]), {"m": monitor, "E": _energy})
    if method == "dp45":
        assert len(attempts) > len(traj.times) - 1  # some steps were rejected
    assert seen == [(t, y.tobytes()) for t, y in zip(traj.times, traj.states)]
    after = np.array([monitor(t, y) for t, y in zip(traj.times, traj.states)])
    assert traj.monitors["m"].tobytes() == after.tobytes()
    assert traj.monitors["E"].tobytes() == np.array(
        [_energy(t, y) for t, y in zip(traj.times, traj.states)]).tobytes()


def test_a_monitor_error_at_a_row_comes_before_a_later_step_failure():
    # the monitors read a row before the next step is attempted, so a monitor
    # that fails at row 2 wins over a right-hand side that fails after it
    def rhs(t, y):
        if t > 0.25:
            raise RuntimeError("late rhs failure")
        return -y

    def monitor(t, y):
        if t > 0.15:
            raise ZeroDivisionError("monitor failure at row 2")
        return float(y[0])

    with pytest.raises(ZeroDivisionError, match="row 2"):
        integrate(OdeProblem(dim=1, rhs=rhs), IntegratorConfig(t0=0.0, t1=1.0, h=0.1),
                  np.array([1.0]), {"m": monitor})
    with pytest.raises(StepFailure, match="late rhs failure"):
        integrate(OdeProblem(dim=1, rhs=rhs), IntegratorConfig(t0=0.0, t1=1.0, h=0.1),
                  np.array([1.0]))
