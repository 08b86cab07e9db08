"""The constraint algorithm's problem comes from generated code: omega, alpha
and the anchor of each side, and d alpha, equal the numpy assembly of the
same objects, and no `constrain` command or `sode` start reaches that
assembly."""

import sys as _sys

import numpy as np
import pytest
from hypothesis import given, settings

from amech import algebroid, dynamics
from amech.algebroid import DualPoint, omega_E_matrix
from amech.cli import main
from amech.dsl import parse_system
from amech.dynamics import EPoint, cartan, energy_differential, system_from_spec
from amech.expr import _fd_gradient
from amech.presets import ids as preset_ids, load as load_preset
from amech.presym import (hamiltonian_problem_from_lagrangian, lagrangian_problem,
                          run_constraint_algorithm)
from strategies import varying_sweep_charts

SIDES = ("lagrangian", "hamiltonian")


def _anchor(chart, x):
    m, n = chart.m, chart.n
    out = np.zeros((m + n, 2 * n))
    out[:m, :n] = chart.rho(x)
    out[m:, n:] = np.eye(n)
    return out


def _forcing_jacobian(chart, x, g, h):
    # d alpha for alpha = -[rho^T d_x f; d_v f], f with gradient g and Hessian h
    m, n = chart.m, chart.n
    out = np.zeros((2 * n, m + n))
    out[n:] = -h[m:]
    out[:n] = -(chart.rho(x).T @ h[:m])
    out[:n, :m] -= np.einsum("iaj,i->aj", chart.rho_jacobian(x), g[:m])
    return out


def _references(sys, side, data, z):
    """omega, alpha, anchor and d alpha at z, assembled in numpy."""
    chart, m = sys.chart, sys.chart.m
    x = z[:m]
    if side == "lagrangian":
        at = EPoint(x, z[m:])
        _, g, h = sys.energy_derivatives(z)
        return (cartan(sys, at).omegaL, -energy_differential(sys, at), _anchor(chart, x),
                _forcing_jacobian(chart, x, g, h))
    at = DualPoint(x, z[m:])
    hx, hp = data.gradients(at)
    return (omega_E_matrix(chart, at), -np.concatenate([chart.rho(x).T @ hx, hp]),
            _anchor(chart, x),
            _forcing_jacobian(chart, x, np.concatenate([hx, hp]), data.hessian(at)))


def _problem(sys, side):
    if side == "lagrangian":
        return lagrangian_problem(sys), None
    return hamiltonian_problem_from_lagrangian(sys)


def _generated(problem, z):
    return (problem.omega(z), problem.alpha(z), problem.anchor(z), problem.alpha_jacobian(z))


def _bits(a):
    # adding 0.0 makes a -0.0 +0.0: numpy's assembly adds and negates zero
    # entries that the trees fold away, so only the sign of a zero may differ
    return (np.asarray(a, dtype=float) + 0.0).tobytes()


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("pid", preset_ids())
def test_the_generated_problem_is_the_numpy_assembly_bit_for_bit(pid, side):
    sys = system_from_spec(load_preset(pid).spec)
    problem, data = _problem(sys, side)
    rng = np.random.default_rng(5)
    seeds = [rng.uniform(0.6, 1.4, problem.d) for _ in range(3)]
    run = run_constraint_algorithm(problem, seeds)
    for z in seeds + list(run.probes):
        got, want = _generated(problem, z), _references(sys, side, data, z)
        for name, a, b in zip(("omega", "alpha", "anchor", "alpha_jacobian"), got, want):
            assert a.shape == b.shape and _bits(a) == _bits(b), name


@settings(max_examples=6, deadline=None)
@given(varying_sweep_charts())
def test_the_generated_problem_agrees_with_numpy_on_sweep_charts(text):
    # the charts' sums have several terms, which BLAS may add in another order
    sys = system_from_spec(parse_system(text))
    rng = np.random.default_rng(len(text))
    for side in SIDES:
        problem, data = _problem(sys, side)
        for _ in range(2):
            z = np.concatenate([rng.uniform(-1.4, 1.4, sys.chart.m),
                                rng.uniform(-0.5, 0.5, sys.chart.n)])
            for a, b in zip(_generated(problem, z), _references(sys, side, data, z)):
                scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
                assert a.shape == b.shape
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-15 * scale
            fd = _fd_gradient(problem.alpha, z)
            scale = max(1.0, float(np.max(np.abs(fd), initial=0.0)))
            assert np.max(np.abs(problem.alpha_jacobian(z) - fd)) <= 1e-7 * scale


def test_the_forcing_jacobian_takes_the_anchor_partials():
    # an anchor that varies with the base: rho(e2) = exp(x) d/dy, so the
    # d rho . g term of d alpha is nonzero; central differences of alpha agree
    text = ("system varying\nbase [x, y]\nfiber [v1, v2]\n"
            "anchor { v1 -> (1, 0); v2 -> (0, exp(x)) }\nbracket { [v1, v2] = v2 }\n"
            "lagrangian = 0.5*(v1^2 + (1 + x^2)*v2^2) + 0.2*x*y*v2 - cos(y)\n")
    sys = system_from_spec(parse_system(text))
    points = (np.array([0.3, -0.7, 0.4, 1.1]), np.array([-1.2, 0.5, -0.6, 0.2]))
    for z in points:
        g = sys.energy_derivatives(z)[1]
        assert np.max(np.abs(np.einsum("iaj,i->aj", sys.chart.rho_jacobian(z[:2]), g[:2]))) > 0.1
    for side in SIDES:
        problem, data = _problem(sys, side)
        for z in points:
            got, want = _generated(problem, z), _references(sys, side, data, z)
            for a, b in zip(got, want):
                scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-15 * scale
            fd = _fd_gradient(problem.alpha, z)
            assert np.max(np.abs(got[3] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


def _forbid_numpy_assembly(monkeypatch):
    """Rebind cartan, energy_differential and omega_E_matrix in every amech
    module that binds them to a recorder; returns the names of their calls."""
    calls = []
    for owner, name in ((dynamics, "cartan"), (dynamics, "energy_differential"),
                        (algebroid, "omega_E_matrix")):
        original = getattr(owner, name)

        def recorder(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for mod_name, mod in list(_sys.modules.items()):
            if mod_name == "amech" or mod_name.startswith("amech."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, recorder)
    return calls


@pytest.mark.parametrize("pid", preset_ids())
def test_constrain_and_a_sode_start_never_assemble_in_numpy(pid, tmp_path, monkeypatch):
    calls = _forbid_numpy_assembly(monkeypatch)
    manifest = str(tmp_path / "m.json")
    for side in SIDES:
        assert main(["constrain", "--preset", pid, "--side", side, "--seed", "3",
                     "--out", str(tmp_path / f"{side}.json"), "--manifest", manifest]) == 0
    if "sode" in load_preset(pid).facts["modes"]:
        assert main(["simulate", "--preset", pid, "--mode", "sode", "--t1", "0.05",
                     "--dt", "1e-2", "--init", "e3=0.3", "--out", str(tmp_path / "s.csv"),
                     "--manifest", manifest]) == 0
    assert calls == []
