"""Constrained-variational dynamics: states, momenta, sections, brackets."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amech import vakonomic
from amech.algebroid import DualPoint
from amech.dsl import parse_expression, parse_system
from amech.dynamics import EPoint, euler_lagrange_rhs, system_from_spec
from amech.errors import MuSolveFailed, SingularR
from amech.odeint import IntegratorConfig, OdeProblem, integrate
from amech.presets import load as load_preset
from amech.vakonomic import (
    VakState,
    VakonomicSystem,
    euler_poincare_residual,
    h_w1,
    hamiltonian_section,
    momenta,
    mu_solve,
    pontryagin_H,
    regularity_matrix,
    vakonomic_bracket,
    vakonomic_from_spec,
    vakonomic_rhs,
    w1_constraints,
)


def _sys(preset_id):
    return vakonomic_from_spec(load_preset(preset_id).spec)


def _random_states(labels, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(count, len(labels)))


def test_index_split_and_labels():
    mart = _sys("martinet")
    assert mart.free == (0, 1) and mart.constrained == (2,)
    assert mart.state_labels == ("x", "e1", "e2", "p3")
    pb = _sys("plate_ball")
    assert pb.free == (0, 1) and pb.constrained == (2, 3, 4)
    assert pb.state_labels == ("x1", "x2", "e1", "e2", "p3", "p4", "p5")
    aff = _sys("lie_algebra_affine")
    assert aff.state_labels == ("e2", "p1", "p2")


def test_pack_unpack_round_trip():
    sys = _sys("plate_ball")
    s = VakState(x=np.array([0.1, 0.2]), ya=np.array([0.3, 0.4]),
                 palpha=np.array([0.5, 0.6, 0.7]))
    vec = sys.pack(s)
    back = sys.unpack(vec)
    assert np.array_equal(back.x, s.x)
    assert np.array_equal(back.ya, s.ya)
    assert np.array_equal(back.palpha, s.palpha)


def test_state_requires_finite_entries():
    with pytest.raises(ValueError):
        VakState(x=np.array([np.nan]), ya=np.zeros(1), palpha=np.zeros(0))


def test_martinet_rhs_oracle():
    # xdot = e1, e1dot = -p3 x e2, e2dot = p3 x e1, p3dot = 0
    sys = _sys("martinet")
    for row in _random_states(sys.state_labels, 25, seed=0):
        x, e1, e2, p3 = row
        s = VakState(x=row[:1], ya=row[1:3], palpha=row[3:])
        xdot, yadot, pdot = vakonomic_rhs(sys, s)
        assert xdot[0] == pytest.approx(e1, abs=1e-14)
        assert yadot[0] == pytest.approx(-p3 * x * e2, abs=1e-13)
        assert yadot[1] == pytest.approx(p3 * x * e1, abs=1e-13)
        assert pdot[0] == pytest.approx(0.0, abs=1e-14)


def test_plate_ball_rhs_oracle():
    spec = load_preset("plate_ball").spec
    sys = vakonomic_from_spec(spec)
    om = spec.params["Omega"]
    c = spec.params["c"]
    for row in _random_states(sys.state_labels, 25, seed=1):
        x1, x2, e1, e2, p3, p4, p5 = row
        psi3 = -e2 + om * x1
        psi4 = e1 + om * x2
        s = VakState(x=row[:2], ya=row[2:4], palpha=row[4:])
        xdot, yadot, pdot = vakonomic_rhs(sys, s)
        assert_allclose(xdot, [e1, e2], atol=1e-14)
        assert_allclose(pdot, [-psi4 * p5 + c * p4,
                               psi3 * p5 - c * p3,
                               psi4 * p3 - psi3 * p4], atol=1e-12)
        assert_allclose(yadot, [-om * p3 + psi3 * p5 - c * p3,
                                -om * p4 + psi4 * p5 - c * p4], atol=1e-12)


def test_affine_rhs_oracle():
    sys = _sys("lie_algebra_affine")
    for row in _random_states(sys.state_labels, 25, seed=2):
        e2, p1, p2 = row
        s = VakState(x=np.zeros(0), ya=row[:1], palpha=row[1:])
        xdot, yadot, pdot = vakonomic_rhs(sys, s)
        assert xdot.shape == (0,)
        assert yadot[0] == pytest.approx(-p2, abs=1e-13)
        assert pdot[0] == pytest.approx(e2 * p2, abs=1e-13)
        assert pdot[1] == pytest.approx(e2 * (1.0 - p1), abs=1e-13)


def test_unconstrained_block_reduces_to_euler_lagrange():
    spec = load_preset("skinner_rusk_demo").spec
    vsys = vakonomic_from_spec(spec)
    lsys = system_from_spec(spec)
    assert vsys.constrained == ()
    assert vsys.state_labels == ("q1", "q2", "v1", "v2")
    for row in _random_states(vsys.state_labels, 10, seed=3):
        s = VakState(x=row[:2], ya=row[2:], palpha=np.zeros(0))
        xdot, yadot, pdot = vakonomic_rhs(vsys, s)
        el_x, el_y = euler_lagrange_rhs(lsys, EPoint(row[:2], row[2:]))
        assert_allclose(xdot, el_x, atol=1e-13)
        assert_allclose(yadot, el_y, atol=1e-13)
        assert pdot.shape == (0,)


def test_momenta_and_primary_constraints():
    sys = _sys("plate_ball")
    s = VakState(x=np.array([0.3, -0.2]), ya=np.array([0.7, -0.5]),
                 palpha=np.array([0.4, 0.9, 0.2]))
    p = momenta(sys, s)
    # free components carry the constraint correction: p1 = e1 - p4, p2 = e2 + p3
    assert p[0] == pytest.approx(0.7 - 0.9, abs=1e-14)
    assert p[1] == pytest.approx(-0.5 + 0.4, abs=1e-14)
    assert_allclose(p[2:], s.palpha, atol=0)
    phi = w1_constraints(sys, s.x, p, s.ya)
    assert_allclose(phi, np.zeros(2), atol=1e-14)
    off = p.copy()
    off[0] += 0.25
    assert w1_constraints(sys, s.x, off, s.ya)[0] == pytest.approx(0.25, abs=1e-14)


def test_pontryagin_and_w1_hamiltonian_values():
    sys = _sys("martinet")
    s = VakState(x=np.array([0.4]), ya=np.array([0.6, -0.3]), palpha=np.array([1.2]))
    p = momenta(sys, s)
    # H = p . y - Ltilde with the constrained slot pinned to Psi = 0
    expect = p[0] * 0.6 + p[1] * (-0.3) - 0.5 * (0.36 + 0.09)
    assert pontryagin_H(sys, s.x, p, s.ya) == pytest.approx(expect, abs=1e-14)
    assert h_w1(sys, s) == pytest.approx(0.5 * (0.36 + 0.09), abs=1e-14)


def test_plate_ball_w1_hamiltonian_closed_form():
    spec = load_preset("plate_ball").spec
    sys = vakonomic_from_spec(spec)
    om, c = spec.params["Omega"], spec.params["c"]
    for row in _random_states(sys.state_labels, 10, seed=4):
        x1, x2, e1, e2, p3, p4, p5 = row
        s = VakState(x=row[:2], ya=row[2:4], palpha=row[4:])
        expect = 0.5 * (e1 ** 2 + e2 ** 2) + om * (p3 * x1 + p4 * x2) + c * p5
        assert h_w1(sys, s) == pytest.approx(expect, abs=1e-12)


def test_regularity_matrix_identity_for_quadratic_cost():
    sys = _sys("plate_ball")
    rep = regularity_matrix(sys, np.array([0.1, 0.2]), np.array([0.5, -0.4]),
                            np.array([0.3, 0.1, 0.9]))
    assert rep.regular
    assert_allclose(rep.R, np.eye(2), atol=1e-12)
    assert rep.det == pytest.approx(1.0, rel=1e-12)


def test_singular_regularity_matrix_is_refused():
    text = ("system lin\nbase []\nfiber [e1, e2]\nanchor zero\n"
            "lagrangian = e1 + 0.5*e2^2\nvakonomic { }\n")
    sys = vakonomic_from_spec(parse_system(text))
    s = VakState(x=np.zeros(0), ya=np.array([0.2, 0.3]), palpha=np.zeros(0))
    rep = regularity_matrix(sys, s.x, s.ya, s.palpha)
    assert not rep.regular
    with pytest.raises(SingularR):
        vakonomic_rhs(sys, s)


def test_mu_solve_round_trip():
    sys = _sys("plate_ball")
    s = VakState(x=np.array([0.2, -0.6]), ya=np.array([0.8, 0.1]),
                 palpha=np.array([0.5, -0.2, 0.3]))
    p = momenta(sys, s)
    ya = mu_solve(sys, s.x, p)
    assert_allclose(ya, s.ya, atol=1e-11)


def test_mu_solve_builds_the_point_data_once_per_newton_point(monkeypatch):
    # plate_ball's primary constraint is linear in the free velocities, so the
    # solve takes one Newton step: the start point and the accepted point
    sys = _sys("plate_ball")
    s = VakState(x=np.array([0.2, -0.6]), ya=np.array([0.8, 0.1]),
                 palpha=np.array([0.5, -0.2, 0.3]))
    p = momenta(sys, s)
    built = []

    class Counting(vakonomic._PointData):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(vakonomic, "_PointData", Counting)
    ya = mu_solve(sys, s.x, p)
    assert_allclose(ya, s.ya, atol=1e-11)
    assert len(built) == 2


def test_hamiltonian_section_reuses_the_solved_point_data(monkeypatch):
    # the one-step velocity solve builds the data at the start point and at
    # the solved velocity; the section reads the latter instead of rebuilding
    sys = _sys("plate_ball")
    s = VakState(x=np.array([0.2, -0.6]), ya=np.array([0.8, 0.1]),
                 palpha=np.array([0.5, -0.2, 0.3]))
    at = DualPoint(s.x, momenta(sys, s))
    built = []

    class Counting(vakonomic._PointData):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(vakonomic, "_PointData", Counting)
    u, _ = hamiltonian_section(sys, at)
    assert_allclose(u[list(sys.free)], s.ya, atol=1e-11)
    assert len(built) == 2


def test_mu_solve_failure_for_degenerate_cost():
    text = ("system lin1\nbase []\nfiber [e1]\nanchor zero\n"
            "lagrangian = e1\nvakonomic { }\n")
    sys = vakonomic_from_spec(parse_system(text))
    with pytest.raises(MuSolveFailed):
        mu_solve(sys, np.zeros(0), np.array([0.5]))


def test_hamiltonian_section_matches_flow():
    # u must be the solved full velocity and w the momentum drive; check w
    # against a finite-difference derivative of the momenta along a trajectory
    sys = _sys("plate_ball")
    init = load_preset("plate_ball").facts["default_init"]["vakonomic"]
    y0 = np.array([float(init.get(k, 0.0)) for k in sys.state_labels])
    h = 1e-3
    traj = integrate(OdeProblem(dim=7, rhs=sys.ode_rhs, labels=sys.state_labels),
                     IntegratorConfig(t0=0.0, t1=0.5, h=h), y0)
    rows = traj.states[::10]
    hs = 10 * h
    ps = np.array([momenta(sys, VakState(r[:2], r[2:4], r[4:])) for r in rows])
    pdot_fd = (-ps[4:] + 8.0 * ps[3:-1] - 8.0 * ps[1:-3] + ps[:-4]) / (12.0 * hs)
    worst_w = worst_u = 0.0
    for i, r in enumerate(rows[2:-2]):
        s = VakState(r[:2], r[2:4], r[4:])
        u, w = hamiltonian_section(sys, DualPoint(r[:2], momenta(sys, s)))
        d = np.zeros(5)
        d[:2] = s.ya
        d[2] = -r[3] + 0.5 * r[0]
        d[3] = r[2] + 0.5 * r[1]
        worst_u = max(worst_u, np.max(np.abs(u - d)))
        worst_w = max(worst_w, np.max(np.abs(w - pdot_fd[i])))
    assert worst_u < 1e-10
    assert worst_w < 1e-6


def test_bracket_delegation_and_antisymmetry():
    sys = _sys("plate_ball")
    chart = sys.chart
    F = parse_expression("p3")
    G = parse_expression("p4")
    at = DualPoint(np.array([0.1, 0.2]), np.array([0.0, 0.0, 0.3, 0.4, 2.0]))
    assert vakonomic_bracket(chart, F, G, at) == pytest.approx(-2.0, abs=1e-14)
    assert vakonomic_bracket(chart, G, F, at) == pytest.approx(2.0, abs=1e-14)


def test_euler_poincare_residual_small_on_trajectory():
    sys = _sys("lie_algebra_affine")
    init = load_preset("lie_algebra_affine").facts["default_init"]["vakonomic"]
    y0 = np.array([float(init.get(k, 0.0)) for k in sys.state_labels])
    traj = integrate(OdeProblem(dim=3, rhs=sys.ode_rhs, labels=sys.state_labels),
                     IntegratorConfig(t0=0.0, t1=2.0, h=1e-3), y0)
    r = euler_poincare_residual(sys, traj.times, traj.states[:, :1], traj.states[:, 1:])
    assert r < 1e-6


def test_euler_poincare_preconditions():
    mart = _sys("martinet")
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="base-free"):
        euler_poincare_residual(mart, times, np.zeros((5, 2)), np.zeros((5, 1)))
    text = ("system vp\nbase []\nfiber [e1, e2]\nanchor zero\n"
            "lagrangian = 0.5*e2^2\nvakonomic { e1 = e2 }\n")
    vp = vakonomic_from_spec(parse_system(text))
    with pytest.raises(ValueError, match="constant"):
        euler_poincare_residual(vp, times, np.zeros((5, 1)), np.zeros((5, 1)))
    aff = _sys("lie_algebra_affine")
    with pytest.raises(ValueError, match="three"):
        euler_poincare_residual(aff, times[:2], np.zeros((2, 1)), np.zeros((2, 2)))


def test_constructor_validation():
    chart = _sys("martinet").chart
    L = parse_expression("0.5*(e1^2 + e2^2)")
    with pytest.raises(ValueError):
        VakonomicSystem(chart, (2, 2), (L, L), L)
    with pytest.raises(ValueError):
        VakonomicSystem(chart, (7,), (L,), L)
    with pytest.raises(ValueError):
        VakonomicSystem(chart, (2,), (), L)
