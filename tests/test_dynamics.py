"""Cartan objects, Legendre transform, Euler-Lagrange and Hamilton fields."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amech.algebroid import DualObservable, DualPoint, chart_from_spec, lie_poisson_bracket
from amech.dynamics import (
    EPoint,
    LegendreEnergy,
    cartan,
    euler_lagrange_rhs,
    hamilton_rhs,
    hamiltonian_from_lagrangian,
    is_regular,
    legendre,
    legendre_inverse,
    sode_defect,
    system_from_spec,
)
from amech import dynamics, expr
from amech.errors import NewtonFailed, SingularHessian
from amech.expr import ScalarFunction
from amech.presets import load as load_preset
from amech.dsl import parse_expression, parse_system

# affine algebra on the line with a velocity cross term; all Cartan pieces
# (anchor transpose, mixed Hessian, structure term) are nonzero
CROSS = """\
system cross
base [q]
fiber [v1, v2]
anchor { v1 -> (1); v2 -> (q) }
bracket { [v1, v2] = v1 }
lagrangian = 0.5*(v1^2 + v2^2) + q*v1*v2
"""

QUARTIC = """\
system quartic
base [q]
fiber [v]
anchor { v -> (1) }
lagrangian = 0.5*v^2 + 0.25*v^4 - 0.5*q^2
"""


def _tq():
    return system_from_spec(load_preset("tq_pendulum").spec)


def _so3():
    return system_from_spec(load_preset("so3_rigid_body").spec)


def test_lagrangian_values_and_gradients():
    sys = _tq()
    at = EPoint(np.array([0.7]), np.array([0.3]))
    assert sys.value(at) == pytest.approx(0.5 * 0.09 - (1.0 - math.cos(0.7)), abs=1e-15)
    lx, ly = sys.gradients(at)
    assert lx[0] == pytest.approx(-math.sin(0.7), abs=1e-15)
    assert ly[0] == pytest.approx(0.3, abs=0)
    hxy, w = sys.second_derivatives(at)
    assert hxy.shape == (1, 1) and w.shape == (1, 1)
    assert hxy[0, 0] == 0.0 and w[0, 0] == 1.0
    assert sys.energy(at) == pytest.approx(0.5 * 0.09 + 1.0 - math.cos(0.7), abs=1e-15)


def test_callable_lagrangian_matches_expression():
    spec = load_preset("tq_pendulum").spec
    chart = chart_from_spec(spec)
    from amech.dynamics import LagrangianSystem

    fn_sys = LagrangianSystem(chart, lambda x, y: 0.5 * y[0] ** 2 - (1.0 - math.cos(x[0])))
    ex_sys = system_from_spec(spec)
    assert fn_sys.source == "fd" and ex_sys.source == "ad"
    at = EPoint(np.array([1.1]), np.array([-0.4]))
    assert fn_sys.value(at) == pytest.approx(ex_sys.value(at), rel=1e-15)
    for a, b in zip(fn_sys.gradients(at), ex_sys.gradients(at)):
        assert_allclose(a, b, atol=1e-8)


def test_cartan_hand_oracle_on_cross_system():
    sys = system_from_spec(parse_system(CROSS))
    at = EPoint(np.array([0.5]), np.array([0.6, -0.4]))
    data = cartan(sys, at)
    assert_allclose(data.W, [[1.0, 0.5], [0.5, 1.0]], atol=1e-14)
    # upper-left block: anchor-mixed asymmetry plus the structure pairing
    assert_allclose(data.omegaL[:2, :2], [[0.0, -0.4], [0.4, 0.0]], atol=1e-14)
    assert_allclose(data.omegaL[:2, 2:], data.W, atol=1e-14)
    assert_allclose(data.omegaL[2:, :2], -data.W, atol=1e-14)
    assert_allclose(data.omegaL + data.omegaL.T, np.zeros((4, 4)), atol=1e-14)
    assert data.EL == pytest.approx(0.14, abs=1e-15)
    assert_allclose(data.dEL, [-0.24, -0.12, 0.4, -0.1], atol=1e-14)


def test_cartan_differential_matches_finite_differences():
    sys = _so3()
    at = EPoint(np.zeros(0), np.array([0.3, -0.8, 1.1]))
    data = cartan(sys, at)
    step = 1e-6
    fd = np.zeros(3)
    for a in range(3):
        yp, ym = at.y.copy(), at.y.copy()
        yp[a] += step
        ym[a] -= step
        fd[a] = (sys.energy(EPoint(at.x, yp)) - sys.energy(EPoint(at.x, ym))) / (2 * step)
    assert_allclose(data.dEL[3:], fd, atol=1e-8)
    assert_allclose(data.dEL[:3], np.zeros(3), atol=0)  # base-free chart


def test_legendre_round_trip():
    sys = system_from_spec(parse_system(QUARTIC))
    at = EPoint(np.array([0.2]), np.array([0.9]))
    dp = legendre(sys, at)
    assert dp.p[0] == pytest.approx(0.9 + 0.9 ** 3, rel=1e-15)
    back = legendre_inverse(sys, dp)
    assert back.y[0] == pytest.approx(0.9, abs=1e-12)


def test_legendre_inverse_failure_is_reported():
    text = "system exp1\nbase []\nfiber [v]\nanchor zero\nlagrangian = exp(v)\n"
    sys = system_from_spec(parse_system(text))
    # dL/dv = exp(v) > 0, so no velocity maps to a negative momentum
    with pytest.raises(NewtonFailed):
        legendre_inverse(sys, DualPoint(np.zeros(0), np.array([-0.5])))


def test_regularity_report():
    rep = is_regular(_tq(), EPoint(np.array([0.1]), np.array([0.2])))
    assert rep.regular
    assert rep.min_singular_value == pytest.approx(1.0)
    ck = system_from_spec(load_preset("capri_kobayashi").spec)
    at = EPoint(np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.2, 0.3, 0.4]))
    rep = is_regular(ck, at)
    assert not rep.regular
    assert rep.min_singular_value < 1e-12


def test_euler_lagrange_pendulum_oracle():
    sys = _tq()
    for q, v in ((0.3, 1.1), (-1.2, 0.0), (2.0, -0.7)):
        xdot, ydot = euler_lagrange_rhs(sys, EPoint(np.array([q]), np.array([v])))
        assert xdot[0] == pytest.approx(v, abs=0)
        assert ydot[0] == pytest.approx(-math.sin(q), abs=1e-14)


def test_euler_lagrange_rigid_body_oracle():
    sys = _so3()
    I = np.array([1.0, 2.0, 3.0])
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, 3)
        xdot, wdot = euler_lagrange_rhs(sys, EPoint(np.zeros(0), w))
        assert xdot.shape == (0,)
        expected = np.cross(I * w, w) / I
        assert_allclose(wdot, expected, atol=1e-13)


def test_euler_lagrange_rejects_singular_hessian():
    ck = system_from_spec(load_preset("capri_kobayashi").spec)
    at = EPoint(np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(SingularHessian) as err:
        euler_lagrange_rhs(ck, at)
    assert "constraint algorithm" in str(err.value)


def test_hamilton_pendulum_oracle():
    sys = _tq()
    H = hamiltonian_from_lagrangian(sys)
    at = DualPoint(np.array([0.8]), np.array([-0.6]))
    xdot, pdot = hamilton_rhs(sys.chart, H, at)
    assert xdot[0] == pytest.approx(-0.6, abs=1e-12)
    assert pdot[0] == pytest.approx(-math.sin(0.8), abs=1e-12)


def test_hamilton_rigid_body_oracle():
    sys = _so3()
    H = hamiltonian_from_lagrangian(sys)
    I = np.array([1.0, 2.0, 3.0])
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.uniform(-1.5, 1.5, 3)
        _, pdot = hamilton_rhs(sys.chart, H, DualPoint(np.zeros(0), p))
        assert_allclose(pdot, np.cross(p, p / I), atol=1e-12)


def test_legendre_energy_values_and_gradients():
    sys = system_from_spec(parse_system(QUARTIC))
    H = hamiltonian_from_lagrangian(sys)
    assert isinstance(H, LegendreEnergy)
    x = np.array([0.4])
    y = np.array([0.7])
    p = legendre(sys, EPoint(x, y)).p
    at = DualPoint(x, p)
    assert H.value(at) == pytest.approx(sys.energy(EPoint(x, y)), rel=1e-12)
    assert H(x, p) == H.value(at)
    gx, gp = H.gradients(at)
    # dH/dp is the inverse-Legendre velocity, dH/dx = -dL/dx at that velocity
    assert gp[0] == pytest.approx(0.7, abs=1e-12)
    assert gx[0] == pytest.approx(0.4, abs=1e-12)
    step = 1e-6
    fd_p = (H.value(DualPoint(x, p + step)) - H.value(DualPoint(x, p - step))) / (2 * step)
    fd_x = (H.value(DualPoint(x + step, p)) - H.value(DualPoint(x - step, p))) / (2 * step)
    assert gp[0] == pytest.approx(fd_p, abs=1e-7)
    assert gx[0] == pytest.approx(fd_x, abs=1e-7)


def test_hamilton_accepts_plain_callables():
    sys = _so3()
    chart = sys.chart

    def H(x, p):
        return 0.5 * (p[0] ** 2 / 1.0 + p[1] ** 2 / 2.0 + p[2] ** 2 / 3.0)

    at = DualPoint(np.zeros(0), np.array([0.3, 0.8, 1.5]))
    _, pdot_fd = hamilton_rhs(chart, H, at)
    _, pdot_ad = hamilton_rhs(chart, hamiltonian_from_lagrangian(sys), at)
    assert_allclose(pdot_fd, pdot_ad, atol=1e-7)


def test_sode_defect():
    at = EPoint(np.array([0.1]), np.array([0.5]))
    v = np.array([2.0])
    assert sode_defect(at, (np.array([0.5]), v))[0] == 0.0
    assert sode_defect(at, (np.array([0.8]), v))[0] == pytest.approx(0.3)


def test_legendre_inverse_makes_one_derivative_evaluation_per_newton_point(monkeypatch):
    # the quartic velocity term needs several Newton points; residual and
    # step at one point share a single evaluation of L's derivatives
    sys = system_from_spec(parse_system(QUARTIC))
    evaluations, points = [], []
    for name in ("value", "gradient", "hessian", "value_and_gradient", "derivatives"):
        def counting(self, v, _name=name, _f=getattr(ScalarFunction, name)):
            evaluations.append(_name)
            return _f(self, v)
        monkeypatch.setattr(ScalarFunction, name, counting)

    def newton(residual, step, x0, what, **kwargs):
        def counted(y):
            points.append(y)
            return residual(y)
        return damped_newton(counted, step, x0, what, **kwargs)

    damped_newton = dynamics.damped_newton
    monkeypatch.setattr(dynamics, "damped_newton", newton)
    at = legendre_inverse(sys, DualPoint(np.array([0.4]), np.array([2.5])))
    assert len(points) >= 3
    assert evaluations == ["derivatives"] * len(points)
    assert sys.gradients(at)[1][0] == pytest.approx(2.5, abs=1e-12)


def test_euler_lagrange_rhs_evaluates_the_anchor_once():
    sys = _tq()
    calls = []
    rho = sys.chart.rho
    sys.chart.rho = lambda x: calls.append(x) or rho(x)
    xdot, _ = euler_lagrange_rhs(sys, EPoint(np.array([0.7]), np.array([0.3])))
    assert len(calls) == 1
    assert xdot[0] == 0.3


def test_legendre_energy_value_reads_the_newton_point(monkeypatch):
    # E_L = y dL/dy - L comes from the derivatives the Newton solve ends on:
    # one evaluation of L per Newton point and none after it, and the value
    # is the energy at the solved velocity bit for bit
    sys = system_from_spec(parse_system(QUARTIC))
    at = DualPoint(np.array([0.4]), np.array([2.5]))
    expected = sys.energy(legendre_inverse(sys, at))
    evaluations, points = [], []
    for name in ("value", "gradient", "hessian", "value_and_gradient", "derivatives"):
        def counting(self, v, _name=name, _f=getattr(ScalarFunction, name)):
            evaluations.append(_name)
            return _f(self, v)
        monkeypatch.setattr(ScalarFunction, name, counting)

    def newton(residual, step, x0, what, **kwargs):
        def counted(y):
            points.append(y)
            return residual(y)
        return damped_newton(counted, step, x0, what, **kwargs)

    damped_newton = dynamics.damped_newton
    monkeypatch.setattr(dynamics, "damped_newton", newton)
    value = hamiltonian_from_lagrangian(sys).value(at)
    assert len(points) >= 3
    assert evaluations == ["derivatives"] * len(points)
    assert value == expected


@pytest.mark.parametrize("pid", ["so3_rigid_body", "tq_pendulum"])
def test_hamilton_and_bracket_take_the_exact_gradients(pid, monkeypatch):
    # the Hamiltonian passes through as_dual_observable as it is; wrapped as
    # a plain callable of (x, p), its gradients would difference the Newton
    # inverse
    sys = system_from_spec(load_preset(pid).spec)
    chart = sys.chart
    H = hamiltonian_from_lagrangian(sys)
    G = DualObservable(chart, parse_expression(chart.momentum_names[0]))
    calls = []
    fd_gradient = expr._fd_gradient
    monkeypatch.setattr(expr, "_fd_gradient",
                        lambda f, v: calls.append(f) or fd_gradient(f, v))
    rng = np.random.default_rng(5)
    for _ in range(3):
        at = legendre(sys, EPoint(rng.uniform(0.6, 1.4, chart.m),
                                  rng.uniform(-0.5, 0.5, chart.n)))
        hamilton_rhs(chart, H, at)
        lie_poisson_bracket(chart, H, G, at)
        lie_poisson_bracket(chart, G, H, at)
    assert calls == []
