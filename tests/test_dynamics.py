"""Cartan objects, Legendre transform, Euler-Lagrange and Hamilton fields."""

import copy
import functools
import math
import operator
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amech.algebroid import (DualObservable, DualPoint, chart_from_spec,
                             lie_poisson_bracket)
from amech.dynamics import (
    EPoint,
    LagrangianSystem,
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
from amech.errors import EvalDomainError, NewtonFailed, SingularHessian
from amech.presets import load as load_preset
from amech.dsl import parse_expression, parse_system
from strategies import perfbench_workloads

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
    from amech.dynamics import LagrangianSystem

    def fn(x, y):
        return 0.5 * y[0] ** 2 - (1.0 - math.cos(x[0]))

    with pytest.raises(TypeError, match="expression tree"):
        LagrangianSystem(chart_from_spec(spec), fn)
    ex_sys = system_from_spec(spec)
    at = EPoint(np.array([1.1]), np.array([-0.4]))
    assert fn(at.x, at.y) == pytest.approx(ex_sys.value(at), rel=1e-15)
    fd = (expr._fd_gradient(lambda x: fn(x, at.y), at.x),
          expr._fd_gradient(lambda y: fn(at.x, y), at.y))
    for a, b in zip(fd, ex_sys.gradients(at)):
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


def test_hamilton_takes_trees_and_refuses_plain_callables():
    sys = _so3()
    chart = sys.chart
    H = parse_expression("0.5 * (p1^2 / 1.0 + p2^2 / 2.0 + p3^2 / 3.0)")
    at = DualPoint(np.zeros(0), np.array([0.3, 0.8, 1.5]))
    _, pdot_tree = hamilton_rhs(chart, H, at)
    _, pdot_legendre = hamilton_rhs(chart, hamiltonian_from_lagrangian(sys), at)
    assert_allclose(pdot_tree, pdot_legendre, atol=1e-14)

    def H_fn(x, p):
        return 0.5 * (p[0] ** 2 / 1.0 + p[1] ** 2 / 2.0 + p[2] ** 2 / 3.0)

    with pytest.raises(TypeError, match="expression tree"):
        hamilton_rhs(chart, H_fn, at)


def test_sode_defect():
    at = EPoint(np.array([0.1]), np.array([0.5]))
    v = np.array([2.0])
    assert sode_defect(at, (np.array([0.5]), v))[0] == 0.0
    assert sode_defect(at, (np.array([0.8]), v))[0] == pytest.approx(0.3)


def _counting_point(sys):
    """Count the calls of the system's generated point function."""
    calls = []
    point = sys._point
    sys._point = lambda v: calls.append(v) or point(v)
    return calls


def _counting_newton(monkeypatch):
    """Record every point at which the Legendre Newton loop takes a residual."""
    points = []
    damped_newton = dynamics.damped_newton

    def newton(residual, step, x0, what, **kwargs):
        def counted(y):
            points.append(y)
            return residual(y)
        return damped_newton(counted, step, x0, what, **kwargs)

    monkeypatch.setattr(dynamics, "damped_newton", newton)
    return points


def test_legendre_inverse_makes_one_derivative_evaluation_per_newton_point(monkeypatch):
    # the quartic velocity term needs several Newton points; residual and
    # step at one point share a single call of L's point code
    sys = system_from_spec(parse_system(QUARTIC))
    evaluations = _counting_point(sys)
    points = _counting_newton(monkeypatch)
    at = legendre_inverse(sys, DualPoint(np.array([0.4]), np.array([2.5])))
    assert len(points) >= 3
    assert len(evaluations) == len(points)
    assert sys.gradients(at)[1][0] == pytest.approx(2.5, abs=1e-12)


def test_euler_lagrange_rhs_evaluates_the_anchor_once():
    # the anchor is evaluated inside the one point call, not by the chart
    sys = _tq()
    evaluations = _counting_point(sys)
    calls = []
    rho = sys.chart.rho
    sys.chart.rho = lambda x: calls.append(x) or rho(x)
    xdot, _ = euler_lagrange_rhs(sys, EPoint(np.array([0.7]), np.array([0.3])))
    assert len(evaluations) == 1 and calls == []
    assert xdot[0] == 0.3


def test_legendre_energy_value_reads_the_newton_point(monkeypatch):
    # E_L = y dL/dy - L comes from the point the Newton solve ends on: one
    # call of L's point code per Newton point and none after it, and the
    # value is the energy at the solved velocity bit for bit
    sys = system_from_spec(parse_system(QUARTIC))
    at = DualPoint(np.array([0.4]), np.array([2.5]))
    expected = sys.energy(legendre_inverse(sys, at))
    evaluations = _counting_point(sys)
    points = _counting_newton(monkeypatch)
    value = hamiltonian_from_lagrangian(sys).value(at)
    assert len(points) >= 3
    assert len(evaluations) == len(points)
    assert value == expected


@pytest.mark.parametrize("pid", ["so3_rigid_body", "tq_pendulum"])
def test_hamilton_and_bracket_take_the_exact_gradients(pid, monkeypatch):
    # the Hamiltonian passes through as_dual_observable as it is, so its
    # gradients come from the Legendre inverse, not from differences
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


def test_energy_derivatives_take_the_packed_vector():
    sys = system_from_spec(load_preset("capri_kobayashi").spec)
    rng = np.random.default_rng(13)
    for _ in range(5):
        z = rng.uniform(-1.0, 1.0, sys.chart.m + sys.chart.n)
        packed = sys.energy_derivatives(z)
        split = sys.energy_derivatives(EPoint(z[:sys.chart.m], z[sys.chart.m:]))
        for got, want in zip(packed, split):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_the_el_point_checks_rho_before_c():
    # the EL point walks L's jet, then rho, then C, as the vakonomic point
    # does: where both are undefined, rho's error is the one reported
    sys = system_from_spec(parse_system(
        "system both_undefined\nbase [q]\nfiber [v, w]\n"
        "anchor { v -> (ln(q)); w -> (0) }\nbracket { [v, w] = sqrt(q)*v }\n"
        "lagrangian = 0.5*(v^2 + w^2)\n"))
    with pytest.raises(EvalDomainError) as err:
        sys.derivatives(EPoint(np.array([-1.0]), np.array([0.2, 0.3])))
    assert str(err.value) == "ln of non-positive value -1.0 at node ln"


def _el_reference(sys, x, y):
    """The point's fields in numpy from L's separate Hessian jet and the
    chart's rho and C: the formulas of the force system before it became one
    generated call. E_L is summed left to right in Python."""
    m = sys.chart.m
    value, g, h = sys._sf.derivatives(np.concatenate([x, y]))
    lx, ly, hxy = g[:m], g[m:], h[:m, m:]
    rho, cs = sys.chart.rho(x), sys.chart.structure(x)
    drive = np.einsum("c,cab,b->a", ly, cs, y)
    if m:
        drive = drive + hxy.T @ (rho @ y) - rho.T @ lx
    energy = 0.0
    for yb, lb in zip(y.tolist(), ly.tolist()):
        energy = energy + yb * lb
    return dict(value=value, lx=lx, ly=ly, hxy=hxy, w=h[m:, m:], hxx=h[:m, :m],
                energy=energy - value, b=-drive, rho_y=rho @ y if m else np.zeros(0))


def _el_points(sys, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.uniform(0.5, 1.5, sys.chart.m), rng.uniform(-1.0, 1.0, sys.chart.n)


@pytest.mark.parametrize("pid", ["tq_pendulum", "so3_rigid_body", "skinner_rusk_demo",
                                 "capri_kobayashi"])
def test_the_point_is_bit_equal_to_the_numpy_force_system(pid):
    sys = system_from_spec(load_preset(pid).spec)
    for x, y in _el_points(sys, 40, seed=31):
        d, ref = sys.derivatives(EPoint(x, y)), _el_reference(sys, x, y)
        for field, want in ref.items():
            assert np.asarray(getattr(d, field)).tobytes() == np.asarray(want).tobytes(), field


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_point_agrees_with_the_numpy_force_system_on_sweep_charts(seed):
    # sums of several products, which numpy may add in another order
    rng = np.random.default_rng(seed)
    for k in range(4):
        model = perfbench_workloads().generate_model(rng, k, f"sweep_el_k{k}")
        sys = system_from_spec(parse_system(model.text))
        for x, y in _el_points(sys, 20, seed=seed):
            d, ref = sys.derivatives(EPoint(x, y)), _el_reference(sys, x, y)
            for field, want in ref.items():
                got, want = np.asarray(getattr(d, field)), np.asarray(want)
                scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, field


def _hamilton_reference(chart, H, at):
    """(xdot, pdot) in numpy from the chart's rho and C: the formula of the
    Hamilton field before it became one generated call."""
    hx, hp = H.gradients(at)
    rho, cs = chart.rho(at.x), chart.structure(at.x)
    cp = np.einsum("cab,c->ab", cs, at.p)
    xdot = rho @ hp if chart.m else np.zeros(0)
    pdot = -(cp @ hp)
    if chart.m:
        pdot = pdot - rho.T @ hx
    return xdot, pdot


def _tree_hamiltonian(chart):
    """A Hamiltonian tree in every base and momentum name with a cross term,
    so each gradient entry is nonzero."""
    p = [expr.Var(name) for name in chart.momentum_names]
    tree = 0.5 * functools.reduce(operator.add, [pa * pa for pa in p])
    for k, name in enumerate(chart.base_names):
        tree = tree + expr.Unary("cos", expr.Var(name)) * p[k % chart.n]
    return DualObservable(chart, tree)


def _hamilton_cases():
    for pid in ("tq_pendulum", "so3_rigid_body", "skinner_rusk_demo"):
        assert "hamilton" in load_preset(pid).facts["modes"]
        yield pid, load_preset(pid).spec
    rng = np.random.default_rng(2011)
    for k in range(4):
        model = perfbench_workloads().generate_model(rng, k, f"sweep_hamilton_k{k}")
        yield f"sweep k={k}", parse_system(model.text)


@pytest.mark.parametrize("case, spec", list(_hamilton_cases()))
def test_the_hamilton_field_agrees_with_the_numpy_formula(case, spec):
    sys = system_from_spec(spec)
    chart = sys.chart
    rng = np.random.default_rng(7)
    for H in (hamiltonian_from_lagrangian(sys), _tree_hamiltonian(chart)):
        for _ in range(10):
            at = legendre(sys, EPoint(rng.uniform(0.5, 1.5, chart.m),
                                      rng.uniform(-1.0, 1.0, chart.n)))
            got, want = hamilton_rhs(chart, H, at), _hamilton_reference(chart, H, at)
            for g, w in zip(got, want):
                scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
                assert np.max(np.abs(g - w), initial=0.0) <= 1e-15 * scale, case


def test_a_hamilton_rhs_reads_neither_chart_tensor():
    # rho and C enter inside the generated Hamilton field, not through the chart
    sys = _tq()
    chart = sys.chart
    calls = []
    rho, structure = chart.rho, chart.structure
    chart.rho = lambda x: calls.append("rho") or rho(x)
    chart.structure = lambda x: calls.append("structure") or structure(x)
    for H in (hamiltonian_from_lagrangian(sys), parse_expression("0.5*p1^2 - cos(q)")):
        xdot, pdot = hamilton_rhs(chart, H, DualPoint(np.array([0.8]), np.array([-0.6])))
        assert xdot[0] == pytest.approx(-0.6, abs=1e-12)
        assert pdot[0] == pytest.approx(-math.sin(0.8), abs=1e-12)
    assert calls == []


@pytest.mark.parametrize("source", [QUARTIC, CROSS], ids=["quartic", "cross"])
def test_legendre_energy_gradients_are_read_only(source):
    H = hamiltonian_from_lagrangian(system_from_spec(parse_system(source)))
    at = DualPoint(np.array([0.4]), np.array([0.7] * H.chart.n))
    for array in H.gradients(at):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    # a second call at the point hands out the kept velocity itself
    assert H.gradients(at)[1] is H.gradients(at)[1]


def test_the_so3_point_code_computes_no_literal_statement(monkeypatch):
    # params are literals, so the constant Hessian of so3's L is folded when
    # its code is generated instead of recomputed at each call
    sources = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: sources.append(source)
                        or compile_(source))
    sys = system_from_spec(copy.deepcopy(load_preset("so3_rigid_body").spec))
    sys.derivatives(EPoint(np.zeros(0), np.array([0.3, 0.8, 1.5])))
    assert len(sources) == 1
    statements = re.findall(r"^    t\d+ = (.*)$", sources[0], re.MULTILINE)
    assert statements
    for rhs in statements:
        assert re.search(r"\b[tv]\d+\b", rhs), rhs


def test_the_tq_pendulum_point_code_divides_by_no_one(monkeypatch):
    # W = 1 is solved in the point as b / 1.0 + 0.0; x / 1.0 is x bit for
    # bit, so the division folds away and only the + 0.0 stays
    sources = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: sources.append(source)
                        or compile_(source))
    sys = system_from_spec(copy.deepcopy(load_preset("tq_pendulum").spec))
    sys.derivatives(EPoint(np.array([0.3]), np.array([0.7])))
    assert len(sources) == 1
    assert "/ (1.0)" not in sources[0] and "+ (0.0)" in sources[0]
