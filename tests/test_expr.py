"""Expression trees, symbolic differentiation, and ScalarFunction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from amech.algebroid import AlgebroidChart
from amech.errors import EvalDomainError, UnboundVariableError
from amech.expr import (
    Binary,
    Const,
    Expr,
    Pow,
    ScalarFunction,
    Unary,
    Var,
    evaluate,
    format_expr,
    grad,
    hessian,
    substitute,
    variables_of,
)
from amech.expr import _fd_gradient, _fd_hessian
from strategies import NAMES, exprs

X, Y = Var("x"), Var("y")


def test_evaluate_polynomial_and_trig():
    # f = sin(x)*y + x^3 at (0.5, 2.0)
    f = Unary("sin", X) * Y + X ** 3
    v = evaluate(f, {"x": 0.5, "y": 2.0})
    assert v == pytest.approx(2.0 * math.sin(0.5) + 0.125, abs=1e-15)


def test_evaluate_is_deterministic():
    f = (X + Y) * (X - Y) / (X * Y + 3.0) + Unary("exp", X * 0.1)
    env = {"x": 0.731, "y": -0.244}
    assert evaluate(f, env) == evaluate(f, env)


def test_grad_hand_oracle():
    # d/dx [sin(x)*y + x^3] = y*cos(x) + 3x^2, d/dy = sin(x)
    f = Unary("sin", X) * Y + X ** 3
    g = grad(f, ("x", "y"), {"x": 0.5, "y": 2.0})
    assert_allclose(g, [2.0 * math.cos(0.5) + 0.75, math.sin(0.5)], atol=1e-15)


def test_hessian_hand_oracle():
    f = Unary("sin", X) * Y + X ** 3
    h = hessian(f, ("x", "y"), {"x": 0.5, "y": 2.0})
    expected = np.array([[-2.0 * math.sin(0.5) + 3.0, math.cos(0.5)],
                         [math.cos(0.5), 0.0]])
    assert_allclose(h, expected, atol=1e-15)
    assert np.array_equal(h, h.T)


def test_quotient_gradient():
    # q = (x+y)/(x-y): dq/dx = -2y/(x-y)^2, dq/dy = 2x/(x-y)^2
    q = (X + Y) / (X - Y)
    g = grad(q, ("x", "y"), {"x": 1.25, "y": 0.5})
    d = (1.25 - 0.5) ** 2
    assert_allclose(g, [-2.0 * 0.5 / d, 2.0 * 1.25 / d], rtol=1e-14)


def test_negative_exponent_derivatives():
    f = X ** -2
    g = grad(f, ("x",), {"x": 0.8})
    h = hessian(f, ("x",), {"x": 0.8})
    assert g[0] == pytest.approx(-2.0 * 0.8 ** -3, rel=1e-14)
    assert h[0, 0] == pytest.approx(6.0 * 0.8 ** -4, rel=1e-14)


def test_log_sqrt_chain():
    # f = ln(sqrt(x^2 + 1)): f' = x/(x^2+1)
    f = Unary("ln", Unary("sqrt", X ** 2 + 1.0))
    g = grad(f, ("x",), {"x": 0.7})
    assert g[0] == pytest.approx(0.7 / (0.49 + 1.0), rel=1e-14)


def test_zeroth_power_is_one_with_zero_derivative():
    f = X ** 0
    assert evaluate(f, {"x": 3.7}) == 1.0
    assert grad(f, ("x",), {"x": 3.7})[0] == 0.0
    assert hessian(f, ("x",), {"x": 3.7})[0, 0] == 0.0


def test_unbound_variable_reports_name_and_path():
    f = Unary("sin", Var("theta")) + X
    with pytest.raises(UnboundVariableError) as err:
        evaluate(f, {"x": 1.0})
    assert err.value.name == "theta"
    assert "sin" in err.value.path


@pytest.mark.parametrize("expr, env", [
    (Unary("ln", X), {"x": -1.0}),
    (Unary("ln", X), {"x": 0.0}),
    (Unary("sqrt", X), {"x": -0.5}),
    (X / (Y - Y), {"x": 1.0, "y": 2.0}),
    (X ** -1, {"x": 0.0}),
])
def test_domain_errors(expr, env):
    with pytest.raises(EvalDomainError):
        evaluate(expr, env)


def test_domain_error_during_gradient_too():
    f = Unary("ln", X)
    with pytest.raises(EvalDomainError):
        grad(f, ("x",), {"x": -2.0})


@pytest.mark.parametrize("derive", [grad, hessian])
@pytest.mark.parametrize("f", [Unary("sqrt", X), Unary("sqrt", X ** 2)],
                         ids=["sqrt(x)", "sqrt(x^2)"])
def test_derivative_at_a_sqrt_zero_is_a_domain_error(f, derive):
    # f itself is defined at x = 0, its derivative is not
    assert evaluate(f, {"x": 0.0}) == 0.0
    with pytest.raises(EvalDomainError) as err:
        derive(f, ("x",), {"x": 0.0})
    assert "with respect to 'x'" in str(err.value)
    assert err.value.path == "<root>"


def test_pow_requires_integer_exponent():
    with pytest.raises(ValueError):
        Pow(X, 1.5)
    with pytest.raises(ValueError):
        Pow(X, True)


def test_unknown_ops_rejected():
    with pytest.raises(ValueError):
        Unary("tanh", X)
    with pytest.raises(ValueError):
        Binary("%", X, Y)


def test_grad_requires_variables():
    with pytest.raises(ValueError):
        grad(X, (), {"x": 1.0})


def test_substitute_and_variables_of():
    f = X ** 2 + Unary("cos", Y)
    g = substitute(f, {"x": X + Y})
    assert variables_of(f) == frozenset({"x", "y"})
    assert evaluate(g, {"x": 1.0, "y": 2.0}) == pytest.approx(9.0 + math.cos(2.0))
    # untouched nodes are reused, not copied
    assert substitute(f, {}) is not f  # rebuilt shell
    assert variables_of(Const(3.0)) == frozenset()


def test_format_preserves_association():
    f = X - (Y - Const(1.0))
    assert format_expr(f) == "x - (y - 1.0)"
    g = (X + Y) * Var("z")
    assert format_expr(g) == "(x + y) * z"
    h = -(X ** 2)
    assert format_expr(h) == "-x^2"


def test_scalar_function_expr_and_callable_paths_agree():
    f = Unary("exp", X * Y) + X ** 3
    sf_ad = ScalarFunction(("x", "y"), expr=f)
    sf_fd = ScalarFunction(("x", "y"), fn=lambda v: math.exp(v[0] * v[1]) + v[0] ** 3)
    assert sf_ad.source == "ad" and sf_fd.source == "fd"
    v = np.array([0.4, 1.1])
    assert sf_ad.value(v) == pytest.approx(sf_fd.value(v), rel=1e-15)
    assert_allclose(sf_ad.gradient(v), sf_fd.gradient(v), atol=1e-8)
    assert_allclose(sf_ad.hessian(v), sf_fd.hessian(v), atol=1e-6)
    val, g = sf_ad.value_and_gradient(v)
    assert val == sf_ad.value(v)
    assert np.array_equal(g, sf_ad.gradient(v))


def test_scalar_function_params_are_bound():
    f = Var("k") * X ** 2
    sf = ScalarFunction(("x",), expr=f, params={"k": 2.5})
    assert sf.value([2.0]) == 10.0
    assert sf.gradient([2.0])[0] == 10.0


def test_scalar_function_requires_exactly_one_source():
    with pytest.raises(ValueError):
        ScalarFunction(("x",))
    with pytest.raises(ValueError):
        ScalarFunction(("x",), expr=X, fn=lambda v: 0.0)


def test_operator_overloads_build_expected_nodes():
    e = 2.0 * X + Y / 3.0 - 1.0
    assert isinstance(e, Binary) and e.op == "-"
    assert isinstance(e.left, Binary) and e.left.op == "+"
    n = -X
    assert isinstance(n, Unary) and n.op == "neg"
    assert isinstance(1.0 - X, Binary)
    assert isinstance(2.0 / X, Binary)


# -- the central-difference rule ---------------------------------------------


def test_fd_gradient_of_a_scalar_function():
    g = _fd_gradient(lambda v: v[0] ** 2 * v[1], np.array([1.5, -2.0]))
    assert g.shape == (2,)
    assert_allclose(g, [-6.0, 2.25], atol=1e-8)
    assert _fd_gradient(lambda v: 1.0, np.zeros(0)).shape == (0,)


def test_fd_gradient_of_a_tensor_valued_function():
    def f(v):
        return np.array([[v[0] * v[1], v[1], 1.0], [v[0] ** 2, 0.0, -v[1]]])

    jac = _fd_gradient(f, np.array([2.0, 3.0]))
    assert jac.shape == (2, 3, 2)
    expected = np.zeros((2, 3, 2))
    expected[0, 0] = [3.0, 2.0]
    expected[0, 1] = [0.0, 1.0]
    expected[1, 0] = [4.0, 0.0]
    expected[1, 2] = [0.0, -1.0]
    assert_allclose(jac, expected, atol=1e-8)


def test_fd_jacobians_of_a_base_free_closure_chart():
    n = 3
    cs = np.zeros((n, n, n))
    cs[2, 0, 1], cs[2, 1, 0] = 1.0, -1.0
    chart = AlgebroidChart(0, n, lambda x: np.zeros((0, n)), lambda x: cs)
    assert chart.deriv_source == "fd"
    assert chart.rho_jacobian(np.zeros(0)).shape == (0, n, 0)
    assert chart.structure_jacobian(np.zeros(0)).shape == (n, n, n, 0)


# -- the symbolic route against the difference rules on generated trees -------


@settings(max_examples=200, derandomize=True, deadline=None)
@given(expr=exprs(), vals=st.tuples(*[st.floats(min_value=0.5, max_value=1.5)
                                      for _ in NAMES]))
def test_symbolic_derivatives_match_finite_differences(expr, vals):
    x = np.array(vals)

    def env(v):
        return dict(zip(NAMES, (float(c) for c in v)))

    # a failure here may only be a documented one; anything else propagates
    try:
        value = evaluate(expr, env(x))
        g = grad(expr, NAMES, env(x))
        h = hessian(expr, NAMES, env(x))
    except (EvalDomainError, OverflowError):
        return
    assert np.array_equal(h, h.T)
    if not (math.isfinite(value) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        return

    # compare only where f is smooth on the difference stencils: the Hessian
    # is defined and nearly constant on the grid of steps _fd_hessian uses
    step = 1e-4 * np.maximum(1.0, np.abs(x))
    scale = max(1.0, abs(value), np.max(np.abs(g)), np.max(np.abs(h)))
    try:
        grid = [hessian(expr, NAMES, env(x + np.array(s) * step))
                for s in itertools.product((-1.0, 0.0, 1.0), repeat=len(NAMES))]
    except (EvalDomainError, OverflowError):
        return
    if not all(np.all(np.abs(hg - h) <= 1e-2 * scale) for hg in grid):
        return

    def f(v):
        return evaluate(expr, env(v))

    assert np.max(np.abs(g - _fd_gradient(f, x))) <= 1e-8 * scale
    assert np.max(np.abs(h - _fd_hessian(f, x))) <= 1e-5 * scale
