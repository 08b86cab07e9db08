"""Expression trees, symbolic differentiation, and ScalarFunction."""

import copy
import itertools
import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from amech import expr as expr_module
from amech.algebroid import AlgebroidChart, chart_from_spec, check_structure
from amech.algebroid import _fd_tensor_jacobian
from amech.dsl import MAX_DEPTH, parse_system
from amech.errors import EvalDomainError, UnboundVariableError
from amech.expr import (
    Binary,
    Const,
    Expr,
    Pow,
    ScalarFunction,
    Unary,
    Var,
    derivative,
    evaluate,
    format_expr,
    generate,
    grad,
    hessian,
    keep_last,
    lazy_generated,
    substitute,
    variables_of,
)
from amech.expr import _fd_gradient, _fd_hessian, _fold, _jet_layout, _partials, _walk
from amech.vakonomic import VakonomicSystem
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

    def fn(v):
        return math.exp(v[0] * v[1]) + v[0] ** 3

    v = np.array([0.4, 1.1])
    assert sf_ad.value(v) == pytest.approx(fn(v), rel=1e-15)
    assert_allclose(sf_ad.gradient(v), _fd_gradient(fn, v), atol=1e-8)
    assert_allclose(sf_ad.hessian(v), _fd_hessian(fn, v), atol=1e-6)
    val, g, h = sf_ad.derivatives(v)
    assert val == sf_ad.value(v)
    assert np.array_equal(g, sf_ad.gradient(v))
    assert np.array_equal(h, sf_ad.hessian(v))


def test_scalar_function_params_are_bound():
    f = Var("k") * X ** 2
    sf = ScalarFunction(("x",), expr=f, params={"k": 2.5})
    assert sf.value([2.0]) == 10.0
    assert sf.gradient([2.0])[0] == 10.0


def test_scalar_function_requires_exactly_one_source():
    with pytest.raises(TypeError):
        ScalarFunction(("x",))
    with pytest.raises(TypeError, match="expression tree"):
        ScalarFunction(("x",), expr=lambda v: v[0])
    assert ScalarFunction(("x",), expr=X * X).gradient([3.0])[0] == 6.0


def test_vakonomic_lagrangian_must_be_an_expression_tree():
    chart = chart_from_spec(parse_system(
        "system trees\nbase [q]\nfiber [v]\nanchor { v -> (1) }\nlagrangian = 0.5*v^2\n"))
    with pytest.raises(TypeError, match="expression tree"):
        VakonomicSystem(chart, (), (), lambda v: 0.5 * v[1] ** 2)


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
    chart = chart_from_spec(parse_system(
        "system closure\nbase []\nfiber [y1, y2, y3]\nanchor zero\n"
        "bracket { [y1, y2] = y3 }\nlagrangian = 0.5*y1^2\n"))
    # a chart is built from a spec only
    with pytest.raises(TypeError):
        AlgebroidChart(0, n, chart.rho, chart.structure)
    assert _fd_tensor_jacobian(chart.rho, np.zeros(0)).shape == (0, n, 0)
    assert _fd_tensor_jacobian(chart.structure, np.zeros(0)).shape == (n, n, n, 0)
    fd = check_structure(chart, np.zeros(0), "fd")
    ad = check_structure(chart, np.zeros(0), "ad")
    assert (fd.r1, fd.r2) == (ad.r1, ad.r2) == (0.0, 0.0)


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


# -- derivative against the plain recursion ----------------------------------


def _recursive_derivative(node, var):
    """The derivative rules applied to every branch, with no memo and no skip
    of branches without var: the reference that `derivative` must match."""
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Unary):
        op, a, da = node.op, node.arg, _recursive_derivative(node.arg, var)
        if op == "neg":
            return _fold("-", Const(0.0), da)
        if op == "ln":
            return _fold("/", da, a)
        if op == "sqrt":
            return _fold("/", da, _fold("*", Const(2.0), node))
        if op == "exp":
            return _fold("*", node, da)
        if op == "sin":
            return _fold("*", Unary("cos", a), da)
        return _fold("*", Unary("neg", Unary("sin", a)), da)
    if isinstance(node, Binary):
        op, left, right = node.op, node.left, node.right
        dl, dr = _recursive_derivative(left, var), _recursive_derivative(right, var)
        if op in "+-":
            return _fold(op, dl, dr)
        if op == "*":
            return _fold("+", _fold("*", dl, right), _fold("*", left, dr))
        return _fold("/", _fold("-", dl, _fold("*", node, dr)), right)
    n, base = node.exponent, node.base
    power = Const(1.0) if n == 1 else base if n == 2 else Pow(base, n - 1)
    return _fold("*", _fold("*", Const(float(n)), power),
                 _recursive_derivative(base, var))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(expr=exprs())
def test_partials_match_the_plain_recursion(expr):
    # node equality compares floats with ==, so Const(0.0) == Const(-0.0):
    # the trees are equal up to the sign of zero constants
    wrt = tuple(NAMES)
    first = {a: _recursive_derivative(expr, a) for a in wrt}
    assert _partials(expr, wrt, 1) == [((a,), first[a]) for a in wrt]
    assert _partials(expr, wrt, 2) == [((a, b), _recursive_derivative(first[a], b))
                                       for k, a in enumerate(wrt) for b in wrt[k:]]
    for a in wrt:
        assert derivative(expr, a) == first[a]


def test_a_branch_without_the_variable_derives_to_positive_zero():
    # the plain recursion folds y / -0.9 to 0 / -0.9 = -0.0; the skipped
    # branch is +0.0, equal as a node but not in its bits
    expr = X * Y / Const(-0.9)
    second = derivative(derivative(expr, "x"), "x")
    recursed = _recursive_derivative(_recursive_derivative(expr, "x"), "x")
    assert second == recursed == Const(0.0)
    assert math.copysign(1.0, second.value) == 1.0
    assert math.copysign(1.0, recursed.value) == -1.0


def test_a_shared_memo_derives_a_shared_subtree_once():
    inner = Unary("sin", X * Y)
    trees = [inner * X, inner + Y, Unary("exp", inner)]
    memo = {}
    firsts = [derivative(tree, "x", memo) for tree in trees]
    # d(inner + y)/dx is d(inner)/dx itself, the result kept for inner
    assert memo[id(inner), "x"][1] is firsts[1]
    # a later call over the same trees returns the kept results
    assert all(derivative(tree, "x", memo) is first for tree, first in zip(trees, firsts))


# -- the generated code against the tree walk ---------------------------------


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _walk_or_error(steps):
    """Results of the walk's calls in order, or the first exception raised."""
    try:
        return [step() for step in steps], None
    except Exception as exc:  # compared by type, message and path below
        return None, exc


def _assert_same_error(call, expected):
    with pytest.raises(type(expected)) as err:
        call()
    assert type(err.value) is type(expected)
    assert str(err.value) == str(expected)
    assert getattr(err.value, "path", None) == getattr(expected, "path", None)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(expr=exprs(),
       vals=st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0))
                        for _ in NAMES]))
def test_generated_code_matches_the_tree_walk_bit_for_bit(expr, vals):
    env = dict(zip(NAMES, vals))
    sf = ScalarFunction(NAMES, expr=expr)
    walked, error = _walk_or_error([lambda: evaluate(expr, env),
                                    lambda: grad(expr, NAMES, env),
                                    lambda: hessian(expr, NAMES, env)])
    # the generated code itself, without the fallback
    raw = generate(NAMES, {}, _jet_layout(expr, NAMES, 2)[0])
    if error is None:
        for got in (raw(list(vals)), sf.derivatives(np.array(vals))):
            assert [_bits(a) for a in got] == [_bits(a) for a in walked]
        assert _bits(sf.value(vals)) == _bits(walked[0])
        assert _bits(sf.gradient(vals)) == _bits(walked[1])
        assert _bits(sf.hessian(vals)) == _bits(walked[2])
        return
    # it fails where the walk fails, and the caller sees the walk's error
    with pytest.raises((ArithmeticError, ValueError)):
        raw(list(vals))
    _assert_same_error(lambda: sf.derivatives(np.array(vals)), error)
    _, value_error = _walk_or_error([lambda: evaluate(expr, env)])
    if value_error is not None:
        _assert_same_error(lambda: sf.value(vals), value_error)
    _, grad_error = _walk_or_error([lambda: grad(expr, NAMES, env)])
    if grad_error is not None:
        _assert_same_error(lambda: sf.gradient(vals), grad_error)


def test_a_name_outside_names_and_params_is_never_compiled():
    f = Unary("sin", Var("theta")) + X * Var("k")
    assert generate(("x",), {"k": 2.0}, [([f], None)]) is None
    sf = ScalarFunction(("x",), expr=f, params={"k": 2.0})
    for call in (sf.value, sf.gradient, sf.hessian, sf.derivatives):
        with pytest.raises(UnboundVariableError) as err:
            call([1.0])
        assert err.value.name == "theta"
        assert "sin" in err.value.path


def test_the_fallback_walk_names_a_partial_by_its_slot():
    # sqrt(x) fails at x = -1 in the generated code and in the walk; a tree
    # of an order-k group is labelled by the names on its last k axes, here
    # row 1 and column 2 of a 3 x 3 group
    slots = [Const(0.0)] * 9
    slots[5] = Unary("sqrt", X)
    messages = {0: "sqrt of negative value -1.0 at node sqrt",
                1: "derivative with respect to 'z' is undefined at node <root>",
                2: "derivative with respect to 'y' and 'z' is undefined at node <root>"}
    for order, message in messages.items():
        f = lazy_generated(("x", "y", "z"), {},
                           lambda order=order: ([([Y], None, 0), (slots, (3, 3), order)], ()))
        with pytest.raises(EvalDomainError) as err:
            f([-1.0, 2.0, 3.0])
        assert str(err.value) == message


@pytest.fixture
def eval_node_calls(monkeypatch):
    """A one-item list counting the calls of the tree walk's node evaluator,
    its recursive calls included; the recursion limit is doubled meanwhile
    for the counter's own frames."""
    calls, walk, limit = [0], expr_module._eval_node, sys.getrecursionlimit()

    def counting(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(expr_module, "_eval_node", counting)
    sys.setrecursionlimit(2 * limit)
    yield calls
    sys.setrecursionlimit(limit)


def _distinct_nodes(trees) -> int:
    seen, stack = {}, list(trees)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [getattr(node, f) for f in ("arg", "left", "right", "base")
                      if hasattr(node, f)]
    return len(seen)


# L = v^2 + v*v*...*v at the parser's depth bound: its partial trees share
# the chain's prefixes, so a walk per path makes millions of node calls
DEPTH_CHAIN = parse_system("system chain\nbase [q]\nfiber [v]\nanchor { v -> (1) }\n"
                           "lagrangian = v^2 + v" + "*v" * (MAX_DEPTH - 2) + "\n").lagrangian


@pytest.mark.parametrize("walk", [
    lambda names, env: _walk(names, {}, _jet_layout(DEPTH_CHAIN, names, 2), [*env.values()]),
    lambda names, env: hessian(DEPTH_CHAIN, names, env),
], ids=["_walk", "hessian"])
def test_one_walk_evaluates_each_node_once(eval_node_calls, walk):
    names, env = ("q", "v"), {"q": 0.3, "v": 0.9}
    trees = [tree for group, *_ in _jet_layout(DEPTH_CHAIN, names, 2)[0] for tree in group]
    walk(names, env)
    # one call per root and per operand of each distinct node evaluated
    assert 0 < eval_node_calls[0] <= len(trees) + 2 * _distinct_nodes(trees)


def test_the_walk_of_the_depth_chain_is_the_generated_jet_bit_for_bit():
    names, x = ("q", "v"), [0.3, 0.9]
    env = dict(zip(names, x))
    value, g, h = ScalarFunction(names, expr=DEPTH_CHAIN).derivatives(x)
    assert _bits(evaluate(DEPTH_CHAIN, env)) == _bits(value)
    assert _bits(grad(DEPTH_CHAIN, names, env)) == _bits(g)
    assert _bits(hessian(DEPTH_CHAIN, names, env)) == _bits(h)


def test_generated_code_binds_names_before_params():
    f = Var("k") * X ** 2
    sf = ScalarFunction(("x", "k"), expr=f, params={"k": 2.5})
    assert sf.value([2.0, 3.0]) == 12.0
    assert_allclose(sf.gradient([2.0, 3.0]), [12.0, 4.0])


def test_functions_of_one_tree_share_its_generated_code():
    # a fresh ScalarFunction per call (as d_E_function and the bracket make)
    # reuses the code generated for the first one
    f = Unary("sin", X) * Y
    first = ScalarFunction(("x", "y"), expr=f, params={"k": 1.0})
    assert ScalarFunction(("x", "y"), expr=f, params={"k": 1.0})._jets is first._jets
    assert ScalarFunction(("y", "x"), expr=f, params={"k": 1.0})._jets is not first._jets
    assert ScalarFunction(("x", "y"), expr=f, params={"k": 2.0})._jets is not first._jets


def test_an_evaluated_expression_still_pickles():
    f = Unary("sin", X) * Y
    sf = ScalarFunction(("x", "y"), expr=f)
    before = sf.derivatives([0.3, 0.7])
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    again = ScalarFunction(("x", "y"), expr=g).derivatives([0.3, 0.7])
    assert [_bits(a) for a in again] == [_bits(a) for a in before]


def _sources(monkeypatch):
    """The source text of every function generated from here on."""
    sources = []
    compile_ = expr_module._compile
    monkeypatch.setattr(expr_module, "_compile",
                        lambda source: sources.append(source) or compile_(source))
    return sources


def test_a_double_negation_folds_to_its_operand():
    # -(-x) is x bit for bit, so 0 - (-x) and -(0 - x) build no negation
    assert _fold("-", Const(0.0), Unary("neg", X)) is X
    assert _fold("-", Const(0.0), _fold("-", Const(0.0), X)) is X
    assert _fold("-", Const(0.0), X) == Unary("neg", X)


def test_the_pendulum_point_negates_no_negation(monkeypatch):
    # d(-(1 - cos q))/dq was built as 0 - (0 - -sin q): three negations in a
    # row, now one; its values keep their bits (the reference CSVs)
    from amech.dynamics import system_from_spec
    from amech.presets import load as load_preset

    sources = _sources(monkeypatch)
    system_from_spec(copy.deepcopy(load_preset("tq_pendulum").spec)).derivatives(
        np.array([0.3, 0.4]))
    [source] = sources
    negated = dict(re.findall(r"^    (t\d+) = -(t\d+)$", source, re.MULTILINE))
    assert negated, source
    assert not set(negated) & set(negated.values()), source


def test_literal_statements_are_folded_where_the_code_is_generated(monkeypatch):
    # k * 3 and sin(k / 4)^2 have literal operands once the param k is
    # bound; they become literals of the same bits, and only the two
    # statements on x stay
    sources = _sources(monkeypatch)
    k = Var("k")
    f = X * (k * Const(3.0)) + Unary("sin", k / Const(4.0)) ** 2
    fn = generate(("x",), {"k": 0.7}, [([f], None, 0)])
    statements = re.findall(r"^    t\d+ = (.*)$", sources[-1], re.MULTILINE)
    assert statements == [f"v0 * ({0.7 * 3.0!r})", f"t0 + ({math.sin(0.7 / 4.0) ** 2!r})"]
    for x in (0.3, -1.9, 0.0):
        assert _bits(fn([x])) == _bits(evaluate(f, {"x": x, "k": 0.7}))


@pytest.mark.parametrize("tree, statement, message", [
    (X + Const(1.0) / Const(0.0), "(1.0) / (0.0)", "division by zero"),
    (X * Unary("ln", Const(-2.0)), "ln((-2.0))", "ln of non-positive value -2.0"),
    (X - Pow(Const(0.0), -1), "(0.0) ** (-1)", "zero base with negative exponent"),
])
def test_a_literal_statement_that_raises_is_kept_for_the_walk(monkeypatch, tree, statement,
                                                              message):
    sources = _sources(monkeypatch)
    sf = ScalarFunction(("x",), expr=tree)
    with pytest.raises(EvalDomainError, match=message):
        sf.value([0.5])
    assert f"t0 = {statement}\n" in sources[0]


def _counted_jet(monkeypatch):
    """A fresh value-gradient-Hessian function of 1/x + x*y, and the list of
    points its generated code ran at."""
    runs = []
    make = expr_module.generate

    def counting(*args, **kwargs):
        code = make(*args, **kwargs)

        def run(v):
            runs.append(list(v))
            return code(v)
        return run

    monkeypatch.setattr(expr_module, "generate", counting)
    f = 1.0 / X + X * Y
    return lazy_generated(("x", "y"), {}, lambda: _jet_layout(f, ("x", "y"), 2)), runs


def test_an_equal_point_returns_the_kept_outputs_without_running_the_code(monkeypatch):
    jet, runs = _counted_jet(monkeypatch)
    first = jet(np.array([2.0, 3.0]))
    again = jet([2.0, 3.0])  # a new object with the same bytes
    assert runs == [[2.0, 3.0]]
    assert again is first
    value, g, h = again
    assert value == 6.5
    assert not g.flags.writeable and not h.flags.writeable
    jet(np.array([2.5, 3.0]))
    assert len(runs) == 2


def test_negative_zero_is_another_point(monkeypatch):
    # -0.0 == 0.0, but 1/x tells them apart, so the memo keys on the bytes
    jet, runs = _counted_jet(monkeypatch)
    with pytest.raises(EvalDomainError):
        jet(np.array([0.0, 1.0]))
    jet(np.array([1.0, 0.0]))
    jet(np.array([1.0, -0.0]))
    assert runs == [[0.0, 1.0], [1.0, 0.0], [1.0, -0.0]]
    assert math.copysign(1.0, runs[2][1]) == -1.0


def test_writing_into_a_returned_array_raises(monkeypatch):
    jet, _ = _counted_jet(monkeypatch)
    _, g, h = jet(np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="read-only"):
        g[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        h[1, 1] += 1.0
    assert g.tolist() == [-0.25 + 3.0, 2.0]


def _counted_keep_last():
    """keep_last of a function that records its points and raises at
    x[0] < 0, and the list of those points; a list reaches it as a list."""
    runs = []

    def fn(x):
        runs.append(list(map(float, x)))
        if x[0] < 0.0:
            raise ValueError("negative")
        return sum(x)

    return keep_last(fn), runs


def test_keep_last_runs_once_per_point_by_value():
    f, runs = _counted_keep_last()
    assert f([1.0, 2.0]) == 3.0
    assert f(np.array([1.0, 2.0])) == 3.0  # another object, the same bytes
    assert f(np.array([1.0, 2.5])) == 3.5
    assert runs == [[1.0, 2.0], [1.0, 2.5]]


def test_keep_last_keeps_nothing_from_a_call_that_raises():
    f, runs = _counted_keep_last()
    f([1.0, 2.0])
    for _ in range(2):
        with pytest.raises(ValueError, match="negative"):
            f([-1.0, 2.0])
    assert runs == [[1.0, 2.0], [-1.0, 2.0], [-1.0, 2.0]]


@pytest.mark.parametrize("pack", [list, np.array], ids=["list", "array"])
def test_keep_last_tells_negative_zero_from_zero(pack):
    # the mode rows pass the generated points float arrays (the stage points)
    # and lists (the Hamilton field's inputs); both key on the doubles' bytes
    f, runs = _counted_keep_last()
    f(pack([1.0, 0.0]))
    f(pack([1.0, -0.0]))
    f(pack([1.0, -0.0]))
    assert runs == [[1.0, 0.0], [1.0, -0.0]]
    assert math.copysign(1.0, runs[1][1]) == -1.0


@pytest.mark.parametrize("pack", [list, np.array], ids=["list", "array"])
def test_a_generated_call_returns_the_sign_of_a_zero_it_is_given(pack):
    f = lazy_generated(("x", "y"), {}, lambda: ([([Var("x") * Var("y")], None, 0),
                                                 ([Var("x"), Var("y")], (2,), 0)], []))
    assert f.values(pack([0.0, 2.0])) == (0.0, (0.0, 2.0))
    value, vector = f.values(pack([-0.0, 2.0]))
    assert math.copysign(1.0, value) == math.copysign(1.0, vector[0]) == -1.0
    assert math.copysign(1.0, f(pack([-0.0, 2.0]))[1][0]) == -1.0
