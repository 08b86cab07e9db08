"""Charts, structure residuals, the differential, and the linear bracket."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amech.algebroid import (
    DualObservable,
    DualPoint,
    as_dual_observable,
    chart_from_spec,
    check_structure,
    d_E_function,
    jacobi_residual,
    lie_poisson_bracket,
    momentum_names,
    omega_E_matrix,
)
from amech.dsl import parse_expression, parse_system
from amech.errors import EvalDomainError
from amech.expr import _fd_gradient, evaluate, grad
from amech.presets import ids as preset_ids, load as load_preset
from strategies import perfbench_workloads

SO3 = """\
system so3
base []
fiber [w1, w2, w3]
anchor zero
bracket { [w1, w2] = w3; [w2, w3] = w1; [w3, w1] = w2 }
lagrangian = 0.5 * (w1^2 + 2.0 * w2^2 + 3.0 * w3^2)
"""

# the affine algebra acting on the line: [d/dq, q d/dq] = d/dq = rho(v)
CURVED = """\
system curved
base [q]
fiber [v, w]
anchor { v -> (1.0); w -> (q) }
bracket { [v, w] = 1.0 * v }
lagrangian = 0.5 * (v^2 + w^2)
"""

# same anchor with the bracket dropped violates anchor compatibility:
# [rho(v), rho(w)] = d/dq while rho([v, w]) = 0
BROKEN_ANCHOR = CURVED.replace("bracket { [v, w] = 1.0 * v }\n", "")

# [[w1,w2],w3] + cyc = [w2,w3] + 0 + 0 = w1, a genuine Jacobi violation
BROKEN_JACOBI = SO3.replace("[w1, w2] = w3", "[w1, w2] = w2")


def test_momentum_names():
    assert momentum_names(3) == ("p1", "p2", "p3")
    assert momentum_names(0) == ()


def test_dual_point_requires_finite_entries():
    with pytest.raises(ValueError):
        DualPoint(np.array([np.nan]), np.array([1.0]))


def test_chart_from_spec_matrices():
    chart = chart_from_spec(parse_system(CURVED))
    assert chart.m == 1 and chart.n == 2
    assert chart.base_names == ("q",) and chart.fiber_names == ("v", "w")
    assert chart.momentum_names == ("p1", "p2")
    x = np.array([0.7])
    assert_allclose(chart.rho(x), [[1.0, 0.7]], atol=0)
    cs = chart.structure(x)
    assert cs.shape == (2, 2, 2)
    # stored antisymmetrized: C[c, a, b] = -C[c, b, a]
    assert cs[0, 0, 1] == 1.0 and cs[0, 1, 0] == -1.0
    assert np.all(cs[1] == 0.0)


def test_structure_jacobians_match_finite_differences():
    chart = chart_from_spec(parse_system(CURVED))
    x = np.array([0.31])
    jr = chart.rho_jacobian(x)
    step = 1e-6
    fd = (chart.rho(x + step) - chart.rho(x - step)) / (2.0 * step)
    assert_allclose(jr[:, :, 0], fd, atol=1e-9)
    js = chart.structure_jacobian(x)
    fds = (chart.structure(x + step) - chart.structure(x - step)) / (2.0 * step)
    assert_allclose(js[:, :, :, 0], fds, atol=1e-9)


def test_check_structure_clean_charts():
    for text in (SO3, CURVED):
        chart = chart_from_spec(parse_system(text))
        rng = np.random.default_rng(5)
        for _ in range(10):
            rep = check_structure(chart, rng.uniform(-2.0, 2.0, chart.m))
            assert rep.r1 < 1e-12
            assert rep.r2 < 1e-12
            assert rep.source == "ad"


def test_check_structure_flags_anchor_incompatibility():
    chart = chart_from_spec(parse_system(BROKEN_ANCHOR))
    rep = check_structure(chart, np.array([0.4]))
    # the commutator of the anchor fields is d/dq, the bracket image is zero
    assert rep.r1 == pytest.approx(1.0, abs=1e-10)


def test_check_structure_flags_jacobi_violation():
    chart = chart_from_spec(parse_system(BROKEN_JACOBI))
    rep = check_structure(chart, np.zeros(0))
    assert rep.r2 > 0.5


def test_check_structure_fd_route_agrees():
    chart = chart_from_spec(parse_system(CURVED))
    x = np.array([1.1])
    ad = check_structure(chart, x, deriv_source="ad")
    fd = check_structure(chart, x, deriv_source="fd")
    assert fd.source == "fd"
    assert abs(ad.r1 - fd.r1) < 1e-6 and abs(ad.r2 - fd.r2) < 1e-6
    with pytest.raises(ValueError):
        check_structure(chart, x, deriv_source="symbolic")


def test_structure_report_serializes():
    rep = check_structure(chart_from_spec(parse_system(SO3)), np.zeros(0))
    payload = json.loads(rep.to_json())
    assert payload["source"] == "ad"
    assert payload["r1"] == 0.0


def test_d_E_function_applies_anchor_transpose():
    chart = chart_from_spec(parse_system(CURVED))
    x = np.array([0.6])
    # f = q^2: df/dq = 1.2, components rho^T grad = (1.2, 0.72)
    out = d_E_function(chart, parse_expression("q^2"), x)
    assert_allclose(out, [1.2, 0.72], atol=1e-14)


def test_d_E_function_zero_for_base_free_chart():
    chart = chart_from_spec(parse_system(SO3))
    assert_allclose(d_E_function(chart, parse_expression("1.0"), np.zeros(0)),
                    np.zeros(3), atol=0)


def test_dual_observable_expr_vs_callable():
    chart = chart_from_spec(parse_system(CURVED))
    expr_obs = DualObservable(chart, parse_expression("q * p1 + p2^2"))
    at = DualPoint(np.array([0.9]), np.array([0.3, -1.2]))
    assert expr_obs.value(at) == pytest.approx(0.9 * 0.3 + 1.44, rel=1e-15)
    gx_e, gp_e = expr_obs.gradients(at)
    assert_allclose(gx_e, [0.3], atol=0)
    assert_allclose(gp_e, [0.9, -2.4], atol=1e-14)
    assert as_dual_observable(chart, expr_obs) is expr_obs
    # a callable of (x, p) has no tree: it is refused, not differenced
    with pytest.raises(TypeError, match="expression tree"):
        DualObservable(chart, lambda x, p: x[0] * p[0] + p[1] ** 2)
    with pytest.raises(TypeError, match="expression tree"):
        lie_poisson_bracket(chart, lambda x, p: p[0], expr_obs, at)


def test_lie_poisson_momenta_close_on_structure():
    chart = chart_from_spec(parse_system(SO3))
    at = DualPoint(np.zeros(0), np.array([0.4, -1.1, 2.2]))
    p1, p2, p3 = (parse_expression(nm) for nm in ("p1", "p2", "p3"))
    # {p1, p2} = -C^3_12 p3 = -p3 under this sign convention
    assert lie_poisson_bracket(chart, p1, p2, at) == pytest.approx(-2.2, abs=1e-15)
    assert lie_poisson_bracket(chart, p2, p3, at) == pytest.approx(-0.4, abs=1e-15)
    assert lie_poisson_bracket(chart, p3, p1, at) == pytest.approx(1.1, abs=1e-15)


def test_lie_poisson_anchor_pairings():
    chart = chart_from_spec(parse_system(CURVED))
    at = DualPoint(np.array([0.7]), np.array([0.2, 0.5]))
    q = parse_expression("q")
    p1, p2 = parse_expression("p1"), parse_expression("p2")
    # {q, p_A} = rho[q, A]
    assert lie_poisson_bracket(chart, q, p1, at) == pytest.approx(1.0, abs=1e-15)
    assert lie_poisson_bracket(chart, q, p2, at) == pytest.approx(0.7, abs=1e-15)
    assert lie_poisson_bracket(chart, q, q, at) == 0.0


def test_lie_poisson_antisymmetry_and_jacobi():
    chart = chart_from_spec(parse_system(SO3))
    rng = np.random.default_rng(2)
    names = ("p1", "p2", "p3")
    # inner brackets of momenta substituted in closed form
    inner = {
        ("p1", "p2"): parse_expression("-p3"),
        ("p2", "p3"): parse_expression("-p1"),
        ("p1", "p3"): parse_expression("p2"),
    }
    obs = {nm: DualObservable(chart, parse_expression(nm)) for nm in names}
    for _ in range(20):
        at = DualPoint(np.zeros(0), rng.uniform(-2.0, 2.0, 3))
        a = lie_poisson_bracket(chart, obs["p1"], obs["p2"], at)
        b = lie_poisson_bracket(chart, obs["p2"], obs["p1"], at)
        assert a == -b
        cyc = (lie_poisson_bracket(chart, inner[("p1", "p2")], obs["p3"], at)
               + lie_poisson_bracket(chart, inner[("p2", "p3")], obs["p1"], at)
               - lie_poisson_bracket(chart, inner[("p1", "p3")], obs["p2"], at))
        assert abs(cyc) < 1e-14


# anchor and bracket that are not a Lie algebroid: the Jacobiator of the
# linear bracket is of order one
NON_JACOBI = """\
system non_jacobi
base [q]
fiber [a, b, c]
anchor { a -> (1); b -> (q); c -> (0) }
bracket { [a, b] = c; [b, c] = q * a; [a, c] = 2 * b }
lagrangian = 0.5 * (a^2 + b^2 + c^2)
"""


def _observables(names, rng):
    """Three nonlinear observables in random coordinates, so that the
    Hessian terms of the nested brackets are present."""
    a, b, c, d = rng.choice(names, 4, replace=len(names) < 4)
    return [parse_expression(text) for text in
            (f"{a} * {b}^2 + sin({c})", f"{c} * {d} - 0.5 * {a}^3",
             f"exp(0.3 * {d}) * {b} + {a}")]


class _Nested:
    """{G, H} as an observable whose gradients are central differences."""

    def __init__(self, chart, G, H):
        self.chart, self.G, self.H = chart, G, H

    def gradients(self, at):
        m = self.chart.m

        def packed(v):
            return lie_poisson_bracket(self.chart, self.G, self.H, DualPoint(v[:m], v[m:]))

        g = _fd_gradient(packed, np.concatenate([at.x, at.p]))
        return g[:m], g[m:]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobi_residual_vanishes_on_sweep_charts(seed):
    workloads = perfbench_workloads()
    rng = np.random.default_rng(seed)
    for k in range(5):
        chart = chart_from_spec(parse_system(
            workloads.generate_model(rng, k, f"sweep_k{k}").text))
        names = chart.base_names + chart.momentum_names
        for _ in range(5):
            at = DualPoint(rng.uniform(-1.0, 1.0, chart.m), rng.uniform(-1.0, 1.0, chart.n))
            F, G, H = _observables(names, rng)
            assert abs(jacobi_residual(chart, F, G, H, at)) <= 1e-12


@pytest.mark.parametrize("pid", preset_ids())
def test_jacobi_residual_vanishes_on_presets(pid):
    chart = chart_from_spec(load_preset(pid).spec)
    names = chart.base_names + chart.momentum_names
    rng = np.random.default_rng(11)
    for _ in range(5):
        at = DualPoint(rng.uniform(0.5, 1.0, chart.m), rng.uniform(-1.0, 1.0, chart.n))
        F, G, H = _observables(names, rng)
        assert abs(jacobi_residual(chart, F, G, H, at)) <= 1e-12


def test_jacobi_residual_matches_nested_differences_off_a_lie_algebroid():
    chart = chart_from_spec(parse_system(NON_JACOBI))
    names = chart.base_names + chart.momentum_names
    rng = np.random.default_rng(4)
    sizes = []
    for _ in range(5):
        at = DualPoint(rng.uniform(-1.0, 1.0, 1), rng.uniform(-1.0, 1.0, 3))
        F, G, H = _observables(names, rng)
        exact = jacobi_residual(chart, F, G, H, at)
        reference = (lie_poisson_bracket(chart, F, _Nested(chart, G, H), at)
                     + lie_poisson_bracket(chart, G, _Nested(chart, H, F), at)
                     + lie_poisson_bracket(chart, H, _Nested(chart, F, G), at))
        assert exact == pytest.approx(reference, abs=1e-6)
        sizes.append(abs(exact))
    assert max(sizes) > 0.1
    # on the coordinates alone: {q, {p1, p2}} + {p1, {p2, q}} + {p2, {q, p1}} = 1
    q, p1, p2 = (parse_expression(nm) for nm in ("q", "p1", "p2"))
    at = DualPoint(np.array([0.4]), np.array([0.2, -0.7, 0.5]))
    assert jacobi_residual(chart, q, p1, p2, at) == 1.0


def test_omega_E_blocks():
    chart = chart_from_spec(parse_system(SO3))
    at = DualPoint(np.zeros(0), np.array([1.0, 2.0, 3.0]))
    omega = omega_E_matrix(chart, at)
    n = 3
    assert omega.shape == (2 * n, 2 * n)
    assert_allclose(omega + omega.T, np.zeros((2 * n, 2 * n)), atol=0)
    assert_allclose(omega[:n, n:], np.eye(n), atol=0)
    assert_allclose(omega[n:, :n], -np.eye(n), atol=0)
    assert_allclose(omega[n:, n:], np.zeros((n, n)), atol=0)
    cp = np.einsum("cab,c->ab", chart.structure(at.x), at.p)
    assert_allclose(omega[:n, :n], cp, atol=0)


def _walked_tensors(spec, x):
    """rho, C and their Jacobians by the tree walk, entry by entry."""
    m, n = spec.m, spec.n
    env = dict(spec.params)
    env.update(zip(spec.base, (float(c) for c in x)))
    rho, cs = np.zeros((m, n)), np.zeros((n, n, n))
    drho, dcs = np.zeros((m, n, m)), np.zeros((n, n, n, m))
    for a, row in enumerate(spec.anchor):
        for i, entry in enumerate(row):
            rho[i, a] = evaluate(entry, env)
            if m:
                drho[i, a] = grad(entry, spec.base, env)
    for (a, b), coeffs in spec.bracket.items():
        for c, coef in enumerate(coeffs):
            v = evaluate(coef, env)
            cs[c, a, b], cs[c, b, a] = v, -v
            if m:
                g = grad(coef, spec.base, env)
                dcs[c, a, b], dcs[c, b, a] = g, -g
    return rho, cs, drho, dcs


@pytest.mark.parametrize("pid", preset_ids())
def test_generated_chart_tensors_equal_the_tree_walk_bit_for_bit(pid):
    spec = load_preset(pid).spec
    chart = chart_from_spec(spec)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, size=chart.m)
        got = (chart.rho(x), chart.structure(x), chart.rho_jacobian(x),
               chart.structure_jacobian(x))
        for g, w in zip(got, _walked_tensors(spec, x)):
            # tobytes also tells -0.0 from 0.0
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_chart_jacobian_names_the_undefined_derivative():
    # sqrt(q) is 0 at q = 0, its partial 1/(2 sqrt(q)) is undefined there;
    # q is the second base name, so the label comes from the slot's position
    spec = parse_system("""\
system sqrtq
base [s, q]
fiber [v]
anchor { v -> (1, sqrt(q)) }
lagrangian = 0.5*v^2
""")
    chart = chart_from_spec(spec)
    x = np.array([1.0, 0.0])
    assert chart.rho(x).tolist() == [[1.0], [0.0]]
    with pytest.raises(EvalDomainError) as err:
        chart.rho_jacobian(x)
    assert str(err.value) == "derivative with respect to 'q' is undefined at node <root>"


def test_chart_domain_error_is_the_walks():
    # the partial 1/q of ln(q) is defined at q = -1, the entry is not
    spec = parse_system("""\
system logq
base [q]
fiber [v]
anchor { v -> (ln(q)) }
lagrangian = 0.5*v^2
""")
    chart = chart_from_spec(spec)
    assert chart.rho_jacobian(np.array([2.0]))[0, 0, 0] == 0.5
    for f in (chart.rho, chart.rho_jacobian):
        with pytest.raises(EvalDomainError) as err:
            f(np.array([-1.0]))
        assert str(err.value) == "ln of non-positive value -1.0 at node ln"
        assert err.value.path == "ln"
