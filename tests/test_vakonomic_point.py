"""The vakonomic point data comes from one generated call per point, built
once per spec: bit-equal to the same fields assembled in numpy from the
per-function derivatives, and derived and generated only on the first use of
a spec."""

import copy

import numpy as np
import pytest

from amech import expr, vakonomic
from amech.algebroid import chart_from_spec
from amech.cli import main
from amech.dsl import parse_system, with_params
from amech.expr import ScalarFunction
from amech.presets import ids as preset_ids, load as load_preset
from amech.vakonomic import vakonomic_from_spec
from strategies import perfbench_workloads

VAK_PRESETS = [pid for pid in preset_ids() if "vakonomic" in load_preset(pid).facts["modes"]]

def _fresh(pid):
    # a deep copy keeps no code or partial trees, so the first use builds them
    return copy.deepcopy(load_preset(pid).spec)


def _points(sys, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng.uniform(-1.0, 1.0, sys.chart.m), rng.uniform(-1.0, 1.0, sys.n_free),
               rng.uniform(-1.0, 1.0, sys.n_constrained))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


FIELDS = ("lt_value", "y_full", "p_full", "lam", "R", "rhs", "xdot", "pdot", "h_w1")


def _reference(sys, x, ya, palpha):
    """Every _PointData field assembled in numpy from the per-function
    derivatives of Ltilde and Psi and the chart's rho and C: the formulas the
    point data and the right-hand side were built from before they became
    one generated call."""
    m, v = sys.chart.m, np.concatenate([x, ya])
    names, params = sys.chart.base_names + sys.free_names, sys.chart.params
    lt_value, g, h = ScalarFunction(names, expr=sys._lt, params=params).derivatives(v)
    jets = [ScalarFunction(names, expr=f, params=params).derivatives(v) for f in sys._psi]
    psi_value = np.array([jet[0] for jet in jets])
    psi_g = np.array([jet[1] for jet in jets]).reshape(len(jets), v.size)
    psi_h = np.array([jet[2] for jet in jets]).reshape(len(jets), v.size, v.size)
    order = np.argsort(sys.free + sys.constrained)
    con, free = sys._con_idx, sys._free_idx

    y_full = np.concatenate([ya, psi_value])[order]
    p_full = np.concatenate([g[m:] - palpha @ psi_g[:, m:], palpha])[order]
    lam = g[:m] - palpha @ psi_g[:, :m] if m else np.zeros(0)
    R = h[m:, m:] - np.einsum("b,bij->ij", palpha, psi_h[:, m:, m:]) if con.size \
        else h[m:, m:]

    rho, cs = sys.chart.rho(x), sys.chart.structure(x)
    xdot = rho @ y_full if m else np.zeros(0)
    cterm = np.einsum("bad,d,b->a", cs, y_full, p_full)
    pdot = (lam @ rho[:, con] if m else 0.0) - cterm[con]
    rhs = -cterm[free]
    if m:
        rhs = rhs + lam @ rho[:, free]
        mixed = h[:m, m:] - np.einsum("b,bia->ia", palpha, psi_h[:, :m, m:]) \
            if con.size else h[:m, m:]
        rhs = rhs - xdot @ mixed
    if con.size:
        rhs = rhs + pdot @ psi_g[:, m:]

    # H_W1 as the Pontryagin Hamiltonian summed it: the free part, then the
    # constrained part, then Ltilde. Its two dot products are spelled out
    # left to right: numpy's vector dot may fuse multiply-adds, depending on
    # the BLAS kernel the machine selects, so its last bit is not a reference
    free_part = con_part = 0.0
    for pa, y in zip(p_full[free].tolist(), ya.tolist()):
        free_part = free_part + pa * y
    for pb, psi in zip(palpha.tolist(), psi_value.tolist()):
        con_part = con_part + pb * psi
    h_w1 = free_part + con_part - lt_value
    return dict(lt_value=lt_value, y_full=y_full, p_full=p_full, lam=lam, R=R, rhs=rhs,
                xdot=xdot, pdot=pdot, h_w1=h_w1)


@pytest.mark.parametrize("pid", VAK_PRESETS)
def test_fused_point_data_is_bit_equal_to_the_per_function_derivatives(pid):
    sys = vakonomic_from_spec(load_preset(pid).spec)
    for x, ya, palpha in _points(sys, 40, seed=21):
        d, ref = vakonomic._PointData(sys, x, ya, palpha), _reference(sys, x, ya, palpha)
        for field in FIELDS:
            assert _bits(getattr(d, field)) == _bits(ref[field]), field


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_point_data_agrees_with_the_reference_on_sweep_charts(seed):
    # so(3) in a random unimodular basis times T R^k, with one constrained
    # velocity depending on the base and the other velocities; its sums have
    # several terms, which numpy may add in another order
    workloads = perfbench_workloads()
    rng = np.random.default_rng(seed)
    for k in range(3):
        model = workloads.generate_model(rng, k, f"sweep_vak_k{k}")
        c1, c2, c3 = rng.uniform(-1.0, 1.0, 3)
        psi = f"{c1:.4f}*f1*f2 + {c2:.4f}*f1^2 + {c3:.4f}*f2" + \
            "".join(f" + 0.3*sin(q{i + 1})*v{i + 1}" for i in range(k))
        sys = vakonomic_from_spec(parse_system(model.text + f"vakonomic {{ f3 = {psi} }}\n"))
        for x, ya, palpha in _points(sys, 20, seed=seed):
            d, ref = vakonomic._PointData(sys, x, ya, palpha), _reference(sys, x, ya, palpha)
            for field in FIELDS:
                got, want = np.asarray(getattr(d, field)), np.asarray(ref[field])
                scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, field


def _counting_generate(monkeypatch):
    """Patch expr.generate; returns (generated, calls): the names of every
    generate call and one entry per call of the code it returned."""
    generated, calls = [], []
    real = expr.generate

    def generate(names, *args):
        generated.append(tuple(names))
        fn = real(names, *args)
        return None if fn is None else lambda v: calls.append(1) or fn(v)

    monkeypatch.setattr(expr, "generate", generate)
    return generated, calls


@pytest.mark.parametrize("pid", VAK_PRESETS)
def test_one_generated_call_per_point(pid, monkeypatch):
    generated, calls = _counting_generate(monkeypatch)
    sys = vakonomic_from_spec(_fresh(pid))
    assert generated == []  # nothing is generated before the first point
    for k, (x, ya, palpha) in enumerate(_points(sys, 3, seed=8), start=1):
        vakonomic._PointData(sys, x, ya, palpha)
        assert len(calls) == k
    assert len(generated) == 1


def test_point_call_count_does_not_grow_with_the_constraints(monkeypatch):
    _, calls = _counting_generate(monkeypatch)
    counts = {}
    for pid in VAK_PRESETS:
        sys = vakonomic_from_spec(_fresh(pid))
        x, ya, palpha = next(_points(sys, 1, seed=2))
        del calls[:]
        vakonomic._PointData(sys, x, ya, palpha)
        counts[pid] = (sys.n_constrained, len(calls))
    assert {n for n, _ in counts.values()} >= {0, 1, 3}
    assert all(k == 1 for _, k in counts.values()), counts


@pytest.mark.parametrize("pid", VAK_PRESETS)
def test_a_second_system_of_a_kept_spec_derives_and_generates_nothing(pid, monkeypatch):
    spec = _fresh(pid)
    first = vakonomic_from_spec(spec)
    y = np.full(len(first.state_labels), 0.3)
    rhs = first.ode_rhs(0.0, y)
    derived = []
    real_derivative = expr.derivative
    monkeypatch.setattr(expr, "derivative",
                        lambda node, var, *memo: derived.append(var)
                        or real_derivative(node, var, *memo))
    generated, _ = _counting_generate(monkeypatch)
    second = vakonomic_from_spec(spec)
    assert _bits(second.ode_rhs(0.0, y)) == _bits(rhs)
    assert generated == [] and derived == []
    assert second._point is first._point


def test_with_params_builds_its_own_code():
    spec = load_preset("plate_ball").spec
    kept = vakonomic_from_spec(spec)
    moved = vakonomic_from_spec(with_params(spec, Omega=0.9))
    assert moved._point is not kept._point
    y = np.full(len(kept.state_labels), 0.3)
    assert _bits(moved.ode_rhs(0.0, y)) != _bits(kept.ode_rhs(0.0, y))


def test_a_repeated_simulate_generates_no_chart_code(tmp_path, monkeypatch):
    # a fresh generated model: validate and simulate --mode el generate L's
    # point code once between them, and a second identical simulate
    # generates no code at all
    model = perfbench_workloads().generate_model(np.random.default_rng(1803), 2,
                                                 "compiled_once")
    path = tmp_path / "compiled_once.amech"
    path.write_text(model.text)
    spec = parse_system(model.text)
    names = spec.base + spec.fiber
    generated, _ = _counting_generate(monkeypatch)
    common = ["--manifest", str(tmp_path / "m.json")]
    simulate = ["simulate", str(path), "--mode", "el", "--t1", "0.01",
                "--out", str(tmp_path / "t.csv"), *common]
    assert main(["validate", str(path), "--points", "3",
                 "--out", str(tmp_path / "v.json"), *common]) == 0
    assert main(simulate) == 0
    assert generated.count(names) == 1
    del generated[:]
    assert main(simulate) == 0
    assert generated == []


def test_charts_of_one_spec_share_their_code():
    spec = load_preset("plate_ball").spec
    a, b = chart_from_spec(spec), chart_from_spec(spec)
    assert a is not b
    assert a.rho is b.rho and a.structure is b.structure
    assert a._rho_jacobian is b._rho_jacobian
    assert a._structure_jacobian is b._structure_jacobian
