"""The vakonomic point data comes from one generated call per point, built
once per spec: bit-equal to the per-function derivatives, and derived and
generated only on the first use of a spec."""

import copy

import numpy as np
import pytest

from amech import expr, vakonomic
from amech.algebroid import chart_from_spec
from amech.cli import main
from amech.dsl import with_params
from amech.presets import ids as preset_ids, load as load_preset
from amech.vakonomic import vakonomic_from_spec

VAK_PRESETS = [pid for pid in preset_ids() if "vakonomic" in load_preset(pid).facts["modes"]]

# used by no other test, so its chart code is generated here first
MODEL = """\
system point_chart
base [s, r]
fiber [u, w]
anchor { u -> (1, 0); w -> (0, r) }
bracket { [u, w] = s*u }
params { k = 0.75 }
lagrangian = 0.5*(u^2 + w^2) - k*cos(s)*r^2
"""


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


def _assert_matches_per_function(sys, d, x, ya):
    m = sys.chart.m
    v = np.concatenate([x, ya])
    value, g, h = sys._lt.derivatives(v)
    assert _bits(d.lt_value) == _bits(value)
    assert _bits(d.ltx) == _bits(g[:m]) and _bits(d.lty) == _bits(g[m:])
    assert _bits(d.ltxy) == _bits(h[:m, m:]) and _bits(d.ltyy) == _bits(h[m:, m:])
    jets = [f.derivatives(v) for f in sys._psi]
    assert _bits(d.psi_value) == _bits([jet[0] for jet in jets])
    for j, (_, gj, hj) in enumerate(jets):
        assert _bits(d.psix[j]) == _bits(gj[:m]) and _bits(d.psiy[j]) == _bits(gj[m:])
        assert _bits(d.psixy[j]) == _bits(hj[:m, m:])
        assert _bits(d.psiyy[j]) == _bits(hj[m:, m:])


@pytest.mark.parametrize("pid", VAK_PRESETS)
def test_fused_point_data_is_bit_equal_to_the_per_function_derivatives(pid):
    sys = vakonomic_from_spec(load_preset(pid).spec)
    for x, ya, palpha in _points(sys, 12, seed=21):
        _assert_matches_per_function(sys, vakonomic._PointData(sys, x, ya, palpha), x, ya)


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
    model = tmp_path / "point_chart.amech"
    model.write_text(MODEL)
    generated, _ = _counting_generate(monkeypatch)
    argv = ["simulate", str(model), "--mode", "el", "--t1", "0.01",
            "--out", str(tmp_path / "t.csv"), "--manifest", str(tmp_path / "m.json")]
    assert main(argv) == 0
    base = ("s", "r")
    assert base in generated
    del generated[:]
    assert main(argv) == 0
    assert base not in generated


def test_charts_of_one_spec_share_their_code():
    spec = load_preset("plate_ball").spec
    a, b = chart_from_spec(spec), chart_from_spec(spec)
    assert a is not b
    assert a.rho is b.rho and a.structure is b.structure
    assert a._rho_jacobian is b._rho_jacobian
    assert a._structure_jacobian is b._structure_jacobian
