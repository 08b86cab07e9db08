"""The benchmark scripts still fit the library they drive.

perfbench/spans.py patches functions of the amech modules by name, and
perfbench/percall.py calls library functions with fixed signatures; a rename
or a signature change in the library would otherwise surface only as a crash
of the next benchmark run.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from amech import presets, vakonomic
from amech.algebroid import chart_from_spec, check_structure
from amech.dynamics import EPoint, LagrangianSystem, cartan, system_from_spec
from amech.presym import (hamiltonian_problem_from_lagrangian, lagrangian_problem,
                          run_constraint_algorithm)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
# set to 1 by perfbench/run.py when it is imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# perfbench scripts import each other by these top-level names
PERFBENCH_MODULES = ("percall", "run", "calibrate")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("layer,mod_name,attr", spans.TARGETS,
                         ids=[f"{m}:{a}" for _, m, a in spans.TARGETS])
def test_target_resolves(layer, mod_name, attr):
    assert layer in spans.LAYERS
    mod = importlib.import_module(mod_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # patched on the class, so it must be defined there, not inherited
        assert name in vars(getattr(mod, owner_name))
    else:
        assert callable(getattr(mod, name))


def test_nested_pairs_name_wrapped_targets():
    keys = {f"{layer}.{attr}" for layer, _, attr in spans.TARGETS}
    for child, parent in spans.NESTED:
        assert child in keys and parent in keys


def test_a_wrapped_spec_chart_counts_every_tensor_call():
    # the traced run wraps each chart chart_from_spec builds by rebinding its
    # rho, structure and Jacobian attributes; every library call must reach them
    spec = presets.load("capri_kobayashi").spec
    tracer = spans.Tracer()
    chart = spans._wrap_chart(tracer, chart_from_spec(spec))
    x = np.full(spec.m, 0.3)
    check_structure(chart, x)
    cartan(LagrangianSystem(chart, spec.lagrangian), EPoint(x, np.full(spec.n, 0.2)))
    calls = {name: tracer.stats(f"algebroid.{name}")[0]
             for name in ("rho", "structure", "rho_jacobian", "structure_jacobian")}
    assert calls == {"rho": 2, "structure": 2, "rho_jacobian": 1, "structure_jacobian": 1}


@pytest.fixture
def percall(monkeypatch):
    for var in BLAS_VARS:
        # recorded now, so teardown restores the value or unsets the variable
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = [name for name in PERFBENCH_MODULES if name in sys.modules]
    yield importlib.import_module("percall")
    for name in PERFBENCH_MODULES:
        if name not in loaded:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("pid", presets.ids())
def test_percall_functions_run_on_every_preset(percall, pid):
    calls = percall.calls_of(pid)
    assert calls and set(calls) <= set(percall.ROWS)
    for fn in calls.values():
        fn()


@pytest.mark.parametrize("side", ["lagrangian", "hamiltonian"])
def test_wrapped_problem_keeps_its_exact_jacobian(side):
    # the traced run rebuilds each problem with dataclasses.replace; the
    # level fields must still find alpha_jacobian there, or the traced
    # constraint algorithm would difference what the untraced run does not
    sys = system_from_spec(presets.load("capri_kobayashi").spec)
    if side == "lagrangian":
        problem = lagrangian_problem(sys)
    else:
        problem, _ = hamiltonian_problem_from_lagrangian(sys)
    wrapped = spans._wrap_problem(spans.Tracer(), problem)
    assert wrapped.alpha_jacobian is not None
    assert wrapped.alpha_jacobian is problem.alpha_jacobian
    rng = np.random.default_rng(3)
    seeds = [rng.uniform(0.6, 1.4, problem.d) for _ in range(3)]
    assert (run_constraint_algorithm(wrapped, seeds).report()
            == run_constraint_algorithm(problem, seeds).report())


@pytest.mark.parametrize("pid", [pid for pid in presets.ids()
                                 if "vakonomic" in presets.load(pid).facts["modes"]])
def test_one_vakonomic_ode_rhs_reaches_each_traced_name_once(pid, monkeypatch):
    # the traced run patches the module-level vakonomic_rhs and the class's
    # _PointData.__init__; vakonomic_rhs.us_per_call and hessians_per_rhs
    # count per call of the first, so ode_rhs must reach each exactly once
    sys = vakonomic.vakonomic_from_spec(presets.load(pid).spec)
    reached = []
    real_rhs, real_init = vakonomic.vakonomic_rhs, vakonomic._PointData.__init__

    def rhs(*args):
        reached.append("vakonomic_rhs")
        return real_rhs(*args)

    def init(self, *args):
        reached.append("_PointData.__init__")
        real_init(self, *args)

    monkeypatch.setattr(vakonomic, "vakonomic_rhs", rhs)
    monkeypatch.setattr(vakonomic._PointData, "__init__", init)
    sys.ode_rhs(0.0, np.full(len(sys.state_labels), 0.2))
    assert sorted(reached) == ["_PointData.__init__", "vakonomic_rhs"]
