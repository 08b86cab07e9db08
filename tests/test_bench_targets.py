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

import pytest

from amech import presets

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
