"""Every function the traced benchmark run wraps still exists by that name.

perfbench/spans.py patches functions of the amech modules by name; a rename in
the library would otherwise surface only as a crash of the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
