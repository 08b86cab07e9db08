"""Every name a module exports is defined: moved or deleted names must leave
the package's `__all__` lists with them."""

import importlib
import pkgutil

import pytest

import amech

MODULES = ["amech"] + [f"amech.{info.name}" for info in pkgutil.iter_modules(amech.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
