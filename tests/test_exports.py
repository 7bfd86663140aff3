"""Every name a module exports in `__all__` is bound, so a deleted function
cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import kdcover

MODULES = ["kdcover"] + [f"kdcover.{info.name}" for info in pkgutil.iter_modules(kdcover.__path__)
                         if info.name != "__main__"]  # importing it runs the CLI


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_is_bound(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
