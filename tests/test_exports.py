import importlib
import pkgutil

import pytest

import resonant_kg

MODULES = ["resonant_kg"] + [f"resonant_kg.{m.name}"
                             for m in pkgutil.iter_modules(resonant_kg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [item for item in exported if not hasattr(module, item)] == []
