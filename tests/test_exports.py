import ast
import importlib
import pkgutil
from pathlib import Path

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


def _names(node) -> set:
    """Names that the code under node reads: Name ids and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_package_defines_only_what_it_runs():
    # a top-level function or class that no other statement of the package
    # names is reached by tests only (imports and __all__ strings are not
    # references); such code belongs in tests/, next to the oracles
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(resonant_kg.__file__).parent.glob("*.py"))}
    statements = [(stmt, _names(stmt)) for tree in trees.values() for stmt in tree.body]
    unreferenced = {f"{module}.{node.name}"
                    for module, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not any(node.name in names for stmt, names in statements
                                if stmt is not node)}
    assert unreferenced == set()
