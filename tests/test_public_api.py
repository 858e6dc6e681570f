"""The public API has no stale entries: every name a module exports exists,
and the package re-exports only names its modules export."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import meridian4

MODULES = sorted(m.name for m in pkgutil.iter_modules(meridian4.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"meridian4.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(meridian4.__file__).read_text())
    stale = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"meridian4.{node.module}")
            exported = getattr(module, "__all__", None)
            stale += [(node.module, a.name) for a in node.names
                      if exported is None or a.name not in exported]
    assert stale == []
