"""The public API has no stale entries: every name a module exports exists,
and the package re-exports only names its modules export."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import meridian4
from meridian4.families import FamilySpec

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


SRC = pathlib.Path(meridian4.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # an import that the module neither reads nor exports is dead
    tree = ast.parse((SRC / f"{name}.py").read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(f"meridian4.{name}"), "__all__", ()))
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert [n for n in imported if n not in read and n not in exported] == []


def _bound(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_module_name_is_read():
    # a module-level _name that no line of the package reads is dead
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = [(stem, name) for stem, tree in trees.items() for node in tree.body
               for name in _bound(node) if name.startswith("_") and not name.startswith("__")]
    assert [p for p in private if p[1] not in read] == []


def test_every_record_slot_is_read():
    # a field of a package class that no line of the package reads is dead
    read = {node.attr for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    slots = [f"{name}.{obj.__name__}.{slot}" for name in MODULES
             for obj in vars(importlib.import_module(f"meridian4.{name}")).values()
             if isinstance(obj, type) and obj.__module__ == f"meridian4.{name}"
             for slot in vars(obj).get("__slots__", ())]
    assert [s for s in slots if s.rpartition(".")[2] not in read] == []


def _subclasses(cls):
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


def test_only_families_and_cli_name_a_family():
    # a family's behaviour lives on its spec class; any other module that
    # names one branches on the family
    families = {c.__name__ for c in _subclasses(FamilySpec)}
    named = sorted(
        (path.stem, name) for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("families", "cli", "__init__")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None)]
        if name in families)
    assert named == []
