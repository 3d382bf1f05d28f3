"""Exports: no ``__all__`` names a missing object, and the package re-exports only exported names."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import qdivstat

MODULES = [info.name for info in pkgutil.iter_modules(qdivstat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qdivstat.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_reexports_are_in_module_all():
    tree = ast.parse(inspect.getsource(qdivstat))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"qdivstat.{node.module}").__all__
        public = [alias.name for alias in node.names if not alias.name.startswith("_")]
        assert not [name for name in public if name not in exported], node.module
