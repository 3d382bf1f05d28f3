"""Exports: no ``__all__`` names a missing object, and the package re-exports only exported names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# Oracles and one-row wrappers that live beside the tests, not in the package.
REMOVED = ["QuadratureRule", "frechet1_log_quadrature", "frechet2_log_quadrature", "frechet_power_quadrature",
           "finite_difference_check", "sandwiched_dual_optimizer", "sandwiched_variational_objective",
           "d_log", "d_power", "apply_scalar_function", "estimate_rho", "estimate_sigma"]


def test_removed_names_stay_out_of_the_package():
    modules = [qdivstat] + [importlib.import_module(f"qdivstat.{name}") for name in MODULES]
    assert not [(m.__name__, name) for m in modules for name in REMOVED if hasattr(m, name)]
    src = Path(qdivstat.__file__).parent
    assert not [p.name for p in src.rglob("*.py") if "quadrature" in p.read_text()]
