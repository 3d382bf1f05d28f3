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


# Oracles and one-row wrappers that live beside the tests, not in the package, and
# exchange-format helpers that no library or CLI code calls.
REMOVED = ["QuadratureRule", "frechet1_log_quadrature", "frechet2_log_quadrature", "frechet_power_quadrature",
           "finite_difference_check", "sandwiched_dual_optimizer", "sandwiched_variational_objective",
           "d_log", "d_power", "apply_scalar_function", "estimate_rho", "estimate_sigma",
           "record_from_json", "povm_to_json", "load_matrix", "read_rows_csv"]


def test_removed_names_stay_out_of_the_package():
    modules = [qdivstat] + [importlib.import_module(f"qdivstat.{name}") for name in MODULES]
    assert not [(m.__name__, name) for m in modules for name in REMOVED if hasattr(m, name)]
    src = Path(qdivstat.__file__).parent
    assert not [p.name for p in src.rglob("*.py") if "quadrature" in p.read_text()]


# Tolerance keywords: every threshold is a module constant.  These keep theirs,
# because callers pass more than one value.
TOLERANCE_KEYWORDS = {"tol", "rel_tol", "atol", "trace_atol", "eig_atol", "support_tol", "confidence_z"}
KEPT_KEYWORDS = {("hermitian_part", "atol"), ("support_contained", "tol"), ("loewner_leq", "tol"),
                 ("density_spectrum", "eig_atol")}


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # a class that keeps a builtin constructor, such as an exception
        return {}


def test_no_public_signature_takes_a_tolerance():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"qdivstat.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            found += [(name, attr, p) for p in _parameters(obj)
                      if p in TOLERANCE_KEYWORDS and (attr, p) not in KEPT_KEYWORDS]
    assert not found
