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


# Oracles and one-row wrappers that live beside the tests, not in the package,
# exchange-format helpers that no library or CLI code calls, and the wrapper types
# and helpers that a plain array or their one caller replaced.
REMOVED = ["QuadratureRule", "frechet1_log_quadrature", "frechet2_log_quadrature", "frechet_power_quadrature",
           "finite_difference_check", "sandwiched_dual_optimizer", "sandwiched_variational_objective",
           "d_log", "d_power", "apply_scalar_function", "estimate_rho", "estimate_sigma",
           "record_from_json", "povm_to_json", "load_matrix", "read_rows_csv",
           "support_projector", "moore_penrose_inverse", "loewner_leq", "classical_kl", "sample_gaussian_limit",
           "masked_log_trace", "BlochVector", "TestOutcome", "LimitDirection",
           "MeasurementRecord", "sample_record", "estimate", "record_to_json", "support_contained",
           "HermitianOperator", "DensityOperator"]


def test_removed_names_stay_out_of_the_package():
    modules = [qdivstat] + [importlib.import_module(f"qdivstat.{name}") for name in MODULES]
    assert not [(m.__name__, name) for m in modules for name in REMOVED if hasattr(m, name)]
    src = Path(qdivstat.__file__).parent
    assert not [p.name for p in src.rglob("*.py") if "quadrature" in p.read_text()]


# Tolerance keywords: every threshold is a module constant.  These keep theirs,
# because callers pass more than one value.
TOLERANCE_KEYWORDS = {"tol", "rel_tol", "atol", "trace_atol", "eig_atol", "support_tol", "confidence_z"}
KEPT_KEYWORDS = {("hermitian_part", "atol"), ("density_spectrum", "eig_atol")}


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


# Public functions and classes that no library code calls, each kept for the reason given.
PAPER_QUANTITIES = {
    "von_neumann_entropy": "S(rho), whose limit law vn_entropy_limit gives",
    "trivial_povm": "the one-outcome POVM, under which every measured divergence is 0",
    "min_eigenvalue_bound": "the paper's b in the threshold c = 2 d Q^-1(tau) |log b|",
    "measured_alt_limit": "the measured relative entropy's alternative limit functional",
    "qre_alt_commutative": "closed form of the relative-entropy alternative limit for commuting states",
    "qre_null_commutative": "closed form of the relative-entropy null limit for commuting states",
    "petz_alt_commutative": "closed form of the Petz alternative limit for commuting states",
    "petz_null_commutative": "closed form of the Petz null limit for commuting states",
    "schatten_norm": "the Schatten p-norms in which the paper states its bounds",
    "project_to_density": "the nearest density operator, the estimator's projection branch for one matrix",
    "reconstruct": "the raw tomographic reconstruction (1/d)(I + sum_j s_j gamma_j)",
    "variance_v1": "the paper's one-sample variance V1",
    "variance_v2": "the paper's two-sample variance V2",
    "random_density": "random states for the demos and the acceptance suite",
    "random_density_spectrum": "random states of a given spectrum, for hard-spectrum checks",
    "random_traceless": "random tomography directions for the limit functionals",
}


def _library_references() -> set[tuple[str, str | None, str]]:
    """(module, enclosing top-level definition or None, name) for each name or attribute the library reads.

    Docstrings, ``__all__`` strings and import lists are not references.
    """
    found = set()
    for path in Path(qdivstat.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    found.add((path.stem, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    found.add((path.stem, owner, node.attr))
    return found


def test_every_public_definition_has_a_library_caller():
    refs = _library_references()
    uncalled = set()
    for name in MODULES:
        module = importlib.import_module(f"qdivstat.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and not any(
                    ref == attr and (mod, owner) != (name, attr) for mod, owner, ref in refs):
                uncalled.add(attr)
    assert not uncalled - PAPER_QUANTITIES.keys(), "public, but no library code calls it"
    assert not PAPER_QUANTITIES.keys() - uncalled, "on the allowlist, but called by the library or gone"
