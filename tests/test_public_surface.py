"""The exported names: what `fgext` and its modules promise to callers."""

import ast
import dataclasses
import importlib
import pathlib

import pytest

import fgext
from fgext import errors

MODULES = ["bounds", "channels", "extend", "fgs", "io", "matalg", "oracle", "solver", "verify"]

#: Public names removed from the API: aliases, a pass-through wrapper,
#: routines without a caller, constants that restated RunConfig's defaults
#: and exception classes that named a failure another class names.
REMOVED = [
    ("extend", "one_sided_feasibility"),
    ("bounds", "binary_entropy"),
    ("fgs", "e_cq"),
    ("fgs", "hamiltonian_from_cm"),
    ("errors", "SingularStateError"),
    ("errors", "OutOfRangeError"),
    ("errors", "DimensionOddError"),
    ("errors", "OddSubsetError"),
    ("errors", "IndexOutOfRangeError"),
    ("errors", "NegativeDeterminantError"),
    ("errors", "NotFeasibleError"),
    ("oracle", "dense_product"),
    ("config", "EPS_PSD"),
    ("config", "EPS_FEAS"),
    ("", "e_cq"),
    ("", "hamiltonian_from_cm"),
    ("", "one_sided_feasibility"),
]


def package_imports():
    """(module, name) for every `from .module import name` in fgext/__init__.py."""
    tree = ast.parse(pathlib.Path(fgext.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"fgext.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_listed_names():
    unlisted = [
        (module, name)
        for module, name in package_imports()
        # config holds RunConfig and is_count and keeps no __all__
        if module != "config"
        and name not in importlib.import_module(f"fgext.{module}").__all__
    ]
    assert unlisted == []


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    mod = importlib.import_module(f"fgext.{module}" if module else "fgext")
    assert not hasattr(mod, name)


def test_definetti_report_has_no_trace_upper_alias():
    assert not hasattr(fgext.definetti_bounds(1, 1, 2, 2), "trace_upper")


def test_run_config_holds_only_what_the_library_reads():
    assert [f.name for f in dataclasses.fields(fgext.RunConfig)] == ["eps_psd", "eps_feas", "max_iters"]


def test_errors_name_each_failure_once():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {
        "FgextError",
        "DimensionMismatchError",
        "NotAntisymmetricError",
        "NotBonaFideError",
        "NotCPError",
        "InvalidParameterError",
        "TooManyModesError",
        "WrongSplitError",
        "SolverStalledError",
        "ParseError",
    }
    assert issubclass(errors.NotCPError, errors.NotBonaFideError)


def raised_names(path):
    """The class named by each `raise C(...)` or `raise C` in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_refusal_is_a_package_error():
    # a builtin exception would leave cli.main as a traceback, exit 1, read as "infeasible"
    sources = sorted(pathlib.Path(fgext.__file__).parent.glob("*.py"))
    named = [(path.name, name) for path in sources for name in raised_names(path)]
    assert len(named) > 50
    assert [(f, name) for f, name in named if not issubclass(getattr(errors, name, Exception), errors.FgextError)] == []
