"""The package's public surface.

`import webgeo` loads none of its modules; each name of ``__all__`` and
each module is imported when it is first read.  The surface stays that of
an eager package: ``from webgeo import X``, ``from webgeo import *``,
``__all__``, ``dir(webgeo)`` and ``webgeo.<module>``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.metadata
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import webgeo

SRC = Path(webgeo.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def test_every_public_name_is_the_object_its_module_defines():
    for name in webgeo.__all__:
        value = getattr(webgeo, name)
        home = webgeo._MODULE_OF.get(name)
        module = importlib.import_module(f"webgeo.{home}") if home else webgeo
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
    assert webgeo.geodesy.DEFAULT_TOLERANCE is webgeo.DEFAULT_TOLERANCE


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from webgeo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(webgeo.__all__)
    assert len(webgeo.__all__) == len(set(webgeo.__all__))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        webgeo.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from webgeo import no_such_name", {})


#: Second spellings of operations that have one: the jet operators and
#: methods, the sweeps that return their GridResiduals, the guarded
#: per-lane map that is taylor.per_lane_or_nan, GridResiduals' list
#: views of its samples and vectors, its block-by-block builder, and the
#: reductions that GridResiduals.summary replaced.
ALIASES = {
    "taylor": (
        "jet_add", "jet_sub", "jet_mul", "jet_div", "_ARITH", "jet_arith",
        "derivative_jet", "truncate_jet",
    ),
    "exprlang": ("_JET_OPS", "_math_lanes"),
    "projective": ("_fit_grid", "_symmetry_grid"),
}
COLUMN_ALIASES = (
    "raw", "normalized", "gradient_norm", "degenerate", "points", "columns", "add_block",
    "stats", "valid",
)


def test_each_operation_has_one_spelling():
    for module, names in ALIASES.items():
        module = getattr(webgeo, module)
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in webgeo.__all__ and name not in dir(webgeo), name
    with pytest.raises(ImportError, match="truncate_jet"):
        exec("from webgeo import truncate_jet", {})
    grid = webgeo.GridSpec(0.5, 1.0, 0.5, 1.0, 2, 2)
    fitted = webgeo.projective.fit_sweep(["x", "y", "x + y", "x - y"], grid)
    symmetric = webgeo.projective.symmetry_sweep("x + y", "x - y^2", grid)
    for name in COLUMN_ALIASES:
        assert not hasattr(webgeo.geodesy.GridResiduals, name), name
        assert not hasattr(fitted, name), name
    assert isinstance(fitted, webgeo.geodesy.GridResiduals) and len(fitted.vectors) == 4
    assert isinstance(symmetric, webgeo.geodesy.GridResiduals) and len(symmetric.vectors) == 2


SCRIPT = """
import json, sys
import webgeo
bare = sorted(name for name in sys.modules if name.startswith("webgeo"))
listed = set(webgeo.__all__) <= set(dir(webgeo))
geodesy = webgeo.geodesy
print(json.dumps({
    "bare": bare,
    "dir_lists_all": listed,
    "geodesy": geodesy is sys.modules["webgeo.geodesy"] and callable(geodesy.flex),
    "loaded": sorted(name for name in sys.modules if name.startswith("webgeo")),
}))
"""


def test_a_bare_import_loads_no_module_and_each_loads_when_read():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["bare"] == ["webgeo"]
    assert result["dir_lists_all"]
    assert result["geodesy"]
    assert result["loaded"] == [
        "webgeo", "webgeo.exprlang", "webgeo.geodesy", "webgeo.geometry", "webgeo.taylor",
    ]


# Every defaulted parameter of the public surface: the functions of
# ``__all__`` and the public methods (``__init__`` included) of its classes.
# A library parameter that no caller outside the tests and demos sets is a
# module constant instead, so a new one fails here until it is recorded.
DEFAULTED_PARAMETERS = {
    ("CharacteristicSolution.jet", "lam"): None,
    ("EvaluationError.__init__", "subexpression"): None,
    ("compose_report", "notes"): None,
    ("compose_report", "warnings"): None,
    ("geodesic_web_report", "christoffels"): None,
    ("geodesic_web_report", "curvature"): None,
    ("geodesic_web_report", "surface"): None,
    ("geodesic_web_report", "thomas"): None,
    ("geodesic_web_report", "tolerance"): webgeo.DEFAULT_TOLERANCE,
    ("jet_elementary", "exponent"): None,
    ("trace_level_curve", "foliation_index"): 0,
    ("trace_level_curve", "step"): 1e-3,
}


def _public_callables():
    for name in webgeo.__all__:
        value = getattr(webgeo, name)
        if inspect.isclass(value):
            for attr, member in vars(value).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(value):
            yield name, value


def test_the_defaulted_public_parameters_are_the_recorded_ones():
    found = {
        (qualname, parameter.name): parameter.default
        for qualname, fn in _public_callables()
        for parameter in inspect.signature(fn).parameters.values()
        if parameter.default is not inspect.Parameter.empty
    }
    assert found == DEFAULTED_PARAMETERS


def _distribution(requirement: str) -> str:
    """The normalized distribution name of a requirement such as ``numpy>=1.24``."""
    return re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9._-]+", requirement).group()).lower()


def _third_party_imports() -> set[str]:
    """The top-level modules the test files import that are neither in the
    standard library nor webgeo nor a test file."""
    local = {"webgeo"} | {path.stem for path in TESTS.rglob("*.py")}
    found = set()
    for path in TESTS.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - local - set(sys.stdlib_module_names)


def test_every_module_the_tests_import_is_a_declared_dependency():
    """``pip install -e ".[test]"`` installs every module a test imports, so
    no test module fails to collect on a fresh install."""
    tomllib = pytest.importorskip("tomllib")
    with open(TESTS.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {_distribution(r) for r in requirements}
    distributions = importlib.metadata.packages_distributions()
    modules = _third_party_imports()
    assert {"numpy", "pytest", "hypothesis", "sympy"} <= modules
    for module in sorted(modules):
        assert {_distribution(d) for d in distributions.get(module, [module])} & declared, module
