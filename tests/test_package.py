"""The package's public surface.

`import webgeo` loads none of its modules; each name of ``__all__`` and
each module is imported when it is first read.  The surface stays that of
an eager package: ``from webgeo import X``, ``from webgeo import *``,
``__all__``, ``dir(webgeo)`` and ``webgeo.<module>``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import webgeo

SRC = Path(webgeo.__file__).resolve().parents[1]


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
