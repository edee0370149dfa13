"""Each command loads only the modules it runs; those that make no lane
vector run without numpy.

Each case runs one command in a fresh interpreter, then lists the
``webgeo`` modules and the ``numpy.*`` modules loaded by then: importing
numpy always loads some, while the unexecuted lazy ``numpy`` module that
webgeo installs loads none.  `--help` and usage errors build the parser
alone, without even ``dataclasses``.  The same interpreter then runs a grid
command, which must load numpy and give the report bytes pinned below.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import webgeo

SRC = Path(webgeo.__file__).resolve().parents[1]

#: The README's `flex --grid` command and the SHA-256 of its report.
FLEX_GRID = ["flex", "--f", "x + sqrt(x^2 - y)", "--grid", "1.5:2.5:0:1:20:20"]
FLEX_GRID_SHA256 = "b1fdb010588eabe2992b924e80e053c71cbaa136dd2614621579526645be1333"

SCRIPT = """
import contextlib, hashlib, io, json, sys
from webgeo.cli import run

def quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()

def modules(prefix):
    return sorted(name for name in sys.modules if name.startswith(prefix))

argv, grid_argv = json.loads(sys.argv[1])
code, _ = quiet(argv)
loaded = modules("numpy.")
webgeo_loaded = modules("webgeo")
dataclasses_loaded = "dataclasses" in sys.modules
grid_code, text = quiet(grid_argv)
print(json.dumps({
    "code": code,
    "numpy_modules": loaded,
    "webgeo_modules": webgeo_loaded,
    "dataclasses": dataclasses_loaded,
    "grid_code": grid_code,
    "grid_loads_numpy": bool(modules("numpy.")),
    "grid_sha256": hashlib.sha256(text.encode()).hexdigest(),
}))
"""

WEB4 = "x; y; x+y; x*y"

#: The modules of webgeo, besides the package and ``cli``, that each kind
#: of command loads.
PARSER = ()
FORMULA = ("exprlang", "taylor")
TRACING = ("exprlang", "render", "taylor")
EULER = ("eulerweb", "exprlang", "geodesy", "geometry", "render", "taylor")
FIT = ("exprlang", "geodesy", "geometry", "projective", "render", "taylor")

CASES = {
    "help": (["--help"], 0, PARSER),
    "usage-error": (["flex"], 2, PARSER),
    "formula-syntax-error": (["flex", "--f", "x+", "--grid", "0:1:0:1:3:3"], 2, FORMULA),
    "graph-syntax-error": (
        ["geodesic", "--web", "x; y", "--christoffel", "graph:x^", "--grid", "0:1:0:1:3:3"],
        2,
        FORMULA,
    ),
    "render": (
        ["render", "--web", "x; y; x+y", "--domain", "0:1:0:1", "--levels", "5",
         "--svg", "web.svg"],
        0,
        TRACING,
    ),
    "lingen": (
        ["lingen", "--data=-2*sqrt(-y)", "--lambda=-16:-0.04", "--domain=-2:2:-4:2",
         "--leaves", "9", "--svg", "web.svg"],
        0,
        EULER,
    ),
    "fit-point": (["fit", "--web", WEB4, "--point", "2,1"], 0, FIT),
    "euler-point": (["euler", "--w", "y/(1 - x)", "--point", "0.5,2"], 0, EULER),
    "euler-point-pi": (
        ["euler", "--w", "y/(1 - x)", "--point", "0.5,2", "--pi", "0.5,-1.25,0.75,2"],
        0,
        EULER,
    ),
}


@pytest.mark.parametrize("argv, code, modules", CASES.values(), ids=CASES.keys())
def test_command_runs_without_numpy(argv, code, modules, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([argv, FLEX_GRID])],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == code
    assert result["numpy_modules"] == []
    assert result["webgeo_modules"] == sorted(
        ["webgeo", "webgeo.cli", *(f"webgeo.{m}" for m in modules)]
    )
    if modules == PARSER:
        assert not result["dataclasses"]
    assert result["grid_code"] == 0
    assert result["grid_loads_numpy"]
    assert result["grid_sha256"] == FLEX_GRID_SHA256
