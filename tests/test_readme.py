"""The README's command line examples run, exit 0, repeat byte for byte,
and give the bytes pinned below."""

from __future__ import annotations

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from webgeo.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each `webgeo` command in the README's "Command line"
    block, with lines ending in a backslash joined to the next."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words:
            assert words[0] == "webgeo", line
            commands.append(words[1:])
    return commands


#: The SHA-256 of each README command's outcome (see :func:`_digest`),
#: keyed by its argv as one shell line.
DIGESTS = {
    "flex --f 'x + sqrt(x^2 - y)' --grid 1.5:2.5:0:1:20:20":
        "75a1de0dd1eeeb177abcfeb17ae433508591239df8aba2c88affee81919bc81c",
    "fit --web 'x; y; x+y; x*y' --point 2,1":
        "651681feb3551f1a5f0c52f3ff0c948ca58005c5551ae8b6b1947006a35aa1f1",
    "symcheck --f3 x+y --f4 'x*y' --grid 1.5:3:0:1:10:10":
        "5a4fcc2c022095a2068c8d449ef4c705f1a51ff91a47df0ced06056524f26daf",
    "geodesic --web 'y/x; sin(y/x)' --christoffel constcurv:1.0 --grid 0.4:1.2:0.2:1.0:6:6":
        "fadb8eb4cc1b95375c774faa595ee228c6aa6c545e49451bf5d70cd0bc24b1e0",
    "geodesic --web x/y --christoffel 'graph:exp(x^2 + y^2)' --grid 0.5:1.5:0.5:1.5:5:5":
        "ecb4ea2e0c11a3db679d7e3797ff0413604fc4b534f00edf33ef54252d8d254b",
    "dweb --web 'x; y; x + sqrt(x^2 - y); y/(1 - x); y/(1 - 2*x)' --grid 1.6:2.4:0.1:0.9:6:6":
        "30f7b6ce4924a0234b3b0c3d844f54329803b828bad441804608328e82a95389",
    "symintegrate --f3 x+y --f4 'x*y' --initial 0.2,-0.1,0.15,0.33,-0.21,0.15 "
    "--path '2.9,0.9; 3.1,0.9; 3.1,1.1' --step 0.001":
        "af39421f60ef8e073ba94e067364ffbea67318ef10297e51d02e8367366b24a7",
    "euler --w 'y/(1 - x)' --point 0.5,2":
        "b929d114b4c26d1624df1b9f22dd41a603c39f55e4e955998e0da1a53011c300",
    "lingen '--data=-2*sqrt(-y)' --lambda=-16:-0.04 --domain=-2:2:-4:2 --leaves 9 --svg web.svg":
        "eaee4cc79e105d2ef9dfa40f309ff85ea1976acdc376c959d157a490b14100f8",
    "render --web 'x; y; x+y' --domain 0:1:0:1 --levels 5 --svg web.svg":
        "d9f78eb4d7656354aeb024316a1a5fdd57b6895fc96cd96fc475bbe733019964",
}


def _digest(code, out, err, svgs) -> str:
    """The SHA-256 of a run's exit code, stdout, stderr and SVG files."""
    svgs = {name: data.decode("utf-8") for name, data in svgs.items()}
    text = json.dumps([code, out, err, svgs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 9
    assert sorted(DIGESTS) == sorted(shlex.join(argv) for argv in readme_commands())


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs_and_repeats(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = []
    for _ in range(2):
        code = run(argv)
        captured = capsys.readouterr()
        svgs = {}
        for svg in sorted(tmp_path.glob("*.svg")):
            svgs[svg.name] = svg.read_bytes()
            svg.unlink()
        runs.append((code, captured.out, captured.err, svgs))
    assert runs[0][0] == 0, runs[0][2]
    assert runs[0] == runs[1]
    command = shlex.join(argv)
    assert _digest(*runs[0]) == DIGESTS.get(command), f"moved: {command}"
