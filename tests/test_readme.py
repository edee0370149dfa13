"""The README's command line examples run, exit 0 and repeat byte for byte."""

from __future__ import annotations

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


def _with_svg_in(argv, directory: Path) -> list[str]:
    """`argv` with every --svg file moved into `directory`."""
    out = []
    for word in argv:
        if out and out[-1] == "--svg":
            word = str(directory / Path(word).name)
        elif word.startswith("--svg="):
            word = "--svg=" + str(directory / Path(word[len("--svg="):]).name)
        out.append(word)
    return out


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 9


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs_and_repeats(argv, tmp_path, capsys):
    argv = _with_svg_in(argv, tmp_path)
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
