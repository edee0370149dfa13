"""The narrative demos run to completion against the package in `src`
and print the bytes pinned below."""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: The SHA-256 of each demo's stdout, with the directory it runs in
#: written as "<dir>".
DIGESTS = {
    "01_jets_and_flex": "13e94be1957cb22f1e8ebe23a9a24030de177177aab9fbd5cd42f64f6d60e9fc",
    "02_projective_fit": "628cc0b4ae705427dbb0e14daff4aefae95f53cdf3dcdc94765b46e9f6c5236b",
    "03_symmetric_structure": "b4581f83dc64c0d6eb80618f223834d66db9bb2ef28d3beb86456e9536b97a87",
    "04_linear_webs": "fe0ab53d7dc05aa86f086ec8863247ab2f0e221ed3680068e40c75d376585803",
    "05_curved_surfaces": "c92abe26c6b6227eaeb8e187255f8a4c543914748d1b07ae47a2a18a28d4b553",
}


def test_every_demo_is_collected():
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]
    assert sorted(DIGESTS) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    out = proc.stdout.replace(str(tmp_path), "<dir>")
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS.get(demo.stem), (
        f"moved: {demo.stem}"
    )
    if demo.name.startswith("04_"):
        svg = tmp_path / "output" / "linear_web.svg"
        assert svg.read_text(encoding="utf-8").startswith("<?xml")
