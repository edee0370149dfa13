"""The bytes of every benchmark workload job, pinned.

`data/workload_jobs.json` holds the jobs of the three benchmark workloads
at seeds 1-3, frozen when the file was made (the list does not follow
later changes to the benchmark), one job per line with the SHA-256 of its
outcome: for a CLI job the exit code, stdout, stderr and the bytes of the
SVG it writes; for a library job a summary of its result.  The jobs run in
one process with a temporary working directory, so the relative SVG paths
inside the reports keep their bytes.  A mismatch names every job whose
bytes moved.

After a change that moves bytes on purpose, record the digests again with

    PYTHONPATH=src python tests/test_workload_digests.py --record

and list the moved jobs with the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import webgeo
from webgeo.cli import run

DATA = Path(__file__).parent / "data" / "workload_jobs.json"


def _graph_report(a):
    return webgeo.geodesic_web_report(
        a["web"],
        webgeo.GridSpec(*a["grid"]),
        christoffels=webgeo.christoffels_graph_surface(a["z"]),
        tolerance=a["tol"],
    )


def _characteristic_roots(a):
    datum = webgeo.CauchyDatum(a["datum"], tuple(a["interval"]))
    roots = webgeo.characteristic_roots(datum, tuple(a["point"]))
    return [[r.lam, r.w, r.multiplicity_hint] for r in roots]


def _solution_jet(a):
    datum = webgeo.CauchyDatum(a["datum"], tuple(a["interval"]))
    jet = webgeo.CharacteristicSolution(datum).jet(tuple(a["point"]), a["order"])
    return [[float(v) for v in row] for row in jet.table]


#: The library calls of the workloads, each giving a JSON summary.
LIBRARY = {
    "graph_report": _graph_report,
    "characteristic_roots": _characteristic_roots,
    "solution_jet": _solution_jet,
}


def outcome(job) -> dict:
    """What one job gives, run in the current working directory."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in job:
                result = {"rc": run(job["argv"])}
            else:
                result = {"value": LIBRARY[job["call"]](job["args"])}
    except Exception as exc:
        result = {"error": f"{type(exc).__name__}: {exc}"}
    result.update(stdout=out.getvalue(), stderr=err.getvalue())
    svg = job.get("svg")
    if svg and os.path.exists(svg):
        result["svg"] = Path(svg).read_text(encoding="utf-8")
        os.remove(svg)
    return result


def digest(job) -> str:
    text = json.dumps(outcome(job), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_all(jobs, directory: Path) -> list[str]:
    """The digest of each job, run with `directory` as working directory."""
    for job in jobs:
        if job.get("svg"):
            (directory / job["svg"]).parent.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [digest(job) for job in jobs]
    finally:
        os.chdir(cwd)


def _load() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_workload_and_seed_is_pinned():
    jobs = _load()
    assert len({job["id"] for job in jobs}) == len(jobs)
    sets = {job["id"].rsplit("/", 1)[0] for job in jobs}
    assert sets == {
        f"{w}/{s}"
        for w in ("grid_residuals", "web_invariants", "paths_and_points")
        for s in (1, 2, 3)
    }
    assert all(len(job["sha256"]) == 64 for job in jobs)


def test_workload_job_bytes_are_pinned(tmp_path):
    jobs = _load()
    moved = [
        job["id"]
        for job, got in zip(jobs, _run_all(jobs, tmp_path))
        if got != job["sha256"]
    ]
    assert not moved, f"{len(moved)} of {len(jobs)} jobs moved: {', '.join(moved)}"


def _record():
    import tempfile

    jobs = _load()
    with tempfile.TemporaryDirectory() as directory:
        for job, got in zip(jobs, _run_all(jobs, Path(directory))):
            job["sha256"] = got
    lines = ",\n".join(json.dumps(job) for job in jobs)
    DATA.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    _record()
