"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import webgeo  # noqa: E402
import webgeo.cli  # noqa: E402


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    for workload in workloads.WORKLOADS:
        (ROOT / workloads.WORK_DIR / workload).mkdir(parents=True, exist_ok=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    first = [j.as_dict() for j in workloads.build(workload, 7)]
    again = [j.as_dict() for j in workloads.build(workload, 7)]
    other = [j.as_dict() for j in workloads.build(workload, 8)]
    assert first == again
    assert first != other
    # The structure does not depend on the seed: same families, sizes and
    # large jobs in the same slots.
    assert [(j["family"], j["large"]) for j in first] == [(j["family"], j["large"]) for j in other]
    assert len(first) >= 100  # p90 needs at least 100 samples


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_answers_pass_on_this_code(workload):
    runner = run.Runner(webgeo, workloads.build(workload, 3))
    runner.run_pass()
    attempted, failed, reasons = runner.check()
    assert attempted == len(runner.jobs)
    assert failed == 0, reasons


def _output(job):
    runner = run.Runner(webgeo, [job])
    runner.run_pass()
    return runner.first[0]


def test_checks_reject_wrong_answers():
    jobs = workloads.build("grid_residuals", 3)
    flex = next(j for j in jobs if j.family == "flex" and j.expect.get("oracle") == "flex")
    out = _output(flex)
    assert oracle.check(flex, out) is None
    report = json.loads(out["stdout"])
    fol = report["results"]["per_foliation"][0]
    fol["max_normalized"] *= 1.0 + 1e-4
    assert "max" in oracle.check(flex, dict(out, stdout=json.dumps(report)))
    assert oracle.check(flex, dict(out, rc=1)) is not None
    sqrt_job = next(j for j in jobs if j.family == "flex" and j.expect["skipped"])
    out = _output(sqrt_job)
    report = json.loads(out["stdout"])
    report["results"]["per_foliation"][0]["skipped_points"].pop()
    assert "skipped" in oracle.check(sqrt_job, dict(out, stdout=json.dumps(report)))


def test_transport_check_rejects_wrong_end_states():
    jobs = workloads.build("paths_and_points", 3)
    path_job = next(j for j in jobs if j.family == "symintegrate" and not j.expect["closed"])
    out = _output(path_job)
    assert oracle.check(path_job, out) is None
    report = json.loads(out["stdout"])
    # An integrator that never moves the state.
    names = ("sigma", "tau", "sigma_x", "sigma_y", "tau_x", "tau_y")
    report["results"]["state"] = dict(zip(names, path_job.expect["initial"]))
    assert "reference transport" in oracle.check(path_job, dict(out, stdout=json.dumps(report)))
    # An integrator that takes half the steps asked for.
    step = path_job.args["step"]
    coarse_argv = [a.replace(f"--step={step}", f"--step={2 * step}") for a in path_job.argv]
    assert coarse_argv != path_job.argv
    coarse = _output(dataclasses.replace(path_job, argv=coarse_argv))
    assert "reference transport" in oracle.check(path_job, coarse)


def test_wrong_answers_give_a_nonzero_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "check", lambda job, out: "wrong")
    code = run.main(["--workload", "paths_and_points", "--seed", "3", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == run.EXIT_WRONG != 0
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_layer_self_times_add_up_to_job_time():
    jobs = []
    for workload in workloads.WORKLOADS:
        seen = set()
        for job in workloads.build(workload, 3):
            if job.family not in seen and not job.large:
                seen.add(job.family)
                jobs.append(job)
    runner = run.Runner(webgeo, jobs)
    runner.run_pass()
    tracer = tracing.Tracer().install()
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert not runner.mismatched, "tracing changed an output"
    metrics = tracer.metrics()
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + metrics["trace.harness_s"] == pytest.approx(metrics["trace.job_s"], rel=1e-9)
    assert metrics["trace.harness_s"] < 0.02 * metrics["trace.job_s"]
    for group in tracing.GROUPS:
        assert metrics[f"{group}.calls"] > 0, group
    # uninstall puts every original back
    assert not hasattr(webgeo.taylor.jet_mul, "__wrapped__")
    assert not hasattr(webgeo.exprlang._JET_OPS["*"], "__wrapped__")
    assert not hasattr(webgeo.cli.run, "__wrapped__")


def test_refuses_to_run_without_the_program():
    # A directory holding only BENCHMARK.json and the benchmark.
    bare = ROOT / workloads.WORK_DIR / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_residuals", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
