"""webgeo benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_residuals --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one caller, no threads: jobs run back to back (a closed
loop), each either `webgeo.cli.run(argv)` in process or one library call.
A pass runs the workload's whole job list; passes repeat until `--seconds`
have been spent (at least one).  After timing, every output of every pass
is checked against its known answer (oracle.py).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the public functions of every layer
module are wrapped (tracing.py) and it holds the per-layer metrics.  The
lines before it are a readable summary.  Exit code 1 means some output
missed its known answer (the result line is printed all the same); exit
code 2 means the checkout has no webgeo source to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Calibration samples on each side of a job that scale its time.
CALIBRATION_WINDOW = 2

#: Exit code of a run in which some output missed its known answer.
EXIT_WRONG = 1

#: Fewest fresh interpreters started to measure set-up time; the median is
#: reported.
SETUP_SAMPLES = 9

SETUP_CODE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import webgeo.cli
with contextlib.redirect_stdout(io.StringIO()):
    webgeo.cli.run(["--help"])
print(time.perf_counter() - t0)
"""


def _units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer" (BENCHMARK.json)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


# ------------------------------------------------------------- library jobs


def _graph_report(webgeo, a):
    return webgeo.geodesic_web_report(
        a["web"],
        webgeo.GridSpec(*a["grid"]),
        christoffels=webgeo.christoffels_graph_surface(a["z"]),
        tolerance=a["tol"],
    )


def _characteristic_roots(webgeo, a):
    datum = webgeo.CauchyDatum(a["datum"], tuple(a["interval"]))
    return webgeo.characteristic_roots(datum, tuple(a["point"]))


def _solution_jet(webgeo, a):
    datum = webgeo.CauchyDatum(a["datum"], tuple(a["interval"]))
    return webgeo.CharacteristicSolution(datum).jet(tuple(a["point"]), a["order"])


#: name -> (timed call, summary of its result for the checks)
LIBRARY = {
    "graph_report": (_graph_report, lambda v: v),
    "characteristic_roots": (_characteristic_roots,
                             lambda v: {"roots": [[r.lam, r.w] for r in v]}),
    "solution_jet": (_solution_jet, lambda v: {"coeffs": v.coeffs.tolist()}),
}


# ------------------------------------------------------------------ passes


class Runner:
    """Runs passes over a job list and keeps what the checks need."""

    def __init__(self, webgeo, jobs):
        self.webgeo = webgeo
        self.jobs = jobs
        self.first: list[dict] | None = None
        self.digests: list[str] | None = None
        self.mismatched: set[int] = set()
        self.executions = 0

    def run_pass(self, tracer=None):
        """One pass; returns the per-job times, scaled by the calibration
        kernel run after each job (see calibrate.py), and unscaled."""
        cli = self.webgeo.cli
        raw = []
        times = []
        speed = [calibrate.sample()]
        real_out, real_err = sys.stdout, sys.stderr
        clock = time.perf_counter
        for job in self.jobs:
            out_buf, err_buf = io.StringIO(), io.StringIO()
            value = error = None
            if tracer is not None:
                tracer.begin_job(job.id)
            sys.stdout, sys.stderr = out_buf, err_buf
            t0 = clock()
            try:
                if job.argv is not None:
                    value = cli.run(job.argv)
                else:
                    value = LIBRARY[job.call][0](self.webgeo, job.args)
            except Exception as exc:  # a crash is a failed job, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            finally:
                t1 = clock()
                sys.stdout, sys.stderr = real_out, real_err
                if tracer is not None:
                    tracer.end_job()
            times.append(t1 - t0)
            raw.append((value, error, out_buf, err_buf))
            speed.append(calibrate.sample())
        self._keep(raw)
        # Job i ran between calibration samples i and i + 1.
        scaled = []
        for i, t in enumerate(times):
            nearby = speed[max(0, i + 1 - CALIBRATION_WINDOW): i + 1 + CALIBRATION_WINDOW]
            scaled.append(t * calibrate.NOMINAL_S / statistics.median(nearby))
        return scaled, times

    def _keep(self, raw):
        outs = []
        for job, (value, error, out_buf, err_buf) in zip(self.jobs, raw):
            if error is not None:
                out = {"error": error}
            elif job.argv is not None:
                out = {"rc": value, "stdout": out_buf.getvalue(), "stderr": err_buf.getvalue()}
                svg = job.args.get("svg")
                if svg and os.path.exists(svg):
                    with open(svg, encoding="utf-8") as handle:
                        out["svg"] = handle.read()
                    os.remove(svg)
            else:
                out = {"value": LIBRARY[job.call][1](value)}
            outs.append(out)
        digests = [hashlib.sha256(json.dumps(o, sort_keys=True).encode()).hexdigest() for o in outs]
        if self.first is None:
            self.first, self.digests = outs, digests
        else:
            self.mismatched.update(i for i, (a, b) in enumerate(zip(self.digests, digests)) if a != b)
        self.executions += 1

    def check(self):
        """(attempted, failed, reasons) over every pass run so far."""
        import oracle

        reasons = {}
        for i, (job, out) in enumerate(zip(self.jobs, self.first)):
            why = oracle.check(job, out)
            if why is None and i in self.mismatched:
                why = "output differs between passes"
            if why is not None:
                reasons[job.id] = f"{job.family}: {why}"
        attempted = len(self.jobs) * self.executions
        failed = len(reasons) * self.executions
        return attempted, failed, reasons

    def skipped_stats(self):
        """(skipped grid points, attempted grid points) over the CLI grid
        reports of the first pass."""
        skipped = slots = 0
        for job, out in zip(self.jobs, self.first):
            if job.argv is None or out.get("rc") != 0:
                continue
            try:
                rep = json.loads(out["stdout"])
            except ValueError:
                continue
            grid = rep.get("grid")
            if not grid or "nx" not in grid:
                continue
            res = rep["results"]
            lists = [f["skipped_points"] for f in res.get("per_foliation", [])
                     if "skipped_points" in f] or [res.get("skipped_points", [])]
            skipped += sum(len(s) for s in lists)
            slots += grid["nx"] * grid["ny"] * len(lists)
        return skipped, slots


def _percentile(values, q):
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _interpreter_time(code: str, *args) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def _setup_probe() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import webgeo.cli and build its
    parser, scaled by reference interpreters run before and after it (see
    calibrate.py), and unscaled."""
    before = _interpreter_time(calibrate.SETUP_REFERENCE_CODE)
    elapsed = _interpreter_time(SETUP_CODE, str(SRC))
    after = _interpreter_time(calibrate.SETUP_REFERENCE_CODE)
    return elapsed * calibrate.SETUP_NOMINAL_S / statistics.median([before, after]), elapsed


# -------------------------------------------------------------------- modes


def _passes(runner, seconds, tracer=None, on_pass=None):
    """Run passes until `seconds` have passed (at least one); returns the
    scaled and the unscaled per-job times, one list per job.  `on_pass` is
    called after each pass with the pass's scale factor."""
    per_job = [[] for _ in runner.jobs]
    unscaled = [[] for _ in runner.jobs]
    start = time.perf_counter()
    while not per_job[0] or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.record_spans = len(per_job[0]) == 0
        scaled, times = runner.run_pass(tracer)
        for samples, t in zip(per_job, scaled):
            samples.append(t)
        for samples, t in zip(unscaled, times):
            samples.append(t)
        if on_pass is not None:
            on_pass(sum(scaled) / sum(times))
    return per_job, unscaled


def _pass_time(per_job) -> float:
    """Time for one pass: the sum over jobs of each job's median time.
    Per-job medians over passes spread in time keep a slow phase of the
    machine out of the figure."""
    return sum(statistics.median(t) for t in per_job)


def _untraced(runner, seconds):
    # One set-up probe after each pass spreads them over the run, so their
    # median does not hang on one phase of the machine's speed.
    setup = []
    per_job, unscaled = _passes(runner, seconds, on_pass=lambda scale: setup.append(_setup_probe()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_probe())
    setup_scaled, setup_raw = zip(*setup)
    medians = [statistics.median(t) for t in per_job]
    large = [i for i, job in enumerate(runner.jobs) if job.large]
    large_points = sum(runner.jobs[i].points for i in large)
    metrics = {
        "wall_s": sum(medians),
        "job_ms.p50": 1e3 * _percentile(medians, 0.50),
        "job_ms.p90": 1e3 * _percentile(medians, 0.90),
        "points_per_s": large_points / sum(medians[i] for i in large),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = [
        f"{len(per_job[0])} passes over {len(runner.jobs)} jobs; each job's time is its "
        "median over the passes",
        f"job_ms percentiles over {len(medians)} per-job medians",
        f"points_per_s over {len(large)} large jobs, {large_points} points",
        f"setup_s median of {len(setup)} fresh interpreters (one after each pass, at least "
        f"{SETUP_SAMPLES})",
        f"unscaled: wall_s {_pass_time(unscaled):.4g} s, setup_s "
        f"{statistics.median(setup_raw):.4g} s (see calibrate.py)",
    ]
    return metrics, _units("end_to_end"), notes


def _traced(runner, seconds, workload):
    import tracing

    plain = _passes(runner, seconds / 3.0)[0]
    tracer = tracing.Tracer().install()
    per_pass = []

    def record(scale):
        metrics = tracer.metrics()
        per_pass.append({k: v * scale if k.endswith("_s") else v for k, v in metrics.items()})

    try:
        traced = _passes(runner, seconds * 2.0 / 3.0, tracer, on_pass=record)[0]
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    skipped, slots = runner.skipped_stats()
    metrics["cli.grid_points"] = slots
    metrics["cli.skipped_ratio"] = skipped / slots if slots else 0.0
    metrics["trace.wall_s"] = _pass_time(traced)
    metrics["trace.untraced_wall_s"] = _pass_time(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    spans_path = Path(workloads.WORK_DIR) / workload / "spans.jsonl"
    tracer.write_spans(spans_path)
    notes = [
        f"untraced passes: {len(plain[0])}; traced passes: {len(traced[0])}",
        f"tracing overhead: {metrics['trace.overhead_s']:.3f} s per pass "
        f"({metrics['trace.overhead_s'] / metrics['trace.untraced_wall_s']:.1%} of the untraced "
        "pass time)",
        f"wrapped {len(tracer.wrapped)} public functions and methods; spans of the first "
        f"traced pass in {spans_path} ({len(tracer.spans)} kept, {tracer.spans_dropped} dropped)",
        "unmeasured: " + (", ".join(tracer.unmeasured) or "none"),
    ]
    return metrics, _units("per_layer"), notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import webgeo
    import webgeo.cli  # noqa: F401

    jobs = workloads.build(workload, seed)
    (Path(workloads.WORK_DIR) / workload).mkdir(parents=True, exist_ok=True)
    runner = Runner(webgeo, jobs)
    if trace:
        metrics, units, notes = _traced(runner, seconds, workload)
    else:
        metrics, units, notes = _untraced(runner, seconds)
    checks_start = time.perf_counter()
    attempted, failed, reasons = runner.check()
    notes.append(f"checks took {time.perf_counter() - checks_start:.1f} s")
    for job_id, why in sorted(reasons.items()):
        print(f"FAILED job {job_id}: {why}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted:>16.6g} 1   ({failed} of {attempted} job runs)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_subprocess(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list]:
    """Run one workload in a fresh interpreter; returns its result and the
    summary lines printed before it.  Exits if the run printed no result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, EXIT_WRONG):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        result, summary = run_subprocess(workload, args.seed, args.seconds, args.trace)
        print("\n".join(summary))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "webgeo" / "__init__.py").is_file():
        print(f"perfbench: no webgeo source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import webgeo

    if Path(webgeo.__file__).resolve().parent != (SRC / "webgeo").resolve():
        print(f"perfbench: imported webgeo from {webgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = _run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_WRONG


if __name__ == "__main__":
    sys.exit(main())
