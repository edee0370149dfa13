"""Record a baseline: ten seeded runs of every workload, plus one traced
run each, with machine information.

    python3 perfbench/baseline.py --out perfbench/baseline/BASELINE.json

Each run lasts BENCHMARK.json's `run_seconds`.  It writes the JSON record
and a readable Markdown file beside it.

For every end-to-end metric it writes the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median, which is what the
BENCHMARK.json bounds are judged against.  The traced run's per-layer
metrics are stored as reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from run import run_subprocess  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _machine():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


#: The seeds of a baseline: ten runs per workload, as the bounds are judged.
SEEDS = list(range(1, 11))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"machine": _machine(), "seconds": seconds, "seeds": SEEDS,
              "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, _ = run_subprocess(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed job runs")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
        summary = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                             "bound": bounds[name], "values": values}
            print(f"  {name:14s} median {med:.5g}  spread {(q3 - q1) / med:.4f}  "
                  f"bound {bounds[name]}", flush=True)
        traced, _ = run_subprocess(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    with open(out.with_suffix(".md"), "w", encoding="utf-8") as handle:
        handle.write(_markdown(record))


def _markdown(record) -> str:
    m = record["machine"]
    lines = [
        "# Baseline",
        "",
        f"Recorded {record['date']} with `perfbench/baseline.py`: seeds "
        f"{record['seeds'][0]}-{record['seeds'][-1]}, `--seconds {record['seconds']:g}`, "
        "one run per seed and workload, plus one traced run per workload (first seed).",
        "",
        f"Machine: {m['nproc']} vCPUs, {m['cpu_model']}, Python {m['python']}, "
        f"numpy {m['numpy']}, {m['platform']}.",
        "",
        "Spread is (q3 - q1) / median over the seeds; quartiles as "
        "`statistics.quantiles(values, n=4)` gives them.",
        "",
        "## End-to-end",
        "",
        "| workload | metric | median | q1 | q3 | spread | bound |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for workload, data in record["workloads"].items():
        for name, s in data["end_to_end"].items():
            lines.append(f"| {workload} | {name} | {s['median']:.5g} | {s['q1']:.5g} | "
                         f"{s['q3']:.5g} | {s['spread']:.3f} | {s['bound']} |")
    lines += ["", "## Per layer (traced run)", ""]
    names = list(next(iter(record["workloads"].values()))["per_layer"])
    workloads = list(record["workloads"])
    lines.append("| metric | " + " | ".join(workloads) + " |")
    lines.append("| --- |" + " --- |" * len(workloads))
    for name in names:
        cells = [f"{record['workloads'][w]['per_layer'][name]:.5g}" for w in workloads]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
