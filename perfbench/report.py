"""Steadiness report: python3 perfbench/report.py [--workload W ...]

Runs perfbench/run.py for RUNS seeds per workload, one run at a time and
each for BENCHMARK.json's run_seconds, in two sets: set A (seeds 1..10)
for every workload, then set B (seeds 11..20) for every workload.  For
every end-to-end metric and set it prints the unit, the sample count,
median, quartiles and the quartile spread as a share of the median, next
to the metric's bound; a spread under a third of the bound is marked
steady.  It then prints by how much set B's median is worse than set A's
(in the metric's own direction) and marks the sets as agreeing when that
is within the bound.  setup_s is judged like the other metrics.  The
environment (Python, numpy, nproc, CPU model) is printed and saved with
the figures to perfbench/out/steadiness.json.  The exit code is nonzero
when any run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
SETS = {"A": 1, "B": 1 + RUNS}  # set name -> first seed


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed} gave no result (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def run_set(workload: str, seeds: list[int], seconds: int, metrics: list[str]) -> dict:
    values: dict[str, list[float]] = {m: [] for m in metrics}
    correct, attempted, failed = True, 0, 0
    for seed in seeds:
        result = run_once(workload, seed, seconds)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for m in metrics:
            values[m].append(result["metrics"][m]["value"])
    rows = {}
    for m, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        rows[m] = {"n": len(v), "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": v}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": rows}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()), flush=True)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or names
    seeds = {s: list(range(first, first + RUNS)) for s, first in SETS.items()}
    report = {"environment": env, "seeds": seeds, "seconds": seconds, "sets": {}}
    for set_name in SETS:
        report["sets"][set_name] = {
            w: run_set(w, seeds[set_name], seconds, list(end_to_end)) for w in workloads
        }

    all_correct = True
    for w in workloads:
        a, b = (report["sets"][s][w] for s in SETS)
        print(f"\n{w}: {RUNS} runs per set, set A seeds {seeds['A'][0]}..{seeds['A'][-1]},"
              f" set B seeds {seeds['B'][0]}..{seeds['B'][-1]}, {seconds} s each")
        print(f"  {'metric':<12} {'unit':<5} set {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for m, spec_m in end_to_end.items():
            bound = spec_m["bound"]
            for set_name, rows in zip(SETS, (a, b)):
                r = rows["metrics"][m]
                verdict = "steady" if r["spread"] < bound / 3 else "NOT STEADY"
                print(f"  {m:<12} {spec_m['unit']:<5} {set_name:>3} {r['n']:>3} {r['median']:>12.4f}"
                      f" {r['q1']:>12.4f} {r['q3']:>12.4f} {r['spread']:>8.4f} {bound:>6} {verdict}")
            ma, mb = a["metrics"][m]["median"], b["metrics"][m]["median"]
            worse = (mb - ma) / ma if spec_m["better"] == "lower" else (ma - mb) / ma
            verdict = "agree" if worse <= bound else "DISAGREE"
            print(f"  {m:<12} B median worse than A by {worse:+.4f} (bound {bound}) {verdict}")
        for set_name, rows in zip(SETS, (a, b)):
            all_correct &= rows["correct"]
            print(f"  {'fail_ratio':<12} {'':<5} {set_name:>3} {RUNS:>3} {rows['failed'] / rows['attempted']:>12.4f}"
                  f"   ({rows['failed']}/{rows['attempted']} operations failed)")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
