"""The lynmag benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

A run is a sequence of rounds, one at a time, each in a fresh worker
process (perfbench/worker.py) that runs the whole seeded workload once
with cold library caches.  Rounds continue while the next one is
expected to fit in --seconds, and at least MIN_ROUNDS are made.  Each
end-to-end metric is the median over the run's rounds; setup_s takes
extra set-up-only workers until it has SETUP_SAMPLES samples.

With --trace 1 the run alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones (see tracing.py), plus the
tracing overhead.  A human-readable table goes to stderr; the last line
of stdout is the JSON result.  The exit code is 0 only when every
operation of every round passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, bypass_failures  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
SETUP_SAMPLES = 15
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "run_s": ("s", "time to a checked solution of the whole workload"),
    "ops_per_s": ("1/s", "operations completed per second"),
    "peak_rss_mb": ("MB", "peak resident memory of the worker"),
    "setup_s": ("s", "worker start, lynmag import and input generation"),
}

# One worker at a time, and no library threads inside it.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: bool, run_id: str, deadline: float,
              setup_only: bool = False) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--run-id", run_id,
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - spawned
            if ready.strip() != "READY":
                raise RoundFailed(f"worker did not start: {ready.strip()!r}")
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RoundFailed("round did not finish before the run deadline") from None
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or not (rest.strip() or setup_only):
        raise RoundFailed(f"worker exited with code {proc.returncode}")
    result = {} if setup_only else json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lynmag" / "__init__.py").is_file():
        print(f"error: no lynmag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    rounds, traced = [], []
    kinds = [False, True] if args.trace else [False]
    try:
        while True:
            for trace in kinds:
                r = run_round(args.workload, args.seed, trace,
                              f"{args.workload}:{args.seed}:{len(rounds) + len(traced)}", deadline)
                (traced if trace else rounds).append(r)
            elapsed = time.perf_counter() - started
            cycle = sum(r["setup_s"] + r["run_s"] for r in (rounds[-1:] + traced[-1:]))
            if len(rounds) >= (1 if args.trace else MIN_ROUNDS) and elapsed + cycle > args.seconds:
                break
        # Workers that only set up give setup_s a median over enough samples.
        setups = [r["setup_s"] for r in rounds] + [
            run_round(args.workload, args.seed, False, "setup", deadline, setup_only=True)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES - len(rounds))
        ]
    except RoundFailed as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    all_rounds = rounds + traced
    attempted = sum(r["ops"] for r in all_rounds)
    errors = [e for r in all_rounds for e in r["errors"]]
    # Every round of a run gets the same inputs, so outputs must agree.
    reference = rounds[0]["digests"]
    mismatched = sum(
        sum(a != b for a, b in zip(reference, r["digests"])) for r in all_rounds[1:]
    )
    failed = len(errors) + mismatched

    samples = {
        "run_s": [r["run_s"] for r in rounds],
        "ops_per_s": [r["ops"] / r["run_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "setup_s": setups,
    }
    bypass_errors = []
    if args.trace:
        values = {m: [t["layers"][m] for t in traced] for m in PER_LAYER if m != "trace.overhead_s"}
        metrics = {
            m: {"value": None if None in v else statistics.median(v), "unit": PER_LAYER[m][0]}
            for m, v in values.items()
        }
        overhead = statistics.median(t["run_s"] for t in traced) - statistics.median(samples["run_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        bypass_errors = bypass_failures(args.workload, {m: v["value"] for m, v in metrics.items()})
    else:
        metrics = {
            m: {"value": statistics.median(samples[m]), "unit": END_TO_END[m][0]}
            for m in END_TO_END
        }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"digests-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "digests": reference}, indent=1)
    )

    log = sys.stderr
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds"
          f"{f' + {len(traced)} traced' if traced else ''}, {rounds[0]['ops']} ops each", file=log)
    for m, (unit, meaning) in END_TO_END.items():
        q1, q2, q3 = quartiles(samples[m])
        print(f"  {m:<12} {q2:12.4f} {unit:<4} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples[m])})  {meaning}", file=log)
    print(f"  {'fail_ratio':<12} {failed / attempted:12.4f}      ({failed}/{attempted} operations failed)", file=log)
    if args.trace:
        for m, v in metrics.items():
            shown = "absent" if v["value"] is None else f"{v['value']:.6g}"
            print(f"  {m:<28} {shown:>14} {v['unit']}", file=log)
    for e in (errors + bypass_errors)[:20]:
        print(f"  FAIL {e}", file=log)
    if mismatched:
        print(f"  FAIL {mismatched} outputs differ between rounds", file=log)

    correct = failed == 0 and not bypass_errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
