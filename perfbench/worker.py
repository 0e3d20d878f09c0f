"""One benchmark round in a fresh process: python3 perfbench/worker.py ...

The round imports lynmag from the checkout's src/ (cold library caches,
as one lynmag invocation), builds the seeded inputs and prints READY,
then runs every operation of the workload once in the timed phase,
checks the outputs and prints one JSON result line.  The parent times
set-up from spawning this process to the READY line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def import_lynmag():
    """Import lynmag from <checkout>/src only, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lynmag
    import lynmag.cli  # noqa: F401  (the package does not import its CLI)

    if not Path(lynmag.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lynmag resolved to {lynmag.__file__}, not under {src}")
    return lynmag


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true", help="stop after READY")
    args = parser.parse_args()

    lm = import_lynmag()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.make_ops(lm, args.workload, inputs)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(lm)
        tracer.install()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    outputs = []
    started = time.perf_counter()
    for i, (kind, call) in enumerate(ops):
        try:
            out = tracer.run_request(i, kind, call) if tracer else call()
        except Exception as exc:  # an operation that raises is a failed operation
            out = workloads.Raised(exc)
        outputs.append(out)
    run_s = time.perf_counter() - started

    result = {"run_s": run_s, "ops": len(ops)}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz", args.run_id)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = workloads.check_outputs(args.workload, inputs, outputs)
    result["errors"] = [
        f"op {i} ({ops[i][0]}): {error}" for i, (error, _) in enumerate(checked) if error
    ]
    result["digests"] = [workloads.digest(value) for _, value in checked]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
