"""One workload in one process, with one thread of work.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

Imports fsind from the checkout's src/, draws the workload's inputs from the
seed, then runs whole rounds of its operations until S seconds have passed.
Prints one JSON line: the CLOCK_MONOTONIC time at which set-up ended, the
reference loop's time right after it, the operation counts and the metrics.
With --setup-only it stops after timing the reference loop.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end(run, peak_rss_mb):
    """The gated end-to-end metrics (set-up time is measured by run.py), and
    the figures reported beside them: wall-clock times, and the median
    operation, which is not steady on validate (see the README).  Each is
    the median over the run's rounds."""

    def median(field):
        return statistics.median(getattr(r, field) for r in run.rounds)

    metrics = {
        "run_ref": {"value": median("refs"), "unit": "ref"},
        "op_ref_tail": {"value": median("op_ref_tail"), "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    reported = {
        "run_ref": median("refs"),
        "op_ref_p50": median("op_ref_p50"),
        "run_s": median("seconds"),
        "op_ms_p50": median("op_s_p50") * 1000.0,
        "op_ms_tail": median("op_s_tail") * 1000.0,
    }
    return metrics, reported


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fsind
    except ImportError as exc:
        print(f"perfbench: cannot import fsind from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(fsind.__file__).resolve().parent.parent != src:
        print(f"perfbench: fsind was imported from {fsind.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        spans.install_hooks(tracer)
    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    loop_s = workloads.reference_time()
    if args.setup_only:
        print(json.dumps({"ready": ready, "loop_s": loop_s}))
        return 0

    run = workloads.Runner(tracer)
    start = time.perf_counter()
    while True:
        workload.round(run)
        run.end_round()
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.finish()
    metrics, reported = end_to_end(run, peak_rss_mb)
    out = {
        "ready": ready,
        "loop_s": loop_s,
        "rounds": len(run.rounds),
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "metrics": metrics,
        "reported": reported,
        "tail_percentile": run.tail_q,
    }
    if args.trace:
        out["layers"] = tracer.layer_metrics(run.round_ends)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {k: v for k, v in out.items() if k not in ("ready", "loop_s")})
        out["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
