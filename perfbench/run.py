"""Benchmark entry point.

    python3 perfbench/run.py --workload divisor-sweep|validate|survey
                             --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository.  The workload runs in a
process of its own (perfbench/worker.py).  The last line printed is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

setup_s is the median, over the workload's own process and SETUP_PROBES
set-up-only processes on each side of it, of the time from spawning a
process to the end of its set-up (interpreter start, `import fsind`, drawing
the inputs from the seed).  Each process times the reference loop right
after its set-up, and its set-up time is divided by that loop time and
multiplied by REF_LOOP_S: set-up time in seconds on a host where the loop
takes REF_LOOP_S, so that the host's speed drifting between runs does not
show as a change of set-up time.  Probes on both sides of the run follow the
host's speed over the run rather than over the half second before it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
REF_LOOP_S = 0.0014  # the reference loop's time on the host the README describes
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def run_worker(args, deadline, setup_only=False):
    """Run worker.py to completion; return (spawn time, its JSON record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {DEADLINE_S:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return spawned, json.loads(lines[-1])


def setup_time(spawned, rec):
    """(wall-clock set-up time, the same in seconds at the reference speed)"""
    wall = rec["ready"] - spawned
    return wall, wall / rec["loop_s"] * REF_LOOP_S


def probe_setup(args, deadline):
    return setup_time(*run_worker(args, deadline, setup_only=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [probe_setup(args, deadline) for _ in range(probes)]
        spawned, rec = run_worker(args, deadline)
        setups.append(setup_time(spawned, rec))
        setups += [probe_setup(args, deadline) for _ in range(probes)]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = rec["layers"]
        print(f"perfbench: spans in {rec['trace_file']}", file=sys.stderr)
    else:
        setup_s = statistics.median(ref for _, ref in setups)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **rec["metrics"]}
    # figures reported beside the gated ones; steady.py reads this line
    summary = {"rounds": rec["rounds"], "tail_percentile": rec["tail_percentile"],
               "setup_wall_s": statistics.median(wall for wall, _ in setups), **rec["reported"]}
    print("perfbench: summary " + json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": rec["wrong"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
