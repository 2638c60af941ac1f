"""Steadiness mode: run every workload repeatedly and report each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace]

Run i of a workload uses seed first_seed + i.  The workloads alternate order
between runs (forward on even i, reversed on odd i), so slow drift of the host
does not fall on one workload.  For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles with n=4), the spread
(q3 - q1) / median, and three times the spread, the least bound the metric
can carry; figures in parentheses are reported by run.py but not gated.  It
also prints the share of failed operations.  With --trace it then makes one
traced run per workload (seed first_seed) and prints its per-layer figures
and the tracing overhead: the traced run_ref over the untraced median.
Everything is also written to perfbench/out/steady.json.

The workloads and the run length are those of BENCHMARK.json at the root of
the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SUMMARY = "perfbench: summary "


def bench(config, workload, seed, trace):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith(SUMMARY):
            rec["reported"] = json.loads(line[len(SUMMARY):])
    return rec


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(args.runs):
        for w in names if i % 2 == 0 else names[::-1]:
            rec = bench(config, w, args.first_seed + i, 0)
            results[w].append(rec)
            print(f"run {i} {w}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in rec["metrics"].items()), flush=True)

    report = {"runs": args.runs, "first_seed": args.first_seed, "seconds": config["run_seconds"],
              "workloads": {}}
    for w in names:
        recs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in recs})
        metrics = {name: summarize([r["metrics"][name]["value"] for r in recs])
                   for name in recs[0]["metrics"]}
        metrics.update({f"({name})": summarize([r["reported"][name] for r in recs])
                        for name in ("setup_wall_s", "op_ref_p50", "run_s", "op_ms_p50",
                                     "op_ms_tail")})
        report["workloads"][w] = {"failed_share": shares,
                                  "correct": all(r["correct"] for r in recs),
                                  "metrics": metrics}
        print(f"\n{w}: correct={report['workloads'][w]['correct']} failed share {shares}")
        print(f"  {'metric':<15} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'3x':>6} {'bound':>6}")
        for name, s in metrics.items():
            print(f"  {name:<15} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
                  f"{s['spread']:>7.3f} {3 * s['spread']:>6.3f} {bounds.get(name, float('nan')):>6}")

    if args.trace:
        for w in names:
            rec = bench(config, w, args.first_seed, 1)
            traced = rec["reported"]["run_ref"]
            untraced = report["workloads"][w]["metrics"]["run_ref"]["median"]
            report["workloads"][w]["layers"] = rec["metrics"]
            report["workloads"][w]["traced"] = rec["reported"]
            print(f"\n{w} traced (seed {args.first_seed}): run_ref {traced:.1f}, "
                  f"{traced / untraced - 1:+.1%} over the untraced median; "
                  f"run_s {rec['reported']['run_s']:.3f}")
            for name, m in rec["metrics"].items():
                print(f"  {name:<26} {m['value']:>12.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
