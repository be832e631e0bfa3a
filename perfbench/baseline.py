#!/usr/bin/env python3
"""Record a baseline: run the benchmark over several seeds per workload.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1] \
        [--out perfbench/out/baseline.json] [WORKLOAD ...]

Each run is a separate ``python3 perfbench/run.py`` process with tracing
off, exactly as BENCHMARK.json states it; then one traced run per workload
at the first seed gives the per-layer metrics.  For every end-to-end metric
the summary holds the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.  The report-only metrics (fail_ratio,
samples_per_s, mc_1e6_s), the op counts and digest of each seed and the run
metadata are kept beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REPORT_ONLY = ("fail_ratio", "samples_per_s", "mc_1e6_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in its own process, as the baseline keeps it."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                          timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    suffix = "trace" if trace else "run"
    with open(os.path.join(BENCH_DIR, "out", f"{workload}-{suffix}.json")) as fh:
        report = json.load(fh)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "edge_nonconforming": report["edge_nonconforming"],
            "ops_per_pass": report["ops_per_pass"], "digest": report["digest"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            **{name: report[name] for name in REPORT_ONLY if name in report},
            "metadata": report["metadata"]}


def summarize(values, bound=None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = {"median": median, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / median if median else None}
    if bound is not None:
        summary["bound"] = bound
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(workloads.WORKLOADS)}; default: all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out", "baseline.json"))
    args = parser.parse_args(argv)
    args.workloads = args.workloads or list(workloads.WORKLOADS)
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"run_seconds": spec["run_seconds"], "metadata": {},
              "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            record["metadata"] = {k: v for k, v in runs[-1].pop("metadata").items()
                                  if k != "seed"}
            shown = {**runs[-1]["metrics"],
                     **{name: runs[-1][name] for name in REPORT_ONLY if name in runs[-1]}}
            print(f"{workload} seed {seed}: {runs[-1]['ops_per_pass']} ops/pass, " + ", ".join(
                f"{name}={value:.6g}" for name, value in shown.items()), flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs], bounds[name])
                   for name in bounds}
        summary.update({name: summarize([r[name] for r in runs])
                        for name in REPORT_ONLY if name in runs[0]})
        traced = run_once(workload, args.first_seed, spec["run_seconds"], 1)
        del traced["metadata"]
        record["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
        for name, s in summary.items():
            limit = f" (bound {s['bound']})" if "bound" in s else ""
            print(f"{workload} {name}: median {s['median']:.6g}, "
                  f"spread {s['spread']}{limit}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
