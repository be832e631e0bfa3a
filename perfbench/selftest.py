#!/usr/bin/env python3
"""Exact-count check of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all three by default) at one seed, runs one untraced and
two traced passes and requires that
  * the two traced passes give identical count metrics: graze fallbacks,
    iters, fevals, calls and uniform_block values;
  * all three passes give the same result digest, so tracing changes no
    result bit;
  * every op other than a domain-edge probe passes verification.
Exits 1 on the first workload that breaks one of these.  Not collected by
pytest: the mc-spiral passes alone take about a minute.
"""

from __future__ import annotations

import argparse
import os
import sys

import run
import tracer as tracing
import workloads


def check(program, workload: str, seed: int) -> list:
    """Problems found for one workload; empty when it is exact."""
    workloads.warm_up(program, workload)
    ops = workloads.build(program, workload, seed, run.OUT_DIR)
    plain = run.PassResult(program, ops)
    first, tracer1 = run.traced_pass(program, ops)
    second, tracer2 = run.traced_pass(program, ops)
    counts1 = {k: v for k, v in tracer1.layer_metrics().items() if k in tracing.COUNT_METRICS}
    counts2 = {k: v for k, v in tracer2.layer_metrics().items() if k in tracing.COUNT_METRICS}
    problems = [f"{k}: {counts1[k]} then {counts2[k]}" for k in counts1
                if counts1[k] != counts2[k]]
    if len({plain.digest, first.digest, second.digest}) != 1:
        problems.append(f"digests differ: untraced {plain.digest[:16]}, traced "
                        f"{first.digest[:16]} and {second.digest[:16]}")
    failed = plain.failed + first.failed + second.failed
    if failed:
        problems.append(f"{failed} ops failed verification")
    print(f"{workload}: digest {plain.digest[:16]}, "
          + ", ".join(f"{k}={v}" for k, v in counts1.items() if v))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(workloads.WORKLOADS)}; default: all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    args.workloads = args.workloads or list(workloads.WORKLOADS)
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    program = workloads.load_program(run.ROOT)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    status = 0
    for workload in args.workloads:
        problems = check(program, workload, args.seed)
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        status = status or int(bool(problems))
    print("exact-count check " + ("failed" if status else "passed"))
    return status


if __name__ == "__main__":
    sys.exit(main())
