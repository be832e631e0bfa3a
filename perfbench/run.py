#!/usr/bin/env python3
"""Benchmark of the shoreline package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {mc-spiral,solve,coil-mc} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else, so in a directory without it the run exits
with code 2 and prints no result.

One process and one client in a closed loop: the next op starts when the
previous one returns, with no threads.  The run first times set-up
(``setup_s``: a fresh interpreter importing ``shoreline`` and running one
untimed warm-up op, median of several), then repeats the workload's op list
("a pass") until ``--seconds`` have been measured, at least once.  Outputs
are verified after each pass, untimed, and every numeric result is hashed
into a digest that must repeat exactly from pass to pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of the
traced one (see tracer.py), with ``trace.overhead_s`` the difference of
their wall times.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics; the lines before it are a
readable report with the metrics that only some workloads define
(samples_per_s, mc_1e6_s), fail_ratio, the digest and the run metadata.
Results and spans are also written under perfbench/out/.

Domain-edge probes in ``solve`` are timed with every other op and counted
in fail_ratio.  They are left out of the JSON ``failed`` count, because they
fail at the baseline by a known defect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7


def measure_setup(workload: str) -> List[float]:
    """Seconds for a fresh interpreter to import shoreline and run the
    workload's warm-up op, measured from outside, ``SETUP_REPEATS`` times."""
    code = (f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import workloads; "
            f"workloads.warm_up(workloads.load_program({ROOT!r}), {workload!r})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class PassResult:
    """Timings, verification outcome and digest of one pass."""

    def __init__(self, program, ops, tracer=None) -> None:
        self.latencies: List[float] = []
        results = []
        self.start = start = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                if tracer is None:
                    result = workloads.execute(program, op)
                else:
                    with tracer.op(i, op.kind):
                        result = workloads.execute(program, op)
                self.latencies.append(time.perf_counter() - t0)
                results.append(result)
            self.wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        h = hashlib.sha256()
        self.failed = self.edge_failed = 0
        for op, result in zip(ops, results):
            passed, numbers = workloads.verify(program, op, result)
            workloads.digest_update(h, op, passed, numbers)
            if not passed:
                if op.edge:
                    self.edge_failed += 1
                else:
                    self.failed += 1
        self.digest = h.hexdigest()


def traced_pass(program, ops) -> Tuple[PassResult, "tracing.Tracer"]:
    """One pass with every traced layer instrumented; the wrappers are
    removed again before the outputs are verified."""
    tracer = tracing.Tracer()
    tracer.instrument()
    return PassResult(program, ops, tracer), tracer


def metadata(seed: int) -> Dict[str, object]:
    import numpy
    cpu, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key.strip() == "cache size" and llc == "unknown":
                    llc = value.strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc_size": llc,
        # One float64 array of the vectorized march, beside the cache size.
        "march_array_bytes": {"n=1e4": workloads.SMALL_N * 8, "n=1e6": workloads.BIG_N * 8},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git reports "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args) -> Dict[str, object]:
    program = workloads.load_program(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times = [] if args.trace else measure_setup(args.workload)
    workloads.warm_up(program, args.workload)
    ops = workloads.build(program, args.workload, args.seed, OUT_DIR)
    draws = sum(workloads.mc_draws(op) for op in ops)

    passes: List[PassResult] = []
    measured = 0.0
    if args.trace:
        passes.append(PassResult(program, ops))
        traced, tracer = traced_pass(program, ops)
        passes.append(traced)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz"), traced.start)
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = passes[1].wall - passes[0].wall
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        while not passes or measured < args.seconds:
            passes.append(PassResult(program, ops))
            measured += passes[-1].wall
        latencies = [t for p in passes for t in p.latencies]
        metrics = {
            "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }

    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    edge_failed = sum(p.edge_failed for p in passes)
    digests = {p.digest for p in passes}
    report: Dict[str, object] = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "edge_probes_per_pass": sum(op.edge for op in ops),
        "fail_ratio": (failed + edge_failed) / attempted,
        "edge_nonconforming": edge_failed,
        "digest": passes[0].digest,
        "digests_agree": len(digests) == 1,
        "setup_runs_s": setup_times,
        "metadata": metadata(args.seed),
    }
    untraced = passes[:1] if args.trace else passes
    if draws:
        report["samples_per_s"] = draws / statistics.median(p.wall for p in untraced)
    big = [t for p in untraced for op, t in zip(ops, p.latencies)
           if op.kind == "mc.spiral" and op.args[1] == workloads.BIG_N]
    if big:
        report["mc_1e6_s"] = statistics.median(big)
    report["result"] = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report


def print_report(report: Dict[str, object]) -> None:
    result = report["result"]
    print(f"# shoreline benchmark: workload {report['workload']}, "
          f"{'traced' if report['trace'] else 'untraced'}, {report['passes']} pass(es) "
          f"of {report['ops_per_pass']} ops ({report['edge_probes_per_pass']} domain-edge)")
    for key, value in report["metadata"].items():
        print(f"meta {key} = {value}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for name, unit in (("samples_per_s", "1/s"), ("mc_1e6_s", "s")):
        if name in report:
            print(f"{name} = {report[name]!r} {unit}")
    print(f"fail_ratio = {report['fail_ratio']!r} "
          f"({result['failed']} failed, {report['edge_nonconforming']} domain-edge "
          f"nonconforming, of {result['attempted']} attempted)")
    print(f"digest = {report['digest']} (passes agree: {report['digests_agree']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    suffix = "trace" if args.trace else "run"
    with open(os.path.join(OUT_DIR, f"{args.workload}-{suffix}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
