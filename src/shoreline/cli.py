"""Command-line front end.

Grammar:

    shoreline spiral   {minmax|minmean|eval} [--kappa F] [--R F] [--format FMT]
    shoreline coil     {minmax|minmean|mixed|eval} [--gamma F] [--X F] [--format FMT]
    shoreline simulate {spiral|coil|mixed} [--kappa F] [--gamma F] [--X F]
                       [-n INT] [--seed INT] [--format FMT]
    shoreline plot-data {delta-ratio|I|spiral-path} [--gamma F] [--kappa F]
                       --range LO:HI [--points INT] --out PATH
    shoreline check

FMT is text (default: results and diagnostics to 10 significant digits, each
param.* input shortest round-trip), json, or csv (17 significant digits,
shortest round-trip).  Exit codes: 0 success, 1 numerical failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from . import checks, golden
from .coil import (Coil, average_ratio, mixed_expected_ratio, optimal_minmax_coil,
                   optimal_minmean_coil, optimal_mixed, travel_distance)
from .numerics import NumericalError, _check_positive
from .simulate import (SimConfig, coil_walk_sample, mixed_strategy_sample,
                       monte_carlo_mean_arclength)
from .spiral_geometry import Spiral, contact_at, second_contact
from .spiral_objectives import (erroneous_at, minimize_minmax, minimize_minmean, minmax_at,
                                minmax_system_objective, minmean_at, minmean_objective,
                                minmean_system_objective, solve_minmax_system,
                                solve_minmean_system)

__all__ = ["main", "OutputRecord"]


@dataclass
class OutputRecord:
    """One command's output: stable result names, finite reals only."""

    command: str
    parameters: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"command": self.command, "parameters": dict(self.parameters),
                "results": dict(self.results), "diagnostics": dict(self.diagnostics)}


def _fmt_text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _fmt_csv(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _require_finite(names: Iterable[str], rows: Sequence[Iterable[float]]) -> None:
    """The output rule of every command: each reported real is finite, else a
    NumericalError that names each column (field) holding a non-finite one."""
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        bad = [k for k, column in zip(names, zip(*rows)) if not all(map(math.isfinite, column))]
        raise NumericalError(f"non-finite result: {', '.join(bad)}")


def emit(record: OutputRecord, fmt: str) -> str:
    _require_finite(record.results, [record.results.values()])
    if fmt == "json":
        return json.dumps(record.to_dict(), sort_keys=True)
    if fmt == "csv":
        keys, vals = ["command"], [record.command]
        for k, v in record.parameters.items():
            keys.append(f"param.{k}")
            vals.append(_fmt_csv(v))
        for k, v in record.results.items():
            keys.append(k)
            vals.append(_fmt_csv(v))
        return ",".join(keys) + "\n" + ",".join(str(v) for v in vals) + "\n"
    lines = [f"command = {record.command}"]
    # each input as given: 10 digits would print --gamma 1.0000000000001 as 1
    lines += [f"param.{k} = {_fmt_csv(v)}" for k, v in record.parameters.items()]
    lines += [f"{k} = {_fmt_text(v)}" for k, v in record.results.items()]
    lines += [f"diag.{k} = {_fmt_text(v)}" for k, v in record.diagnostics.items()]
    return "\n".join(lines) + "\n"


def _cmd_spiral(args: argparse.Namespace) -> OutputRecord:
    R = args.R
    _check_positive("R", R)  # in minmax and minmean R only scales lengths
    rec = OutputRecord(command=f"spiral {args.mode}", parameters={"R": R})
    if args.mode == "eval":
        if args.kappa is None:
            raise ValueError("spiral eval requires --kappa")
        k = args.kappa
        rec.parameters["kappa"] = k
        # One solve at R = 1: the objectives read it, the R contact shifts it.
        unit = second_contact(Spiral(k))
        contact = contact_at(Spiral(k, R), unit.theta1)
        rec.results = {
            "theta0": contact.theta0,
            "omega0": contact.omega0,
            "theta1": contact.theta1,
            "minmax_objective": R * minmax_at(k, unit),
            "minmean_objective": R * minmean_at(k, unit),
            "erroneous_objective": R * erroneous_at(k, unit),
        }
        return rec

    if args.mode == "minmax":
        opt = minimize_minmax()
        pair = solve_minmax_system()
        system_obj = minmax_system_objective(pair)
    else:
        opt = minimize_minmean()
        pair = solve_minmean_system()
        system_obj = minmean_system_objective(pair)
    rec.results = {
        "kappa": opt.kappa,
        "objective": R * opt.objective_value,
        "alpha": opt.alpha,
        "beta": opt.beta,
        "exp_kappa": math.exp(opt.kappa),
        "system_kappa": math.tan(pair.alpha),
        "system_objective": R * system_obj,
        "route_gap_kappa": abs(math.tan(pair.alpha) - opt.kappa),
        "route_gap_objective": R * abs(system_obj - opt.objective_value),
    }
    # the find_root report of the objective's log-derivative; its residual
    # is the derivative at the returned kappa
    rec.diagnostics = {"iterations": opt.report.iterations,
                       "residual": opt.report.residual_or_value,
                       "converged": opt.report.converged}
    return rec


def _cmd_coil(args: argparse.Namespace) -> OutputRecord:
    rec = OutputRecord(command=f"coil {args.mode}")
    if args.mode == "minmax":
        gamma, ratio = optimal_minmax_coil()
        rec.results = {"gamma": gamma, "ratio": ratio}
    elif args.mode == "minmean":
        opt = optimal_minmean_coil()
        rec.results = {
            "gamma_for_min": opt.gamma_for_min, "mean_min": opt.mean_min,
            "gamma_for_max": opt.gamma_for_max, "mean_max": opt.mean_max,
        }
    elif args.mode == "mixed":
        strat = optimal_mixed()
        rec.results = {"gamma": strat.gamma, "expected_ratio": strat.expected_ratio}
    else:
        if args.gamma is None or args.X is None:
            raise ValueError("coil eval requires --gamma and --X")
        coil = Coil(args.gamma)
        hit = travel_distance(coil, args.X)
        rec.parameters = {"gamma": args.gamma, "X": args.X}
        rec.results = {
            "delta": hit.delta,
            "ratio": hit.delta / abs(args.X),
            "bracket_index": hit.index,
            "average_ratio": average_ratio(coil, abs(args.X)),
        }
    return rec


def _cmd_simulate(args: argparse.Namespace) -> OutputRecord:
    cfg = SimConfig(seed=args.seed, samples=args.n)
    rec = OutputRecord(command=f"simulate {args.target}",
                       parameters={"n": args.n, "seed": args.seed})
    if args.target == "spiral":
        if args.kappa is None:
            raise ValueError("simulate spiral requires --kappa")
        rec.parameters["kappa"] = args.kappa
        stats = monte_carlo_mean_arclength(args.kappa, cfg)
        reference = minmean_objective(args.kappa)
    else:
        if args.gamma is None:
            raise ValueError(f"simulate {args.target} requires --gamma")
        x0 = 1.0 if args.X is None else args.X
        rec.parameters.update(gamma=args.gamma, X=x0)
        if args.target == "coil":
            stats = coil_walk_sample(args.gamma, x0, cfg)
            reference = average_ratio(Coil(args.gamma), x0)
        else:
            stats = mixed_strategy_sample(args.gamma, x0, cfg)
            reference = mixed_expected_ratio(args.gamma).expected_ratio
    z = (stats.mean - reference) / stats.std_error if stats.std_error > 0.0 else 0.0
    rec.results = {
        "mean": stats.mean, "std_error": stats.std_error, "n": stats.n,
        "min": stats.min, "max": stats.max,
        "reference": reference, "z_score": z,
    }
    return rec


def _parse_range(text: str):
    try:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ValueError("--range must be LO:HI with numeric bounds") from None
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("--range requires finite LO < HI")
    return lo, hi


def _cmd_plot_data(args: argparse.Namespace) -> str:
    lo, hi = _parse_range(args.range)
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    grid = np.linspace(lo, hi, args.points)
    if args.figure == "delta-ratio":
        if args.gamma is None:
            raise ValueError("plot-data delta-ratio requires --gamma")
        coil = Coil(args.gamma)
        rows = [(float(x), travel_distance(coil, float(x)).delta / abs(x))
                for x in grid if x != 0.0]
        header = "X,ratio"
    elif args.figure == "I":
        if args.gamma is None:
            raise ValueError("plot-data I requires --gamma")
        coil = Coil(args.gamma)
        rows = [(float(x), average_ratio(coil, float(x))) for x in grid]
        header = "X,I"
    else:
        if args.kappa is None:
            raise ValueError("plot-data spiral-path requires --kappa")
        k = Spiral(args.kappa).kappa
        rows = [(float(t), math.exp(k * t) * math.cos(t), math.exp(k * t) * math.sin(t))
                for t in grid]
        header = "theta,x,y"
    _require_finite(header.split(","), rows)
    lines = [header]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    payload = "\n".join(lines) + "\n"
    with open(args.out, "w", newline="") as fh:
        fh.write(payload)
    return f"wrote {len(rows)} rows to {args.out}\n"


def _cmd_check() -> int:
    results = checks.run_all()
    for r in results:
        print(r.line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on the first call and shared by every later
    `main` call in the process: it holds only immutable defaults, and each
    ``parse_args`` makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="shoreline",
        description="Optimal spiral and coil search paths for an unknown shoreline.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_spiral = sub.add_parser("spiral", help="spiral optima and point evaluation")
    p_spiral.add_argument("mode", choices=["minmax", "minmean", "eval"])
    p_spiral.add_argument("--kappa", type=float)
    p_spiral.add_argument("--R", type=float, default=1.0,
                          help="shoreline distance; scales lengths only")
    add_format(p_spiral)

    p_coil = sub.add_parser("coil", help="coil optima and point evaluation")
    p_coil.add_argument("mode", choices=["minmax", "minmean", "mixed", "eval"])
    p_coil.add_argument("--gamma", type=float)
    p_coil.add_argument("--X", type=float)
    add_format(p_coil)

    p_sim = sub.add_parser("simulate", help="Monte Carlo / marching verification runs")
    p_sim.add_argument("target", choices=["spiral", "coil", "mixed"])
    p_sim.add_argument("--kappa", type=float)
    p_sim.add_argument("--gamma", type=float)
    p_sim.add_argument("--X", type=float)
    p_sim.add_argument("-n", type=int, default=100_000, help="sample count")
    p_sim.add_argument("--seed", type=int, default=golden.CHECK_SEED)
    add_format(p_sim)

    p_plot = sub.add_parser("plot-data", help="emit CSV curve data (no rendering)")
    p_plot.add_argument("figure", choices=["delta-ratio", "I", "spiral-path"])
    p_plot.add_argument("--gamma", type=float)
    p_plot.add_argument("--kappa", type=float)
    p_plot.add_argument("--range", required=True,
                        help="LO:HI in X (delta-ratio, I) or theta (spiral-path); "
                             "write --range=-10:5 when LO is negative")
    p_plot.add_argument("--points", type=int, default=512)
    p_plot.add_argument("--out", required=True)

    sub.add_parser("check", help="run the acceptance suite")
    return parser


def _invocation(args: argparse.Namespace) -> str:
    """The command and the inputs it ran with, e.g.
    ``spiral eval (kappa=1000.0, R=1.0)``."""
    words, fields = ("cmd", "mode", "target", "figure"), vars(args)
    command = " ".join(fields[k] for k in words if k in fields)
    inputs = ", ".join(f"{k}={v!r}" for k, v in fields.items()
                       if k not in words + ("format", "out") and v is not None)
    return command + (f" ({inputs})" if inputs else "")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "check":
            return _cmd_check()
        if args.cmd == "plot-data":
            sys.stdout.write(_cmd_plot_data(args))
            return 0
        if args.cmd == "spiral":
            record = _cmd_spiral(args)
        elif args.cmd == "coil":
            record = _cmd_coil(args)
        else:
            record = _cmd_simulate(args)
        sys.stdout.write(emit(record, args.format))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        # libm's overflow text names neither the quantity nor the input
        detail = "result beyond the float range" if isinstance(exc, OverflowError) else exc
        print(f"numerical failure: {_invocation(args)}: {detail}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the array it cannot allocate, such as a plot grid of
        # 10^14 points (a Monte Carlo run holds one block at any n)
        detail = str(exc) or "out of memory"
        print(f"memory failure: {_invocation(args)}: {detail}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
