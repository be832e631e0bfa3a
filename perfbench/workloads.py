"""The three seeded workloads of the shoreline benchmark.

Each workload is a fixed list of ops built from the workload seed alone;
the program sees only the generated inputs.  An op is timed by `execute`
and checked afterwards, untimed, by `verify`, which also returns the
numbers that go into the run's result digest.

* ``mc-spiral``: repeated ``simulate.monte_carlo_mean_arclength`` calls at
  march step 0.02: two at n = 1e6 (the min-mean kappa of the acceptance
  run and the min-max kappa, which grazes more often) and 100 at n = 1e4
  with kappa stratified over [0.1, 1].
* ``solve``: 1030 in-process ``cli.main`` and quadrature ops on the scalar
  path; 20 of them are domain-edge probes with a documented exit code.
* ``coil-mc``: ``mixed_strategy_sample`` at n = 1e6, ``simulate coil`` (a
  per-sample loop over ``coil_marching_distance``), ``scan_worst_ratio``
  and the criterion-8 ``average_ratio`` scan over 10 000 radii.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import struct
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Tuple

import numpy as np

WORKLOADS = ("mc-spiral", "solve", "coil-mc")
MODULES = ("numerics", "spiral_geometry", "spiral_objectives", "coil", "simulate",
           "golden", "cli")

MARCH_STEP = 0.02
BIG_N = 1_000_000
SMALL_N = 10_000
SMALL_CALLS = 100
Z_LIMIT = 5.0  # Monte Carlo means must sit within this many standard errors


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/shoreline`` package to benchmark."""


def load_program(root: str) -> SimpleNamespace:
    """Import ``shoreline`` from ``<root>/src``, never from anywhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    init = os.path.join(src, "shoreline", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no shoreline package under {src}")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"shoreline.{name}") for name in MODULES}
    if os.path.abspath(mods["cli"].__file__) != os.path.join(src, "shoreline", "cli.py"):
        raise ProgramMissing(f"shoreline was imported from outside {src}")
    return SimpleNamespace(**mods)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.  ``edge`` marks a domain-edge probe whose
    correct outcome is exit code 1 (numerical failure) or a verified
    finite result."""

    kind: str
    args: tuple
    edge: bool = False


@dataclass(frozen=True)
class CliResult:
    code: Optional[int]      # None when cli.main raised instead of returning
    raised: Optional[str]    # exception class name, if it raised
    stdout: str


@dataclass(frozen=True)
class Raised:
    name: str


# -- op generation ------------------------------------------------------------
#
# Every continuous parameter is drawn stratified: one uniform draw from each
# of `count` equal slices of its range, in shuffled order.  The inputs stay
# seeded, but every seed covers each range evenly, so the work in a pass
# hardly depends on the seed.

def _num(x: float) -> str:
    return repr(float(x))


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _draws(rng: random.Random, count: int, **ranges: Tuple[float, float]) -> List[dict]:
    """``count`` parameter sets, each range stratified independently."""
    columns = {name: _strata(rng, lo, hi, count) for name, (lo, hi) in ranges.items()}
    return [{name: col[i] for name, col in columns.items()} for i in range(count)]


def _mc_spiral_ops(rng: random.Random, g) -> List[Op]:
    ops = [Op("mc.spiral", (g.MINMEAN_KAPPA, BIG_N, rng.getrandbits(32))),
           Op("mc.spiral", (g.MINMAX_KAPPA, BIG_N, rng.getrandbits(32)))]
    ops += [Op("mc.spiral", (k, SMALL_N, rng.getrandbits(32)))
            for k in _strata(rng, 0.1, 1.0, SMALL_CALLS)]
    return ops


# Ops per `solve` pass, by kind.
SOLVE_MIX = {
    "spiral minmax": 50, "spiral minmean": 50, "spiral eval": 300,
    "coil minmax": 30, "coil minmean": 30, "coil mixed": 30, "coil eval": 300,
    "plot-data delta-ratio": 40, "plot-data I": 40, "plot-data spiral-path": 40,
    "quad": 100,
}
# Domain-edge probes per `solve` pass (about 2% of the ops): the ROADMAP
# reproducers, whose documented outcome is exit code 1.
SOLVE_EDGE = {"edge kappa-1000": 7, "edge huge-R": 7, "edge coil-overflow": 6}
# kappa, R, gamma, the exponent u of |X| = gamma^u, and t in [0, 1], which
# places plot ranges, point counts and signs.
SOLVE_RANGES = {"kappa": (0.05, 2.0), "R": (0.1, 10.0), "gamma": (1.1, 8.0),
                "u": (-6.0, 6.0), "t": (0.0, 1.0)}


def _solve_op(kind: str, p: dict, rng: random.Random, out: str) -> Op:
    kappa, radius, gamma, t = p["kappa"], p["R"], p["gamma"], p["t"]
    x = gamma ** p["u"]
    fmt = ["--format", rng.choice(("json", "csv"))]
    if kind in ("spiral minmax", "spiral minmean"):
        argv = kind.split() + ["--R", _num(radius), "--format",
                               rng.choice(("text", "json", "csv"))]
    elif kind == "spiral eval":
        argv = ["spiral", "eval", "--kappa", _num(kappa), "--R", _num(radius)] + fmt
    elif kind in ("coil minmax", "coil minmean", "coil mixed"):
        argv = kind.split() + ["--format", rng.choice(("text", "json", "csv"))]
    elif kind == "coil eval":
        # `--X=V` form: argparse reads "-5e-05" after "--X" as an option.
        target = -x if rng.random() < 0.5 else x
        argv = ["coil", "eval", "--gamma", _num(gamma), f"--X={_num(target)}"] + fmt
    elif kind.startswith("plot-data"):
        figure = kind.split()[1]
        points = 100 + int(200 * t)
        if figure == "delta-ratio":
            lo, hi = -x ** 0.25, gamma * x ** 0.5
            extra = ["--gamma", _num(gamma)]
        elif figure == "I":
            lo, hi = x ** 0.5, x ** 0.5 * gamma ** (0.5 + 3.5 * t)
            extra = ["--gamma", _num(gamma)]
        else:
            lo, hi = -10.0, -5.0 + 15.0 * t
            extra = ["--kappa", _num(kappa)]
        argv = (["plot-data", figure] + extra + [f"--range={_num(lo)}:{_num(hi)}",
                                                 "--points", str(points), "--out", out])
    elif kind == "quad":
        return Op("quad", (gamma, x))
    elif kind == "edge kappa-1000":
        return Op("cli", ("spiral", "eval", "--kappa", "1000", "--R", _num(radius),
                          "--format", "json"), edge=True)
    elif kind == "edge huge-R":
        return Op("cli", ("spiral", "eval", "--kappa", _num(5.0 + 45.0 * t),
                          "--R", "1e300", "--format", "json"), edge=True)
    elif kind == "edge coil-overflow":
        return Op("cli", ("coil", "eval", "--gamma", "1.000000001", "--X", "1e300",
                          "--format", "json"), edge=True)
    else:
        raise ValueError(kind)
    return Op("cli", tuple(argv))


def _solve_ops(rng: random.Random, out_dir: str) -> List[Op]:
    ops = []
    for kind, count in {**SOLVE_MIX, **SOLVE_EDGE}.items():
        for i, p in enumerate(_draws(rng, count, **SOLVE_RANGES)):
            out = os.path.join(out_dir, f"plot-{kind.split()[-1]}-{i}.csv")
            ops.append(_solve_op(kind, p, rng, out))
    return ops


SIM_COIL_OPS = 90
SIM_COIL_N = 1000
SCAN_OPS = 8
AVERAGE_SCAN_OPS = 8
AVERAGE_SCAN_RADII = 10_000
COIL_RANGES = {"gamma": (1.1, 8.0), "u": (-6.0, 6.0)}


def _coil_mc_ops(rng: random.Random, g) -> List[Op]:
    (mixed,) = _draws(rng, 1, **COIL_RANGES)
    ops = [Op("mc.mixed", (gamma, gamma ** rng.uniform(-6.0, 6.0), BIG_N, rng.getrandbits(32)))
           for gamma in (2.0, g.MIXED_GAMMA, mixed["gamma"])]
    for p in _draws(rng, SIM_COIL_OPS, **COIL_RANGES):
        ops.append(Op("cli", ("simulate", "coil", "--gamma", _num(p["gamma"]),
                              "--X", _num(p["gamma"] ** p["u"]), "-n", str(SIM_COIL_N),
                              "--seed", str(rng.getrandbits(32)), "--format", "json")))
    ops += [Op("scan.worst", (p["gamma"], int(p["points"])))
            for p in _draws(rng, SCAN_OPS, gamma=(1.1, 8.0), points=(1e5, 1e6))]
    ops += [Op("scan.average", (gamma,))
            for gamma in [2.0] + _strata(rng, 1.1, 8.0, AVERAGE_SCAN_OPS - 1)]
    return ops


def build(program, workload: str, seed: int, out_dir: str) -> List[Op]:
    """The op list of one pass of ``workload`` at ``seed``, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc-spiral":
        ops = _mc_spiral_ops(rng, program.golden)
    elif workload == "solve":
        ops = _solve_ops(rng, out_dir)
    elif workload == "coil-mc":
        ops = _coil_mc_ops(rng, program.golden)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def mc_draws(op: Op) -> int:
    """Monte Carlo draws an op makes (0 for ops that draw none)."""
    if op.kind == "mc.spiral":
        return op.args[1]
    if op.kind == "mc.mixed":
        return op.args[2]
    if op.kind == "cli" and op.args[:2] == ("simulate", "coil"):
        return int(op.args[op.args.index("-n") + 1])
    return 0


# -- execution (timed) ----------------------------------------------------------

def _run_cli(program, argv) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = program.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            return CliResult(exc.code if isinstance(exc.code, int) else 2, None, out.getvalue())
        except Exception as exc:  # a raw traceback is an outcome to record
            return CliResult(None, type(exc).__name__, out.getvalue())
    return CliResult(code, None, out.getvalue())


def _quad_average(program, gamma: float, x: float) -> Tuple[float, float]:
    """(1/2x) * integral of delta(s)/|s| over [-x, x] by quadrature, and the
    closed form ``coil.average_ratio`` at x.

    The integrand jumps at the turning points +gamma^(2k) and -gamma^(2k-1),
    so the ring x/gamma^2 <= |s| <= x is integrated panel by panel between
    them; self-similarity delta(gamma^2 s) = gamma^2 delta(s) makes the inner
    interval worth 1/gamma^2 of the whole, so whole = ring / (1 - gamma^-2).
    """
    coil_mod, numerics = program.coil, program.numerics
    coil = coil_mod.Coil(gamma)
    inner = x / (gamma * gamma)
    lg = math.log(gamma)

    def integrand(s: float) -> float:
        return coil_mod.travel_distance(coil, s).delta / abs(s)

    def cuts(first_exp: float) -> List[float]:
        k0 = math.floor((math.log(inner) / lg - first_exp) / 2.0)
        pts = (gamma ** (2 * k + first_exp) for k in range(k0, k0 + 4))
        return [inner] + sorted(p for p in pts if inner < p < x) + [x]

    tol = 1e-12 * x
    ring = 0.0
    for edges, sign in ((cuts(0.0), 1.0), (cuts(-1.0), -1.0)):
        for a, b in zip(edges, edges[1:]):
            lo, hi = (a, b) if sign > 0 else (-b, -a)
            ring += numerics.integrate(integrand, lo, hi, tol=tol)
    quad = ring / (1.0 - 1.0 / (gamma * gamma)) / (2.0 * x)
    return quad, coil_mod.average_ratio(coil, x)


def execute(program, op: Op):
    """Run one op and return its raw result.  Ordinary exceptions become a
    `Raised` result, which verification counts as a failure."""
    if op.kind == "cli":
        return _run_cli(program, op.args)
    sim = program.simulate
    try:
        if op.kind == "mc.spiral":
            kappa, n, seed = op.args
            return sim.monte_carlo_mean_arclength(
                kappa, sim.SimConfig(seed=seed, samples=n, march_step=MARCH_STEP))
        if op.kind == "mc.mixed":
            gamma, x, n, seed = op.args
            return sim.mixed_strategy_sample(gamma, x, sim.SimConfig(seed=seed, samples=n))
        if op.kind == "scan.worst":
            return sim.scan_worst_ratio(*op.args)
        if op.kind == "scan.average":
            coil_mod = program.coil
            coil = coil_mod.Coil(op.args[0])
            xs = np.exp(np.linspace(0.0, 2.0 * math.log(op.args[0]), AVERAGE_SCAN_RADII))
            vals = [coil_mod.average_ratio(coil, float(x)) for x in xs]
            return min(vals), max(vals)
        if op.kind == "quad":
            return _quad_average(program, *op.args)
    except Exception as exc:
        return Raised(type(exc).__name__)
    raise ValueError(f"unknown op kind {op.kind!r}")


WARM_UP = {
    "mc-spiral": Op("mc.spiral", (0.5, 1000, 1)),
    "solve": Op("cli", ("coil", "eval", "--gamma", "2.0", "--X", "3.0", "--format", "json")),
    "coil-mc": Op("mc.mixed", (2.0, 1.0, 1000, 1)),
}


def warm_up(program, workload: str) -> None:
    """The untimed warm-up op that ends a workload's set-up."""
    if not verify(program, WARM_UP[workload], execute(program, WARM_UP[workload]))[0]:
        raise RuntimeError(f"warm-up op of {workload} failed verification")


# -- verification (untimed) ---------------------------------------------------

def _close(value: float, want: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - want) <= tol


def _parse_cli(fmt: str, stdout: str) -> dict:
    """Result fields of one CLI record, as numbers where they parse."""
    if fmt == "json":
        return json.loads(stdout)["results"]
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(stdout)))
        fields = dict(zip(header, row))
        pairs = [(k, v) for k, v in fields.items()
                 if k != "command" and not k.startswith("param.")]
    else:
        pairs = [line.split(" = ", 1) for line in stdout.splitlines()]
        pairs = [(k, v) for k, v in pairs
                 if k != "command" and not k.startswith(("param.", "diag."))]
    return {k: float(v) for k, v in pairs}


def _check_spiral_optimum(program, argv, res: dict) -> bool:
    g = program.golden
    radius = float(_arg(argv, "--R"))
    if argv[1] == "minmax":
        kappa, objective, exp_kappa = g.MINMAX_KAPPA, g.MINMAX_OBJECTIVE, g.MINMAX_EXP_KAPPA
    else:
        kappa, objective, exp_kappa = g.MINMEAN_KAPPA, g.MINMEAN_OBJECTIVE, g.MINMEAN_EXP_KAPPA
    # Tolerances of checks.py criteria 1-3, with lengths scaled by R.
    return (_close(res["kappa"], kappa, 1e-8)
            and _close(res["objective"], radius * objective, 1e-7 * radius)
            and _close(res["exp_kappa"], exp_kappa, 1e-8)
            and _close(res["system_kappa"], res["kappa"], 1e-8)
            and _close(res["system_objective"], res["objective"], 1e-7 * radius))


def _check_spiral_eval(argv, res: dict) -> bool:
    kappa = float(_arg(argv, "--kappa"))
    radius = float(_arg(argv, "--R"))
    th1, om0 = res["theta1"], res["omega0"]
    if not all(math.isfinite(v) for v in res.values()):
        return False
    residual = math.exp(kappa * th1) * math.cos(th1 - om0) - radius
    minmax = math.sqrt(1.0 + kappa * kappa) / kappa * math.exp(kappa * th1)
    return (abs(residual) <= 1e-9 * radius
            and _close(res["minmax_objective"], minmax, 1e-9 * minmax))


def _check_coil_eval(program, argv, res: dict) -> bool:
    gamma = float(_arg(argv, "--gamma"))
    x = float(_arg(argv, "--X"))
    if not all(math.isfinite(v) for v in res.values()):
        return False
    cfg = program.simulate.SimConfig(seed=0, samples=1)
    marched = program.simulate.coil_marching_distance(gamma, x, cfg)
    return (_close(res["delta"], marched, 1e-9 * marched)
            and _close(res["ratio"], res["delta"] / abs(x), 1e-12 * res["ratio"]))


def _check_coil_optimum(program, mode: str, res: dict) -> bool:
    g = program.golden
    if mode == "minmax":
        return (_close(res["gamma"], g.COIL_MINMAX_GAMMA, 1e-9)
                and _close(res["ratio"], g.COIL_MINMAX_RATIO, 1e-9))
    if mode == "minmean":
        return (_close(res["gamma_for_min"], g.COIL_MEAN_GAMMA_FOR_MIN, 1e-8)
                and _close(res["mean_min"], g.COIL_MEAN_MIN, 1e-8)
                and _close(res["gamma_for_max"], g.COIL_MEAN_GAMMA_FOR_MAX, 1e-8)
                and _close(res["mean_max"], g.COIL_MEAN_MAX, 1e-8))
    # Text output carries 10 significant digits, below criterion 10's 1e-10.
    return (_close(res["gamma"], g.MIXED_GAMMA, 1e-9)
            and _close(res["expected_ratio"], 1.0 + res["gamma"], 1e-8))


def _check_simulate_coil(program, argv, res: dict) -> bool:
    gamma = float(_arg(argv, "--gamma"))
    x = float(_arg(argv, "--X"))
    reference = program.coil.average_ratio(program.coil.Coil(gamma), x)
    return (res["n"] == int(_arg(argv, "-n"))
            and _close(res["mean"], reference, Z_LIMIT * res["std_error"]))


def _check_plot(argv, stdout: str) -> Tuple[bool, List[float]]:
    lo, hi = (float(v) for v in _arg(argv, "--range").split(":", 1))
    points = int(_arg(argv, "--points"))
    grid = np.linspace(lo, hi, points)
    rows = int(np.count_nonzero(grid != 0.0)) if argv[1] == "delta-ratio" else points
    path = _arg(argv, "--out")
    with open(path) as fh:
        lines = fh.read().splitlines()
    values = [float(v) for line in lines[1:] for v in line.split(",")]
    ok = stdout == f"wrote {rows} rows to {path}\n" and len(lines) == rows + 1
    return ok and all(math.isfinite(v) for v in values), values


def _arg(argv, name: str) -> str:
    """Value of option ``name`` in ``argv``, given as `name V` or `name=V`."""
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    raise KeyError(name)


def _verify_cli(program, op: Op, result: CliResult) -> Tuple[bool, List[float]]:
    argv = op.args
    if result.code is None:
        return False, []
    if result.code != 0:
        # A numerical failure is the documented outcome for a domain-edge input.
        return op.edge and result.code == 1, [float(result.code)]
    if argv[0] == "plot-data":
        return _check_plot(argv, result.stdout)
    fmt = _arg(argv, "--format")
    try:
        res = _parse_cli(fmt, result.stdout)
        numbers = [float(v) for v in res.values()]
    except (ValueError, KeyError, TypeError):
        return False, []
    try:
        if argv[0] == "spiral":
            ok = (_check_spiral_eval(argv, res) if argv[1] == "eval"
                  else _check_spiral_optimum(program, argv, res))
        elif argv[0] == "coil":
            ok = (_check_coil_eval(program, argv, res) if argv[1] == "eval"
                  else _check_coil_optimum(program, argv[1], res))
        else:
            ok = _check_simulate_coil(program, argv, res)
    except (KeyError, ValueError, OverflowError):
        ok = False
    return ok, numbers


def verify(program, op: Op, result) -> Tuple[bool, List[float]]:
    """Check one op's output; return (passed, numbers for the digest)."""
    if isinstance(result, Raised):
        return False, []
    if op.kind == "cli":
        return _verify_cli(program, op, result)
    if op.kind in ("mc.spiral", "mc.mixed"):
        if op.kind == "mc.spiral":
            n = op.args[1]
            reference = program.spiral_objectives.minmean_objective(op.args[0])
        else:
            n = op.args[2]
            reference = program.coil.mixed_expected_ratio(op.args[0]).expected_ratio
        numbers = [result.mean, result.std_error, result.n, result.min, result.max]
        ok = result.n == n and _close(result.mean, reference, Z_LIMIT * result.std_error)
        return ok, numbers
    if op.kind == "scan.worst":
        worst = program.coil.worst_case_ratio(program.coil.Coil(op.args[0]))
        # Criterion 6 tolerances, relative to the closed-form supremum.
        return worst * (1.0 - 1e-6) <= result <= worst * (1.0 + 1e-12), [result]
    if op.kind == "scan.average":
        ext = program.coil.ratio_extrema(program.coil.Coil(op.args[0]))
        lo, hi = result
        # Criterion 8 tolerances, relative to the closed-form extrema.
        ok = (ext.min_value * (1.0 - 1e-9) <= lo <= ext.min_value * (1.0 + 2e-6)
              and ext.max_value * (1.0 - 2e-6) <= hi <= ext.max_value * (1.0 + 1e-9))
        return ok, [lo, hi]
    if op.kind == "quad":
        quad, closed = result
        return _close(quad, closed, 1e-9 * closed), [quad, closed]
    raise ValueError(f"unknown op kind {op.kind!r}")


def digest_update(h, op: Op, passed: bool, numbers: List[float]) -> None:
    """Fold one op's outcome into a result digest (exact float bits)."""
    h.update(f"{op.kind}|{int(passed)}|{len(numbers)}|".encode())
    for v in numbers:
        h.update(struct.pack("<d", float(v)))
