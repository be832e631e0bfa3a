"""Acceptance suite: every published constant and every cross-route property
the package promises, checked at fixed tolerances.

`run_all()` executes the twelve criteria and returns one result per
criterion; ``shoreline check`` prints them, and tests/test_acceptance.py
asserts them individually.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import golden
from .coil import (Coil, average_ratio, optimal_minmax_coil, optimal_minmean_coil,
                   optimal_mixed, ratio_extrema, travel_distance)
from .numerics import uniform_block
from .simulate import (_REFINE_TOL, SimConfig, _first_contacts, _inverse_table,
                       coil_marching_distance, mixed_strategy_sample, monte_carlo_mean_arclength,
                       scan_worst_ratio, spiral_first_contact)
from .spiral_geometry import Spiral, contact_distance, second_contact
from .spiral_objectives import (minimize_erroneous, minimize_minmax, minimize_minmean,
                                minmax_objective, minmax_system_objective,
                                minmax_system_residuals, solve_minmax_system,
                                solve_minmean_system)

__all__ = ["CheckResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_minmax_spiral() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    opt = minimize_minmax()
    elapsed = time.perf_counter() - t0
    conds = [
        abs(opt.kappa - golden.MINMAX_KAPPA) <= 1e-8,
        abs(opt.kappa - golden.MINMAX_KAPPA_REF) <= 1e-12,
        abs(opt.objective_value - golden.MINMAX_OBJECTIVE) <= 1e-7,
        abs(math.exp(opt.kappa) - golden.MINMAX_EXP_KAPPA) <= 1e-8,
        elapsed < 1.0,
    ]
    detail = (f"kappa={opt.kappa:.10f} objective={opt.objective_value:.10f} "
              f"exp(kappa)={math.exp(opt.kappa):.10f} runtime={elapsed:.2f}s")
    return all(conds), detail


def _check_minmax_system() -> Tuple[bool, str]:
    pair = solve_minmax_system()
    r1, r2 = minmax_system_residuals(pair)
    opt = minimize_minmax()
    sys_obj = minmax_system_objective(pair)
    conds = [
        abs(r1) < 1e-12,
        abs(r2) < 1e-12,
        abs(math.tan(pair.alpha) - opt.kappa) < 1e-12,
        abs(math.tan(pair.alpha) - golden.MINMAX_KAPPA_REF) <= 1e-12,
        abs(sys_obj - opt.objective_value) <= 1e-12 * opt.objective_value,
    ]
    detail = (f"residuals=({r1:.2e}, {r2:.2e}) tan(alpha)={math.tan(pair.alpha):.10f} "
              f"csc*sec={sys_obj:.10f}")
    return all(conds), detail


def _check_minmean_spiral() -> Tuple[bool, str]:
    opt = minimize_minmean()
    pair = solve_minmean_system()
    conds = [
        abs(opt.kappa - golden.MINMEAN_KAPPA) <= 1e-8,
        abs(opt.kappa - golden.MINMEAN_KAPPA_REF) <= 1e-12,
        abs(opt.objective_value - golden.MINMEAN_OBJECTIVE) <= 1e-7,
        abs(math.exp(opt.kappa) - golden.MINMEAN_EXP_KAPPA) <= 1e-8,
        abs(math.tan(pair.alpha) - opt.kappa) <= 1e-12,
        abs(math.tan(pair.alpha) - golden.MINMEAN_KAPPA_REF) <= 1e-12,
    ]
    detail = (f"kappa={opt.kappa:.10f} objective={opt.objective_value:.10f} "
              f"exp(kappa)={math.exp(opt.kappa):.10f} system tan(alpha)="
              f"{math.tan(pair.alpha):.10f}")
    return all(conds), detail


def _check_erratum() -> Tuple[bool, str]:
    opt = minimize_erroneous()
    k, value = opt.kappa, opt.objective_value
    true_arc = minmax_objective(k)
    # 0.22325 to five significant digits; 13.49 to within one unit of its
    # last printed digit (the published value is the minimum of the
    # erroneous objective itself, which is 13.4950...).
    conds = [abs(k - golden.ERRONEOUS_KAPPA) <= 5e-6,
             abs(value - golden.ERRONEOUS_VALUE) <= 1e-2]
    detail = (f"argmin={k:.10f} erroneous-minimum={value:.10f} "
              f"(true arclength there {true_arc:.4f})")
    return all(conds), detail


def _check_monte_carlo_spiral() -> Tuple[bool, str]:
    cfg = SimConfig(seed=golden.CHECK_SEED, samples=golden.MC_SAMPLES)
    t0 = time.perf_counter()
    stats = monte_carlo_mean_arclength(golden.MINMEAN_KAPPA, cfg)
    elapsed = time.perf_counter() - t0
    gap = abs(stats.mean - golden.MINMEAN_OBJECTIVE)
    conds = [gap <= 3.0 * stats.std_error, elapsed < 60.0]
    detail = (f"mean={stats.mean:.6f} se={stats.std_error:.6f} "
              f"z={gap / stats.std_error:+.2f} n={stats.n} runtime={elapsed:.1f}s")
    return all(conds), detail


def _check_coil_minmax() -> Tuple[bool, str]:
    gamma, ratio = optimal_minmax_coil()
    scanned = scan_worst_ratio(2.0, 100_000)
    conds = [abs(gamma - golden.COIL_MINMAX_GAMMA) <= 1e-9,
             abs(gamma - golden.COIL_MINMAX_GAMMA_REF) <= 1e-12,
             abs(ratio - golden.COIL_MINMAX_RATIO) <= 1e-9,
             scanned >= golden.COIL_MINMAX_RATIO - 1e-6,
             scanned <= golden.COIL_MINMAX_RATIO + 1e-12]
    detail = f"gamma={gamma:.12f} ratio={ratio:.12f} scan={scanned:.9f}"
    return all(conds), detail


def _check_coil_points() -> Tuple[bool, str]:
    coil = Coil(2.0)
    cfg = SimConfig(seed=0, samples=1)
    d_plus = travel_distance(coil, 1.0).delta
    d_minus = travel_distance(coil, -1.0).delta
    m_plus, m_minus = coil_marching_distance(2.0, np.array([1.0, -1.0]), cfg).tolist()
    conds = [abs(d_plus - golden.COIL_DELTA_PLUS_ONE) <= 1e-12,
             abs(d_minus - golden.COIL_DELTA_MINUS_ONE) <= 1e-12,
             abs(m_plus - d_plus) <= 1e-12,
             abs(m_minus - d_minus) <= 1e-12]
    detail = f"delta(1)={d_plus} delta(-1)={d_minus} marching=({m_plus}, {m_minus})"
    return all(conds), detail


def _check_ratio_extrema() -> Tuple[bool, str]:
    ext = ratio_extrema(Coil(2.0))
    xs = np.exp(np.linspace(0.0, 2.0 * math.log(2.0), 10_000))
    vals = np.array([average_ratio(Coil(2.0), float(x)) for x in xs])
    scan_min, scan_max = float(vals.min()), float(vals.max())
    conds = [
        abs(ext.min_value - golden.RATIO_MIN_G2) <= 1e-12,
        abs(ext.max_value - golden.RATIO_MAX_G2) <= 1e-12,
        ext.min_value - 1e-9 <= scan_min <= ext.min_value + 1e-5,
        ext.max_value - 1e-5 <= scan_max <= ext.max_value + 1e-9,
    ]
    detail = (f"closed=({ext.min_value:.12f}, {ext.max_value:.12f}) "
              f"scan=({scan_min:.9f}, {scan_max:.9f})")
    return all(conds), detail


def _check_coil_minmean() -> Tuple[bool, str]:
    opt = optimal_minmean_coil()
    conds = [abs(opt.gamma_for_min - golden.COIL_MEAN_GAMMA_FOR_MIN) <= 1e-8,
             abs(opt.gamma_for_min - golden.COIL_MEAN_GAMMA_FOR_MIN_REF) <= 1e-12,
             abs(opt.mean_min - golden.COIL_MEAN_MIN) <= 1e-8,
             abs(opt.gamma_for_max - golden.COIL_MEAN_GAMMA_FOR_MAX) <= 1e-8,
             abs(opt.gamma_for_max - golden.COIL_MEAN_GAMMA_FOR_MAX_REF) <= 1e-12,
             abs(opt.mean_max - golden.COIL_MEAN_MAX) <= 1e-8]
    detail = (f"period-min: ({opt.gamma_for_min:.10f}, {opt.mean_min:.10f}) "
              f"period-max: ({opt.gamma_for_max:.10f}, {opt.mean_max:.10f})")
    return all(conds), detail


def _check_mixed() -> Tuple[bool, str]:
    strat = optimal_mixed()
    cfg = SimConfig(seed=golden.CHECK_SEED, samples=golden.MC_SAMPLES)
    stats = mixed_strategy_sample(strat.gamma, 1.0, cfg)
    gap = abs(stats.mean - (1.0 + strat.gamma))
    conds = [abs(strat.gamma - golden.MIXED_GAMMA) <= 1e-10,
             abs(strat.gamma - golden.MIXED_GAMMA_REF) <= 1e-12,
             gap <= 3.0 * stats.std_error]
    detail = (f"gamma={strat.gamma:.12f} sampled mean={stats.mean:.6f} "
              f"z={gap / stats.std_error:+.2f}")
    return all(conds), detail


def _check_property_suites() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    failures = []

    # Oracle equivalence: closed-form travel distance vs one walk over 50
    # signed targets +-g^U(-6, 6) for each of 20 seeded g in [1.1, 8].
    u = uniform_block(12345, 0, 2020)
    cfg = SimConfig(seed=0, samples=1)
    for g, (e, side) in zip((1.1 + 6.9 * u[:20]).tolist(), u[20:].reshape(20, 2, 50)):
        xs = np.where(side < 0.5, 1.0, -1.0) * g ** (-6.0 + 12.0 * e)
        closed = np.array([travel_distance(Coil(g), x).delta for x in xs.tolist()])
        off = np.abs(closed - coil_marching_distance(g, xs, cfg)) > 1e-9 * closed
        if off.any():
            failures.append(f"oracle equivalence gamma={g} x={xs[off.argmax()]}")
            break

    # The other parameters are read in order from the next block of the stream.
    stream = iter(uniform_block(12345, 2020, 2100).tolist())

    def draw(lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * next(stream)

    # Self-similarity delta(gamma^2 x) = gamma^2 delta(x).
    for _ in range(500):
        g = draw(1.1, 8.0)
        mag = g ** draw(-6.0, 4.0)
        x = mag if draw() < 0.5 else -mag
        d1 = travel_distance(Coil(g), x).delta
        d2 = travel_distance(Coil(g), g * g * x).delta
        if abs(d2 - g * g * d1) > 1e-9 * abs(d2):
            failures.append(f"self-similarity gamma={g} x={x}")
            break

    # theta1 solves its defining equation in log form,
    # kappa*theta1 + ln cos(theta1 - omega0) = ln R, over 40 decades of R.
    for _ in range(100):
        k = draw(0.05, 2.0)
        R = 10.0 ** draw(-20.0, 20.0)
        c = second_contact(Spiral(k, R))
        if abs(k * c.theta1 + math.log(math.cos(c.theta1 - c.omega0)) - math.log(R)) > 1e-10:
            failures.append(f"theta1 defining equation kappa={k} R={R}")
            break

    # Tangency: theta0 is a double root of the contact distance to the line
    # tangent to the circle of radius R at omega0 (d = 0 and d' = 0), taken
    # at R = 1 by the shift ln(R)/kappa.
    for _ in range(200):
        k = draw(0.05, 2.0)
        R = draw(0.1, 10.0)
        contact = second_contact(Spiral(k, R))
        shift = math.log(R) / k
        th0, om0 = contact.theta0 - shift, contact.omega0 - shift
        slope = math.exp(k * th0) * (k * math.cos(th0 - om0) - math.sin(th0 - om0))
        if max(abs(contact_distance(k, om0, th0)), abs(slope)) > 1e-14:
            failures.append(f"tangency kappa={k} R={R}")
            break

    # RNG determinism: value i depends only on (seed, i), so one-value
    # blocks, a whole block and its shards all agree.
    a = [float(uniform_block(99, i, 1)[0]) for i in range(64)]
    blk = uniform_block(99, 0, 64)
    if list(blk) != a or list(uniform_block(99, 0, 64)) != a:
        failures.append("stream repeatability / block agreement")
    shards = [uniform_block(99, start, 16) for start in range(0, 64, 16)]
    if list(np.concatenate(shards)) != a:
        failures.append("shard derivation")
    s1 = monte_carlo_mean_arclength(0.5, SimConfig(seed=5, samples=2000))
    s2 = monte_carlo_mean_arclength(0.5, SimConfig(seed=5, samples=2000))
    if s1 != s2:
        failures.append("monte carlo repeatability")

    # Monte Carlo contact kernel vs the scalar reference march, on
    # stratified directions over one period.
    march = SimConfig(seed=0, samples=1, march_step=0.02)
    for k in (golden.MINMAX_KAPPA, golden.MINMEAN_KAPPA, 1.0, 5.0):
        omega0 = second_contact(Spiral(k, 1.0)).omega0
        omegas = omega0 + math.tau * (np.arange(64) + 0.5) / 64
        marched = [spiral_first_contact(k, float(w), march)[0] for w in omegas]
        if np.abs(_first_contacts(_inverse_table(k), omegas) - marched).max() > _REFINE_TOL:
            failures.append(f"monte carlo contacts vs march kappa={k}")
            break

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    detail = f"runtime={elapsed:.1f}s" + (f" failures={failures}" if failures else "")
    return ok, detail


def _check_scope_note() -> Tuple[bool, str]:
    return True, ("global optimality of spirals over all escape paths is an open "
                  "conjecture with no algorithmic content; out of scope by design")


CRITERIA: List[Tuple[int, str, Callable[[], Tuple[bool, str]]]] = [
    (1, "min-max spiral optimum", _check_minmax_spiral),
    (2, "min-max angle system", _check_minmax_system),
    (3, "min-mean spiral optimum", _check_minmean_spiral),
    (4, "erroneous-objective erratum", _check_erratum),
    (5, "Monte Carlo mean-arclength concordance", _check_monte_carlo_spiral),
    (6, "coil min-max optimum", _check_coil_minmax),
    (7, "coil point travel distances", _check_coil_points),
    (8, "normalized-average extrema", _check_ratio_extrema),
    (9, "coil min-mean optima", _check_coil_minmean),
    (10, "mixed strategy optimum", _check_mixed),
    (11, "property suites", _check_property_suites),
    (12, "scope note: spiral optimality conjecture", _check_scope_note),
]


def run_all() -> List[CheckResult]:
    results = []
    for cid, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(cid, name, passed, detail, time.perf_counter() - t0))
    return results
