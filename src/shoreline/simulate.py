"""Independent verification oracles.

Nothing here trusts the closed forms it is used to check: a single spiral
first contact is found by marching the trajectory against the line and
refining the detected sign change with `find_root`; coil travel distances,
for an array of targets at once, by testing one window of zig-zag segments
(its width a proven bound) on the libm turning points `bracket_ratio` reads
and solving the first enclosing one exactly; the Monte Carlo drivers
average primitive measurements over seeded, reproducible random draws.

The spiral Monte Carlo driver needs no march.  The spiral can reach the
line only on the windows |theta - omega - 2*pi*m| < pi/2 (integer m).  On
each, the log distance g(theta) = kappa*theta + ln cos(theta - omega) is
concave and peaks at omega + 2*pi*m + atan(kappa); the m = 0 peak is >= 0
exactly when omega >= omega0, and each peak is 2*pi*kappa below the next.
So for omega in [omega0, omega0 + 2*pi) no earlier window reaches the line,
and the first contact is the left root of g on the fixed bracket
(omega - pi/2, omega + atan(kappa)], where g increases.

In t = theta - omega that root solves one equation for every sample,
H(t) = kappa*t + ln cos t = -kappa*omega on (-pi/2, atan(kappa)], where omega
enters only on the right.  So each Monte Carlo call inverts H once, as a
table of t against s = sqrt(kappa*(omega - omega0)) (the root of the peak's
height above the level: t stays smooth even at tangency, s = 0), sized to its
own Hermite error measured at the cell midpoints, and each sample takes a
cubic guess from its cell.  The table only steers: a guess is kept when the
contact sign test shows a sign change of g within _REFINE_TOL/2 of it, the
guarantee bisection gives, and any other row is bisected on its window
bracket by `_bisect_contacts`.  The table and the sign test read ln cos t
from one formula, `_log_cos`: -log1p(tan^2 t)/2, and -inf wherever
|t| > pi/2, on both sides of the window, so the sign test is False exactly
where cos t <= 0.  The scalar reference march `spiral_first_contact` shares
neither the sign test nor the bisection: it reads the product-form distance
`contact_distance` and stays the independent check.

The random stream is counter-based, so a run of n samples always consumes
stream positions 0..n-1, and the block ``uniform_block(seed, start, count)``
holds exactly the values a serial run draws at those positions.  The three
Monte Carlo drivers (spiral mean, mixed coil, coil walk) share one loop,
`_sample`, over fixed, cache-sized blocks of positions, and the worst-ratio
scan runs over blocks of its one-period grid; since every sample and grid
point is solved on its own, the samples do not depend on the block size.
No call holds more than a block of them: `_summarize` reduces each block and
merges the blocks' moments, and the spiral driver solves every block in one
workspace allocated per call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Tuple

import numpy as np

from .coil import _check_departure, _check_gamma, _turning_points, bracket_ratio
from .numerics import (Bracket, NumericalError, _check_positive, _golden_section, find_root,
                       uniform_block)
from .spiral_geometry import Spiral, arclength, contact_distance, tangent_contact

__all__ = ["SimConfig", "spiral_first_contact", "monte_carlo_mean_arclength",
           "coil_marching_distance", "coil_walk_sample", "mixed_strategy_sample",
           "scan_worst_ratio"]

# A line counts as touched when the marched distance comes within this of
# zero at a local maximum; tangential grazes then resolve to the maximum
# point instead of to a contact a full turn later.
_GRAZE_TOL = 1e-9

# The Monte Carlo contacts are certified, or bisected, to a bracket this
# narrow.
_REFINE_TOL = 1e-10

# Samples solved together by each Monte Carlo driver (`_sample`), and grid
# points by `scan_worst_ratio`: the working set of one block (a few arrays of
# this length) stays in a core's cache.
_BLOCK = 16384

# Float rows of a block that `_first_contacts` cuts its buffers from.
_CONTACT_ROWS = 7

# The inverse table starts at _COARSE_CELLS equal steps of s and takes more,
# up to _TABLE_CELLS, only while its Hermite error, measured at the cell
# midpoints, exceeds _TABLE_TOL: every kappa in [0.1, 1] keeps 512 cells,
# kappa = 5 takes 2048, and from about kappa = 20 it stops at the cap above
# the tolerance.  Newton on its levels stops once none moves by more than
# _NEWTON_TOL, after 2-4 steps from its guesses, or at _NEWTON_CAP.  The
# certificate still decides every row: none is bisected in a 1e6-sample run at
# kappa <= 20, 0.24% and 1.8% are at kappa = 30 and 100.
_COARSE_CELLS, _TABLE_CELLS, _TABLE_TOL = 512, 4096, _REFINE_TOL / 8
_NEWTON_TOL, _NEWTON_CAP = 1e-13, 8

# The coarse table's grid of t as fractions of [-pi/2, atan(kappa)], kappa-free:
# the equal steps and points approaching -pi/2 geometrically, where t falls
# fast as s grows at large kappa.
_FRACTION = np.sort(np.concatenate((np.linspace(0.0, 1.0, _COARSE_CELLS + 1),
                                    np.geomspace(1e-17, 1.0, 256))))


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    ``march_step`` is in radians for the scalar spiral march
    `spiral_first_contact` (the coil walk runs over arrays of targets and is
    segment-exact).  `find_root` refines each crossing to a bracket half-width
    of 2*eps*|theta| regardless of the march step; the step only controls
    how finely crossings are scouted, near-tangent cases being caught by the
    grazing band.  The Monte Carlo drivers do not read it.  ``seed`` and
    ``samples`` are integers, read with ``operator.index``; ``samples`` runs
    from 1 to 2^53, beyond which a count, and n - 1 in the standard error,
    is no longer exact as a double."""

    seed: int = 0
    samples: int = 100_000
    march_step: float = 1e-3

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or isinstance(self.samples, bool):
            raise TypeError("seed and samples must be integers, not bool")
        operator.index(self.seed)  # a float, even 2.0, is a TypeError
        if not 1 <= operator.index(self.samples) <= 2 ** 53:
            raise ValueError(f"samples must be >= 1 and <= 2**53, not {self.samples!r}")
        _check_positive("march_step", self.march_step)


@dataclass(frozen=True)
class SampleStats:
    """Summary of a Monte Carlo sample, as `_summarize` merges it from blocks."""

    mean: float
    std_error: float
    n: int
    min: float
    max: float

    def __post_init__(self) -> None:
        if self.std_error < 0.0 or not self.min <= self.mean <= self.max:
            raise ValueError("inconsistent sample statistics")


def _summarize(blocks: Iterable[np.ndarray]) -> SampleStats:
    """SampleStats of the samples in ``blocks``, 1-D arrays that are reduced
    in place (each ends holding its squared deviations); the standard error
    uses the n-1 denominator.

    Each block takes the steps ``values.std(ddof=1)`` runs on its own copy
    (the mean, the deviations, their squares, one `np.add.reduce` to M2), so
    one block gives se = sqrt(M2/(n-1))/sqrt(n) bit for bit as numpy does.
    The blocks' (count, mean, M2, min, max) are merged in order by the
    pairwise update of Chan, Golub & LeVeque (The American Statistician
    37(3), 1983); the merged mean and standard error lie within 1e-14
    relative of one whole array's, and the mean is clamped into [min, max].
    Raises NumericalError when a sample or a statistic is not finite."""
    n, mean, m2, lo, hi = 0, math.nan, math.nan, math.nan, math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        for values in blocks:
            count = int(values.size)
            b_lo, b_hi = float(values.min()), float(values.max())
            b_mean = float(values.mean())
            np.subtract(values, b_mean, out=values)
            np.multiply(values, values, out=values)
            b_m2 = float(np.add.reduce(values))
            del values  # freed before the next block is drawn, which reuses its heap
            if not n:
                n, mean, m2, lo, hi = count, b_mean, b_m2, b_lo, b_hi
                continue
            total, delta = n + count, b_mean - mean
            mean += delta * (count / total)
            m2 += b_m2 + delta * delta * (n * count / total)
            n, lo, hi = total, min(lo, b_lo), max(hi, b_hi)
    mean = min(max(mean, lo), hi)  # a sum of equal samples can round the mean past them
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    if not all(map(math.isfinite, (mean, se, lo, hi))):
        raise NumericalError("non-finite sample statistics")
    return SampleStats(mean=mean, std_error=se, n=n, min=lo, max=hi)


def _log_cos(t, out=None):
    """ln cos t as -log1p(tan(t)^2)/2, elementwise, into ``out`` (which may be
    ``t``; a new array when not given, 0-d for a float).  It is -inf wherever
    |t| > 0.5*math.pi, on both sides, as past the pole tan is finite again:
    among doubles that is exactly where cos t <= 0 (cos(+-1.5707963267948966)
    = 6.1e-17, and the next double outward gives -1.6e-16).  NaN stays NaN.
    It is within a few ulps relative, also near t = 0, where ln(cos t) is only
    accurate absolutely; numpy 2.4 vectorizes float64 tan and log1p, not cos."""
    outside = np.abs(t) > 0.5 * math.pi  # read before ``out`` is written
    g = np.tan(t, out=np.empty(np.shape(t)) if out is None else out)
    g *= g
    np.log1p(g, out=g)
    g *= -0.5
    np.copyto(g, -np.inf, where=outside)
    return g


def _on_or_past(kappa: float, thetas, omegas, out=(None, None, None)):
    """The contact sign test, d(theta) >= 0, elementwise.

    It reads the log distance kappa*theta + `_log_cos`(theta - omega), which
    has the sign of d = e^(kappa*theta) cos(theta - omega) - 1 where the
    cosine is positive and never overflows; where the cosine is not positive
    d < 0, and the -inf logarithm (or NaN) compares False.  So a bracket may
    reach back to a window edge, omega - pi/2, as the Monte Carlo window
    bracket does.  ``out`` may name buffers for the log distance, for
    kappa*theta (``thetas`` itself, which is then overwritten) and for the
    result."""
    g, scaled, result = out
    with np.errstate(invalid="ignore"):
        g = _log_cos(np.subtract(thetas, omegas, out=g), out=g)
        g += np.multiply(kappa, thetas, out=scaled)
        return np.greater_equal(g, 0.0, out=result)


def _bisect_contacts(kappa: float, omegas, lo, hi):
    """Contact angles in the brackets [lo, hi], d(lo) < 0 <= d(hi), elementwise:
    the Monte Carlo fallback for rows whose table guess fails the
    certificate.  Every row takes the widest bracket's
    ceil(log2(width / _REFINE_TOL)) steps of `_on_or_past`."""
    width = float(np.max(hi - lo))
    for _ in range(max(0, math.ceil(math.log2(width / _REFINE_TOL)))):
        mid = 0.5 * (lo + hi)
        on_or_past = _on_or_past(kappa, mid, omegas)
        hi = np.where(on_or_past, mid, hi)
        lo = np.where(on_or_past, lo, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class _InverseTable:
    """One kappa's inverse of H(t) = kappa*t + ln cos t (module docstring):
    t = theta - omega as cubic Hermite pieces in s = sqrt(kappa*(omega - omega0)),
    ``coef[i, k]`` the u^k coefficient of cell i of ``cells``, u = s/step - i.
    ``error`` is the largest move of a Newton step from a cell's midpoint, u = 1/2."""

    kappa: float
    omega0: float
    inv_step: float
    coef: np.ndarray
    cells: int
    error: float


def _inverse_table(kappa: float) -> _InverseTable:
    """The inverse table for directions in [omega0, omega0 + 2*pi).

    Level j solves H(t) = H_max - s_j^2, with H_max = H(atan(kappa)) =
    -kappa*omega0 and s_j = j*step, by Newton steps until none moves by more
    than _NEWTON_TOL; dt/ds = -2s/H'(t), and -sqrt(2/(1 + kappa^2)) at the peak.
    The first table starts from `np.interp` on the grid `_FRACTION`.  While a
    table's error e exceeds _TABLE_TOL, the next has 2^ceil(log2(e/_TABLE_TOL)/4)
    times its cells (the error goes as step^4), at most _TABLE_CELLS, and starts
    from its cubic.  A level whose root lies closer to -pi/2 than a double
    resolves stays at -pi/2, the contact to rounding.  A kappa whose
    tau*kappa^2 overflows is a NumericalError: the steps are not finite there."""
    if not math.isfinite(math.tau * kappa * kappa):
        raise NumericalError("tau*kappa^2 is beyond the float range")
    _, omega0 = tangent_contact(Spiral(kappa, 1.0))
    top, h_max, span = math.atan(kappa), -kappa * omega0, math.sqrt(math.tau * kappa)
    grid = -0.5 * math.pi + (top + 0.5 * math.pi) * _FRACTION
    table, cells = None, _COARSE_CELLS

    def newton(level: np.ndarray, t: np.ndarray) -> np.ndarray:  # a t past -pi/2 steps to it
        return np.clip(t - (kappa * t + _log_cos(t) - level) / (kappa - np.tan(t)),
                       -0.5 * math.pi, top)

    with np.errstate(divide="ignore", invalid="ignore"):
        grid_s = np.sqrt(np.maximum(h_max - kappa * grid - _log_cos(grid), 0.0))
        while True:
            step = span / cells
            s = step * np.arange(cells + 1)
            level = h_max - s[1:] * s[1:]
            if table is None:
                t = np.interp(s[1:], grid_s[::-1], grid[::-1])
            else:  # the last table's cubics at u = j/r, j = 1..r, r = cells/table.cells
                u = np.arange(1, cells // table.cells + 1) * (table.cells / cells)
                t = (table.coef @ u ** np.arange(4)[:, None]).ravel()
            for _ in range(_NEWTON_CAP):
                t, last = newton(level, t), t
                if not np.abs(t - last).max() > _NEWTON_TOL:
                    break
            t = np.concatenate(([top], t))
            slope = -2.0 * step * s / (kappa - np.tan(t))
            slope[0] = -step * math.sqrt(2.0 / (1.0 + kappa * kappa))
            rise = np.diff(t)
            coef = np.stack((t[:-1], slope[:-1], 3.0 * rise - 2.0 * slope[:-1] - slope[1:],
                             slope[:-1] + slope[1:] - 2.0 * rise), axis=1)
            mid = coef @ np.array([1.0, 0.5, 0.25, 0.125])  # each cubic at u = 1/2
            error = float(np.abs(newton(h_max - (s[:-1] + 0.5 * step) ** 2, mid) - mid).max())
            table = _InverseTable(kappa, omega0, 1.0 / step, coef, cells, error)
            if error <= _TABLE_TOL or cells == _TABLE_CELLS:
                return table
            grow = 0.25 * math.log2(np.fmin(error, 1.0) / _TABLE_TOL)  # NaN or inf reads 1
            cells = min(_TABLE_CELLS, cells << math.ceil(grow))


def _first_contacts(table: _InverseTable, omegas: np.ndarray,
                    work: np.ndarray | None = None) -> np.ndarray:
    """First contact angles for directions in [omega0, omega0 + 2*pi) at the
    table's kappa.

    Each row's guess from the table is kept when `_on_or_past` is False at
    guess - _REFINE_TOL/2 and True at guess + _REFINE_TOL/2, so it lies
    within _REFINE_TOL/2 of a sign change of the window's increasing branch,
    as a bisected contact does; NaN fails the test.  The other rows are
    bisected on the window bracket (omega - pi/2, omega + atan(kappa)].
    The kernel's buffers are cut from ``work``, a float array of at least
    _CONTACT_ROWS * omegas.size values (allocated when not given), and the
    contacts are returned in one of them."""
    kappa, n = table.kappa, omegas.size
    if work is None:
        work = np.empty(_CONTACT_ROWS * n)
    x, thetas, g = work[:n], work[n:2 * n], work[2 * n:3 * n]
    cell, coef = g.view(np.intp), work[3 * n:7 * n].reshape(n, 4)
    np.subtract(omegas, table.omega0, out=x)
    x *= kappa
    np.sqrt(x, out=x)
    x *= table.inv_step
    np.copyto(cell, x, casting="unsafe")
    np.minimum(cell, table.cells - 1, out=cell)
    x -= cell  # u, the offset in the cell
    # cell is in range; mode "raise" would write through a buffered copy of out
    table.coef.take(cell, axis=0, out=coef, mode="clip")
    np.multiply(x, coef[:, 3], out=thetas)  # a0 + u*(a1 + u*(a2 + u*a3))
    for k in (2, 1, 0):
        thetas += coef[:, k]
        if k:
            thetas *= x
    thetas += omegas
    # the certificate, with the probes in x and the flags in coef's rows
    flags, half = work[3 * n:4 * n].view(bool), 0.5 * _REFINE_TOL
    low, high = flags[:n], flags[n:2 * n]
    _on_or_past(kappa, np.subtract(thetas, half, out=x), omegas, (g, x, low))
    _on_or_past(kappa, np.add(thetas, half, out=x), omegas, (g, x, high))
    miss = np.flatnonzero(np.greater_equal(low, high, out=low))  # low | ~high
    if miss.size:
        w = omegas[miss]
        thetas[miss] = _bisect_contacts(kappa, w, w - 0.5 * math.pi, w + math.atan(kappa))
    return thetas


def spiral_first_contact(kappa: float, omega: float, cfg: SimConfig) -> Tuple[float, float]:
    """First contact of the spiral with the line tangent to the unit circle
    at angle ``omega``, by trajectory marching.

    Marches theta upward from min(0, omega) - 2*pi in steps of
    ``cfg.march_step``, evaluating the signed distance d(theta) =
    `contact_distance` exactly; the first sign change is refined by
    `find_root` on d to the last bits of theta.  A marched local maximum of d inside the grazing band
    (~ |d''| * h^2) is refined by golden-section search: if the refined peak
    is positive the left crossing of the narrow excursion is refined the same
    way; if it is within _GRAZE_TOL of zero the contact is tangential and the
    peak itself is returned (accurate to ~1e-6 at an exact double root, where
    transversal refinement is impossible); otherwise the near miss is real
    and the march continues.  A crossing in the first half turn means a bad
    start; the march gives up after four turns.  Nothing here is shared with
    the Monte Carlo kernel that this march checks.

    Returns (theta_hit, arclength to theta_hit).
    """
    _check_positive("kappa", kappa)
    distance = functools.partial(contact_distance, kappa, omega)

    def contact(lo: float, hi: float) -> Tuple[float, float]:
        hit = find_root(distance, Bracket(lo, hi)).root_or_argmin
        return hit, arclength(kappa, hit)

    h = cfg.march_step
    band = (1.0 + kappa * kappa) ** 1.5 * h * h
    guard_steps, max_steps = int(math.ceil(math.pi / h)), int(math.ceil(8.0 * math.pi / h))
    theta = min(0.0, omega) - math.tau
    d = distance(theta)
    if d >= 0.0:
        raise NumericalError("march started on or past the line")
    for step in range(1, max_steps + 1):
        theta2 = theta + h
        d2 = distance(theta2)
        if d2 >= 0.0:
            if step <= guard_steps:
                raise NumericalError("contact inside the safety margin of the march")
            return contact(theta, theta2)
        if d >= -band and d2 < d:
            lo, hi, _ = _golden_section(lambda t: -distance(t), theta - h, theta2, 1e-10)
            peak = 0.5 * (lo + hi)
            d_peak = distance(peak)
            if d_peak > 0.0:
                return contact(theta - h, peak)
            if d_peak >= -_GRAZE_TOL:
                return peak, arclength(kappa, peak)
        theta, d = theta2, d2
    raise NumericalError("no contact found")


def _sample(cfg: SimConfig, measure: Callable[[np.ndarray], np.ndarray]) -> SampleStats:
    """`_summarize` of ``measure(u)`` over the stream values u at positions
    0 .. cfg.samples - 1, _BLOCK at a time; each block is a fresh array that
    ``measure`` may overwrite, and each array it returns is reduced in place
    before the next block is drawn.  A non-finite value is left to
    `_summarize` to classify, without numpy warnings."""
    n = cfg.samples
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _summarize(measure(uniform_block(cfg.seed, start, min(_BLOCK, n - start)))
                          for start in range(0, n, _BLOCK))


def monte_carlo_mean_arclength(kappa: float, cfg: SimConfig) -> SampleStats:
    """Mean first-contact arclength over shoreline directions drawn
    uniformly from one full period [omega0, omega0 + 2*pi).

    The call builds one `_inverse_table` for kappa and one block workspace,
    and passes both to every block's `_first_contacts`: each direction's
    contact is the left root of the log distance on its window
    (omega - pi/2, omega + atan(kappa)], guessed from the table and kept
    only under the sign-change certificate, else bisected there.  An
    arclength beyond the float range is a NumericalError.
    """
    _check_positive("kappa", kappa)
    table = _inverse_table(kappa)
    factor = math.sqrt(1.0 + kappa * kappa) / kappa
    work = np.empty(_CONTACT_ROWS * min(cfg.samples, _BLOCK))

    def measure(u: np.ndarray) -> np.ndarray:
        u *= math.tau  # the directions omega0 + tau*u, in place
        u += table.omega0
        lengths = _first_contacts(table, u, work)
        lengths *= kappa  # factor * e^(kappa*theta), in place
        np.exp(lengths, out=lengths)
        lengths *= factor
        return lengths

    return _sample(cfg, measure)


def coil_marching_distance(gamma: float, x: float | np.ndarray,
                           cfg: SimConfig) -> float | np.ndarray:
    """Travel distance to each signed target in ``x`` (a float gives a float)
    by walking the coil's segments; ``cfg`` is unused.  Segment k sweeps from
    (-gamma)^k to (-gamma)^(k+1); the first whose ends enclose x is solved
    exactly.  Each row tests one window of segments from k0 = floor(r - e) - 2,
    before which none reaches |x| (r = ln|x|/ln(gamma), e = 2^-49*|r| bounds
    its rounding), on `bracket_ratio`'s libm turning points (`_turning_points`)
    negated at odd k as (-gamma)**k is, for |k| < 2^53 (past it k is even).
    The table holds one window per k0 in [min k0, max k0], indexed by
    k0 - min k0, or, when that span is longer than the rows, one per distinct
    k0.  A hit segment ending past the float range or starting subnormal
    (`coil._check_departure`) raises."""
    _check_gamma(gamma)
    xs = np.asarray(x, dtype=float).reshape(-1)
    if not xs.all():
        raise ValueError("target at origin")
    if not np.isfinite(xs).all():
        raise NumericalError("non-finite target")
    r = np.log(np.abs(xs)) / math.log(gamma)
    e = 2.0 ** -49 * np.abs(r)
    k0 = np.floor(r - e).astype(np.int64) - 2
    least, most = int(k0.min()), int(k0.max())
    if most - least < xs.size:  # as `bracket_ratio` builds its table
        first, group = np.arange(least, most + 1), np.subtract(k0, least, out=k0)
    else:  # a few rows over a wide span
        first, group = np.unique(k0, return_inverse=True)
    # Segment m - 1 encloses x if (-1)^m*x > 0 and pow(gamma, m) >= |x|: once m >= rho + d, for
    # rho = ln|x|/ln(gamma) exact and d = -ln(1 - 2^-52)/ln(gamma) < 2^-51/ln(gamma), as pow errs
    # by < 2^-52.  So the first hit h <= ceil(r + e + d), and h - k0 <= floor(2e + d) + 4.
    width = 5 + math.floor(2.0 * float(e.max()) + 2.0 ** -51 / math.log(gamma))
    if max(-first[0], first[-1] + width) >= 2 ** 53:
        raise NumericalError("turning-point index beyond exact doubles")
    ks = first + np.arange(width + 1)[:, None]  # k by position and k0; an overflow reads +-inf
    turns = _turning_points(gamma, ks.ravel()).reshape(ks.shape) * np.where(ks % 2, -1.0, 1.0)
    low, high = np.minimum(turns[:-1], turns[1:]), np.maximum(turns[:-1], turns[1:])
    at = np.full(xs.size, -1)  # first.size times each row's first hit in the window
    for j in range(width - 1, -1, -1):  # the last one written is the first
        np.copyto(at, j * first.size, where=(low[j][group] <= xs) & (xs <= high[j][group]))
    if (at < 0).any():
        raise NumericalError("no segment reached the target")
    at += group  # the hit segment's start in the flattened table
    start, end = turns.take(at), turns.take(at + first.size)
    if np.isinf(end).any():
        raise NumericalError("overflow: target beyond representable sweeps")
    mag = np.abs(start)
    _check_departure(float(mag.min()))
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = (gamma + 1.0) * mag * (1.0 / (gamma - 1.0) + (xs - start) / (end - start))
    return float(deltas[0]) if np.ndim(x) == 0 else deltas


def coil_walk_sample(gamma: float, x0: float, cfg: SimConfig) -> SampleStats:
    """Sampled travel ratio delta(X)/|X| of the coil walk over targets X drawn
    uniformly from [-x0, x0); a draw at the origin, of measure zero, is moved
    to x0."""
    _check_positive("X", x0)
    width = 2.0 * x0

    def measure(u: np.ndarray) -> np.ndarray:
        if math.isfinite(width):
            u *= width  # the targets u*(2*x0) - x0, in place
            u -= x0
        else:  # 2*x0 overflows: the same targets as x0*(2u - 1)
            u *= 2.0
            u -= 1.0
            u *= x0
        u[u == 0.0] = x0
        return coil_marching_distance(gamma, u, cfg) / np.abs(u)

    return _sample(cfg, measure)


def mixed_strategy_sample(gamma: float, x: float, cfg: SimConfig) -> SampleStats:
    """Sampled travel ratio delta(x)/x of the phase-randomized coil: a phase
    H uniform on [0, 2) scales every turning point by gamma^H, so the ratio
    at x is the deterministic coil's at x*gamma^(-H).  With
    gamma^(2i+H) < x <= gamma^(2i+2+H), delta(x)/x =
    1 + 2*gamma^(2i+2+H)/((gamma-1)*x) = `bracket_ratio`(gamma, x*gamma^(-H), 0)."""
    _check_gamma(gamma)
    _check_positive("X", x)

    def measure(u: np.ndarray) -> np.ndarray:
        u *= -2.0  # the rescaled targets x*gamma^(-H), H = 2u, in place
        np.power(gamma, u, out=u)
        u *= x
        return bracket_ratio(gamma, u, 0)

    return _sample(cfg, measure)


def _exponent_blocks(count: int) -> Iterator[np.ndarray]:
    """``np.linspace(-1.0, 1.0, count)`` (count >= 2) in blocks of _BLOCK,
    bit for bit: numpy's own formula, arange times the step plus the start,
    with the last point set to the stop."""
    step = 2.0 / (count - 1)
    for start in range(0, count, _BLOCK):
        block = np.arange(start, min(start + _BLOCK, count), dtype=float)
        block *= step
        block += -1.0
        if start + _BLOCK >= count:
            block[-1] = 1.0
        yield block


def scan_worst_ratio(gamma: float, points: int) -> float:
    """Scanned maximum of delta(x)/|x| over one log-period of signed targets,
    the grid gamma^[-1, 1] (the negative side's period (1/gamma, gamma] drops
    its left end, whose path leaves from gamma^-2), plus one probe per side
    just above a jump point, X = 1 + 1e-9 and -(1 + 1e-9)/gamma, where the
    supremum is approached.  It answers while the turning point gamma^2 is finite
    (gamma < ~1.34e154); past that `bracket_ratio` raises the walk's overflow."""
    _check_gamma(gamma)
    if points < 100:
        raise ValueError("require points >= 100")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        maxima = [bracket_ratio(gamma, 1.0 + 1e-9, 0),
                  bracket_ratio(gamma, (1.0 + 1e-9) / gamma, -1)]
        for k, exponents in enumerate(_exponent_blocks(points // 2)):
            grid = np.power(gamma, exponents, out=exponents)
            negative = grid if k else grid[1:]
            maxima += [bracket_ratio(gamma, grid, 0).max(),
                       bracket_ratio(gamma, negative, -1).max()]
    worst = float(np.max(maxima))
    if not math.isfinite(worst):
        raise NumericalError(f"scanned worst ratio {worst!r} at gamma {gamma!r} is not finite")
    return worst
