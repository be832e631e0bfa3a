"""The 1-D logarithmic coil: a zig-zag search of the line with turning
points at +gamma^(2i) and -gamma^(2i-1).

Covers the travel distance delta(X) to a signed target in closed form (the
trajectory itself is walked in `simulate.coil_marching_distance`), the
worst-case ratio sup delta(X)/|X|, the normalized average of delta(x)/|x|
over symmetric intervals (a log-periodic function of the interval radius,
whose period extrema give two deterministic mean criteria), and the
phase-randomized mixed strategy with its expected ratio 1 + (gamma+1)/ln(gamma).
Each optimal expansion ratio is the root of a closed-form derivative in gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .numerics import Bracket, NumericalError, _check_positive, find_root, lambert_w0

__all__ = ["Coil", "travel_distance", "worst_case_ratio", "optimal_minmax_coil", "average_ratio",
           "ratio_extrema", "optimal_minmean_coil", "mixed_expected_ratio", "optimal_mixed"]


def _check_gamma(gamma: float) -> None:
    """The one rule for an expansion ratio: finite and > 1 (NaN compares False)."""
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 1, not {gamma!r}")


@dataclass(frozen=True)
class Coil:
    """Expansion ratio ``gamma`` > 1.  It holds the one gamma rule,
    `_check_gamma`, shared by `MixedStrategy` and the raw-gamma callers."""

    gamma: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)


@dataclass(frozen=True)
class CoilHit:
    """A resolved target: signed position ``target``, its bracket ``index``,
    and the travel distance ``delta`` to reach it."""

    target: float
    index: int
    delta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise NumericalError(f"travel distance {self.delta!r} to target {self.target!r}"
                                 " is not finite")
        if not self.delta >= abs(self.target) > 0.0:
            raise ValueError("delta must be at least |target| > 0")


@dataclass(frozen=True)
class RatioExtrema:
    """Extrema of the normalized average ratio over one log-period."""

    min_value: float
    max_value: float

    def __post_init__(self) -> None:
        if not 1.0 < self.min_value <= self.max_value:
            raise ValueError("require 1 < min_value <= max_value")


@dataclass(frozen=True)
class MixedStrategy:
    """A phase-randomized coil and its target-independent expected ratio
    1 + (gamma + 1)/ln(gamma)."""

    gamma: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)

    @property
    def expected_ratio(self) -> float:
        return 1.0 + (self.gamma + 1.0) / math.log(self.gamma)


class MeanOptima(NamedTuple):
    gamma_for_min: float
    mean_min: float
    gamma_for_max: float
    mean_max: float


_TINY = 2.2250738585072014e-308  # the smallest normal double


def _check_departure(start: float) -> None:
    """The walk's rule: no path leaves from a subnormal turning point ``start``."""
    if start < _TINY:
        raise NumericalError("underflow: a target's path leaves from a subnormal turning point")


def _bracket(g: float, xa: float, c: int, r: float) -> Tuple[int, float, float]:
    """The bracket rule of `bracket_index`: (i, g^(2i+c), g^(2i+2+c)) for
    magnitude ``xa`` at offset ``c``, given r = ln(xa)/(2 ln g).  Each power
    is computed once, and a nudge up reuses the upper one as the lower.

    A target is refused by the walk's two rules, whatever nudges follow: an
    index |2i| >= 2^53 on the ceiling guess, where exponents are rounded, and
    `_check_departure` at g^(2i+1+c).  A nudge that leaves the power unchanged
    happens only among subnormals, so it stops there and meets the second
    rule, instead of one of up to ~1e12 more nudges.  A power past the float
    range is the walk's overflow, a NumericalError."""
    i = math.ceil(r - (1.0 + 0.5 * c))
    if not -2 ** 52 < i < 2 ** 52:  # |2i| < 2^53
        raise NumericalError("turning-point index beyond exact doubles")
    try:
        lo = g ** (2 * i + c)
        while lo >= xa:
            i -= 1
            lo, last = g ** (2 * i + c), lo
            if lo == last:
                break
        hi = g ** (2 * i + 2 + c)
        while hi < xa:
            i += 1
            lo, hi = hi, g ** (2 * i + 2 + c)
            if hi == lo:
                break
    except OverflowError:
        raise NumericalError("overflow: target beyond representable sweeps") from None
    if lo < _TINY:  # the departure g^(2i+1+c) > lo is normal if lo is
        _check_departure(g ** (2 * i + 1 + c))
    return i, lo, hi


def _target_bracket(coil: Coil, target: float) -> Tuple[int, float, float]:
    """The bracket of a signed target, under the one signed-target rule:
    finite and nonzero (NaN compares False)."""
    g, xa = coil.gamma, abs(target)
    if not 0.0 < xa < math.inf:
        raise ValueError(f"X must be finite and nonzero (off the origin), not {target!r}")
    c = 0 if target > 0.0 else -1  # turning points +gamma^(2i), -gamma^(2i-1): gamma^(2i+c)
    return _bracket(g, xa, c, math.log(xa) / (2.0 * math.log(g)))


def bracket_index(coil: Coil, target: float) -> int:
    """Bracket index of a signed target.

    The index i satisfies gamma^(2i+c) < |X| <= gamma^(2i+2+c), with offset
    c = 0 for X > 0 and c = -1 for X < 0.  The ceiling formula
    ceil(ln|X| / (2 ln gamma) - 1 - c/2) is evaluated first and then nudged
    until the defining inequalities hold exactly, since the ceiling can
    misround in floating point when |X| sits at a power of gamma; the
    inequalities are authoritative.
    """
    return _target_bracket(coil, target)[0]


def travel_distance(coil: Coil, target: float) -> CoilHit:
    """Travel distance to reach a signed target, in closed form.

    delta = |X| + 2*gamma^(2i+2+c)/(gamma-1) with the bracket index i and
    offset c of ``bracket_index``: the path length of the coil up to its first
    pass through X.
    """
    i, _, hi = _target_bracket(coil, target)
    return CoilHit(target=target, index=i, delta=abs(target) + 2.0 * (hi / (coil.gamma - 1.0)))


def _turning_points(gamma: float, exponents: np.ndarray) -> np.ndarray:
    """gamma ** n for each integer n, by Python's ``**`` (libm pow, as in
    `_bracket`); a power past the float range reads inf."""
    powers = []
    for n in exponents.tolist():
        try:
            powers.append(gamma ** n)
        except OverflowError:
            powers.append(math.inf)
    return np.array(powers)


def bracket_ratio(gamma: float, magnitude, offset: int):
    """delta/|X| = 1 + 2*gamma^(2i+2+c)/((gamma-1)*|X|) for targets of
    magnitude ``magnitude`` (an array or a float) whose turning points sit
    at gamma^(2i+c), with the integer c = ``offset``: 0 for positive
    targets, -1 for negative ones.

    The vector form of `bracket_index`, bit for bit that formula with its i
    while the index guess ceil(ln|X|/(2 ln gamma) - 1 - c/2) is off by at
    most one, true while |ln|X|/ln(gamma)| < 2^48, and while (gamma-1)*|X| is
    finite (past it, it divides by each factor in turn).  It refuses what
    `_bracket` refuses (a guess beyond +-2^52; a departure by `_check_departure`,
    read for the least magnitude; an upper turning point past the float range,
    read for the largest, the walk's overflow) and a magnitude below the
    smallest normal double, each a NumericalError.  Each turning point is a
    libm power, computed once per call in a table over the guesses [min - 1, max + 2],
    or, when that span is longer than the rows, around each distinct guess.
    The upper power gamma^(2i+2+c) is the first table entry >= |X|, so the
    inequalities decide, as in `_bracket`; a table of up to 16 entries is
    scanned entry by entry, a longer one bisected by `np.searchsorted`."""
    magnitude = np.asarray(magnitude, dtype=float)
    least, most = float(magnitude.min()), float(magnitude.max())
    if not least >= _TINY:
        raise NumericalError("underflow: a target magnitude below the smallest normal double")
    scale, shift = 0.5 / math.log(gamma), 1.0 + 0.5 * offset
    first, last = math.log(least) * scale - shift, math.log(most) * scale - shift
    if not (-2.0 ** 52 < first and last <= 2.0 ** 52 - 1.0):  # |guess| < 2^52
        raise NumericalError("turning-point index beyond exact doubles")
    lo, hi = math.ceil(first) - 1, math.ceil(last) + 2
    if hi - lo < magnitude.size:
        ks = np.arange(lo, hi + 1)
    else:  # a few rows over a wide span
        guess = np.ceil(np.log(magnitude) * scale - shift).astype(np.int64)
        ks = np.unique(np.unique(guess)[:, None] + np.arange(-1, 3))
    table = _turning_points(gamma, 2 * ks + offset)
    if table[np.searchsorted(table, most)] == math.inf:  # the largest magnitude's upper one
        raise NumericalError("overflow: target beyond representable sweeps")
    up = np.searchsorted(table, least)  # the least magnitude's upper turning point
    if table[up - 1] < _TINY:
        _check_departure(gamma ** (2 * int(ks[up]) - 1 + offset))
    if table.size > 16:
        ratio = table.take(np.searchsorted(table, magnitude))
    else:  # each entry below a magnitude passes it the next one up
        ratio = np.full(magnitude.shape, table[0])
        for below, power in zip(table.tolist(), table[1:].tolist()):
            np.copyto(ratio, power, where=magnitude > below)
    if (gamma - 1.0) * most < math.inf:
        ratio /= (gamma - 1.0) * magnitude
    else:  # (gamma - 1)|X| overflows, so gamma - 1 > 1 and dividing by it first cannot
        ratio /= gamma - 1.0
        ratio /= magnitude
    ratio *= 2.0  # after the division, exact, so the numerator 2*gamma^(2i+2+c) cannot overflow
    ratio += 1.0
    return ratio


def worst_case_ratio(coil: Coil) -> float:
    """sup over targets of delta(X)/|X|, (2*gamma^2 + gamma - 1)/(gamma - 1),
    read as 2*gamma + 3 + 2/(gamma - 1), finite wherever the supremum is.  It
    is approached, not attained, as X -> gamma^(2k) or -X -> gamma^(2k-1)
    from above."""
    g = coil.gamma
    return 2.0 * g + 3.0 + 2.0 / (g - 1.0)


def optimal_minmax_coil() -> Tuple[float, float]:
    """The expansion ratio minimizing `worst_case_ratio`, and its ratio: (2, 9).
    gamma is the root of its derivative 2 - 2/(g - 1)^2 on [1.2, 5], checked
    to 2 ulps against the analytic critical point gamma = 2."""
    gamma = find_root(lambda g: 2.0 - 2.0 / (g - 1.0) ** 2, Bracket(1.2, 5.0)).root_or_argmin
    if abs(gamma - 2.0) > 2.0 * math.ulp(2.0):
        raise NumericalError(f"derivative root {gamma!r} disagrees with analytic critical point 2")
    return gamma, worst_case_ratio(Coil(gamma))


def average_ratio(coil: Coil, x: float) -> float:
    """Normalized average (1/(2x)) * integral of delta(s)/|s| over [-x, x],

        1 + (gamma^(2i+2)/x) * (h + L_i/(gamma-1)) + (gamma^(2j+1)/x) * (h + L_j/(gamma-1))

    with h = 2 ln(gamma)/((gamma-1)^2 (gamma+1)), the brackets gamma^(2i) <
    x <= gamma^(2i+2) and gamma^(2j-1) < x <= gamma^(2j+1), L_i =
    ln(x/gamma^(2i)) and L_j = ln(x/gamma^(2j-1)).  On each side the whole
    brackets below x sum as a geometric series; the lower turning point that
    series adds, the partial bracket up to x subtracts, so only the upper
    turning points remain, each divided by x into [1, gamma^2).  So the sum
    cannot overflow below gamma ~ 1.34e154, where gamma^2 does; above it an
    overflowing sum is a NumericalError, as is what `_bracket` refuses.
    Log-periodic in x with period gamma^2.
    """
    _check_positive("X", x)
    g = coil.gamma
    lg = math.log(g)
    r = math.log(x) / (2.0 * lg)
    i, pi0, pi2 = _bracket(g, x, 0, r)
    j, pj0, pj2 = _bracket(g, x, -1, r)
    # j is i or i + 1.  Each log is read from the nearest turning point below
    # x, t = gamma^(2i) or gamma^(2j-1), as ln(x/t) in (0, ln gamma], and the
    # other one is that plus ln(gamma): no difference cancels, neither
    # ln x - 2i ln(gamma) near gamma = 1 nor a log less ln(gamma).  The path
    # to the other side's target leaves from t, so `_bracket` found t normal.
    log_near = math.log(x / (pi0 if j == i else pj0))
    log_i, log_j = (log_near, log_near + lg) if j == i else (log_near + lg, log_near)
    h = 2.0 * lg / (g - 1.0) / ((g - 1.0) * (g + 1.0))
    ratio = 1.0 + pi2 / x * (h + log_i / (g - 1.0)) + pj2 / x * (h + log_j / (g - 1.0))
    if not math.isfinite(ratio):
        raise NumericalError(f"average ratio {ratio!r} at X = {x!r} is not finite")
    return ratio


def _ratio_min(g: float) -> float:
    return 1.0 + g / (g - 1.0) * ((g + 1.0) / (g - 1.0)) * math.log(g)


def _ratio_max(g: float) -> float:
    return 1.0 + (g + 1.0) / (g - 1.0) * g ** (g / (g - 1.0)) / math.e


def ratio_extrema(coil: Coil) -> RatioExtrema:
    """Closed-form extrema of the normalized average ratio over one period:

        min = 1 + gamma/(gamma-1) * (gamma+1)/(gamma-1) * ln(gamma)
        max = 1 + (1/e) * (gamma+1)/(gamma-1) * gamma^(gamma/(gamma-1))

    each finite for every gamma.  The minimum is attained at interval radii
    x = gamma^(2k); the maximum at an interior point of each period.  Both
    read 2/(gamma-1) + 3 + O(gamma-1), so below gamma ~ 1 + 4e-8 they agree to
    rounding, and a max computed an ulp under the min reads the min.
    """
    g = coil.gamma
    low = _ratio_min(g)
    return RatioExtrema(min_value=low, max_value=max(low, _ratio_max(g)))


def optimal_minmean_coil() -> MeanOptima:
    """Expansion ratios minimizing each period extremum of the normalized
    average: the period-minimum criterion gives gamma = 5.7041372673... with
    mean 4.0089813375..., the period-maximum criterion gamma = 3.2232549401...
    with mean 4.8131558458....  Both are returned; neither dominates the
    other a priori.  Each gamma is a root on [1.5, 12] of a log-derivative:
    d ln(min - 1)/dg = 1/g + 1/(g + 1) + 1/(g ln g) - 2/(g - 1) and
    d ln(max - 1)/dg = 1/(g + 1) - ln(g)/(g - 1)^2."""
    g_min = find_root(lambda g: 1.0 / g + 1.0 / (g + 1.0) + 1.0 / (g * math.log(g))
                      - 2.0 / (g - 1.0), Bracket(1.5, 12.0)).root_or_argmin
    g_max = find_root(lambda g: 1.0 / (g + 1.0) - math.log(g) / (g - 1.0) ** 2,
                      Bracket(1.5, 12.0)).root_or_argmin
    return MeanOptima(gamma_for_min=g_min, mean_min=_ratio_min(g_min),
                      gamma_for_max=g_max, mean_max=_ratio_max(g_max))


def mixed_expected_ratio(gamma: float) -> MixedStrategy:
    """Expected ratio E[delta(X)]/X of the phase-randomized coil family,
    1 + (gamma+1)/ln(gamma); independent of the (positive) target."""
    return MixedStrategy(gamma)


def optimal_mixed() -> MixedStrategy:
    """The expansion ratio minimizing the mixed-strategy expected ratio:
    gamma = 1/W(1/e) = 3.591121476669..., where stationarity forces
    ln(gamma) = 1 + 1/gamma and hence an expected ratio of exactly 1 + gamma.

    The closed form is cross-checked to 4 ulps against the root of that
    stationarity condition, ln(g) - 1 - 1/g, on [1.5, 10].
    """
    gamma = 1.0 / lambert_w0(math.exp(-1.0))
    root = find_root(lambda g: math.log(g) - 1.0 - 1.0 / g, Bracket(1.5, 10.0)).root_or_argmin
    if abs(root - gamma) > 4.0 * math.ulp(gamma):
        raise NumericalError(f"stationary point {root!r} disagrees with 1/W(1/e) = {gamma!r}")
    return mixed_expected_ratio(gamma)
