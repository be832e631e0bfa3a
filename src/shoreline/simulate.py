"""Independent verification oracles.

Nothing here trusts the closed forms it is used to check: spiral first
contacts are found by marching the trajectory against the line and
bisecting the detected sign change; coil travel distances are found by
walking the zig-zag segments and solving each linear piece exactly; the
Monte Carlo drivers average those primitive measurements over seeded,
reproducible random draws.

The scalar reference march and the vectorized Monte Carlo march share one
grid (`_march_grid`) and one contact bisection (`_bisect_contacts`); the
vectorized march hands its graze suspects, and rows whose start radius
underflows, to the scalar one.

The random stream is counter-based, so a run of n samples always consumes
stream positions 0..n-1, and the block ``uniform_block(seed, start, count)``
holds exactly the values a serial run draws at those positions.  The spiral
Monte Carlo march uses this: it runs over fixed, cache-sized blocks of
positions, each drawn straight from the stream at its offset, and since
every sample is marched on its own the results do not depend on the block
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .coil import bracket_ratio
from .numerics import NumericalError, _golden_section, uniform_block
from .spiral_geometry import Spiral, arclength, tangent_contact

__all__ = [
    "SimConfig",
    "SampleStats",
    "summarize",
    "spiral_first_contact",
    "monte_carlo_mean_arclength",
    "coil_marching_distance",
    "mixed_strategy_sample",
    "scan_worst_ratio",
]

# A line counts as touched when the marched distance comes within this of
# zero at a local maximum; tangential grazes then resolve to the maximum
# point instead of to a contact a full turn later.
_GRAZE_TOL = 1e-9

# Bisection stops once the bracket around a contact angle is this narrow.
_REFINE_TOL = 1e-10

# Samples marched together by `monte_carlo_mean_arclength`: the working set
# of one block (about ten arrays of this length) stays in a core's cache.
_BLOCK = 16384


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    ``march_step`` is in radians for the spiral march (t-units are not
    needed: coil marching is segment-exact).  The bisection refinement makes
    the final contact angle accurate to 1e-10 regardless of the march step;
    the step only controls how finely crossings are scouted, so large Monte
    Carlo runs may use a coarser step (0.01-0.02) than the single-contact
    default, near-tangent cases being caught by the grazing band and
    re-marched by the scalar routine at the same step.
    """

    seed: int = 0
    samples: int = 100_000
    march_step: float = 1e-3

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if not (math.isfinite(self.march_step) and self.march_step > 0.0):
            raise ValueError("march_step must be positive")


@dataclass(frozen=True)
class SampleStats:
    """Summary of a Monte Carlo sample."""

    mean: float
    std_error: float
    n: int
    min: float
    max: float

    def __post_init__(self) -> None:
        if self.std_error < 0.0 or not self.min <= self.mean <= self.max:
            raise ValueError("inconsistent sample statistics")


def summarize(values: np.ndarray) -> SampleStats:
    """SampleStats of a 1-D array (standard error uses the n-1 denominator)."""
    n = int(values.size)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SampleStats(mean=mean, std_error=se, n=n,
                       min=float(values.min()), max=float(values.max()))


def _signed_distance(kappa: float, omega: float, theta: float) -> float:
    # Distance from the spiral point at theta to the line tangent to the
    # unit circle at angle omega, measured along the line's unit normal.
    return math.exp(kappa * theta) * math.cos(theta - omega) - 1.0


def _march_grid(kappa: float, h: float) -> Tuple[float, int, int]:
    """Grazing band (~ |d''| * h^2), guard step count (half a turn: a
    crossing there means a bad start) and step cap (four turns) at step h."""
    band = (1.0 + kappa * kappa) ** 1.5 * h * h
    return band, int(math.ceil(math.pi / h)), int(math.ceil(8.0 * math.pi / h))


def _bisect_contacts(kappa: float, omegas, lo, hi):
    """Contact angles in the brackets [lo, hi], d(lo) < 0 <= d(hi), elementwise;
    every row takes the widest bracket's ceil(log2(width / _REFINE_TOL)) steps."""
    width = float(np.max(hi - lo))
    for _ in range(max(0, math.ceil(math.log2(width / _REFINE_TOL)))):
        mid = 0.5 * (lo + hi)
        on_or_past = np.exp(kappa * mid) * np.cos(mid - omegas) - 1.0 >= 0.0
        hi = np.where(on_or_past, mid, hi)
        lo = np.where(on_or_past, lo, mid)
    return 0.5 * (lo + hi)


def _refine_local_max(kappa: float, omega: float, lo: float, hi: float) -> Tuple[float, float]:
    """Golden-section maximization of the signed distance on [lo, hi]."""
    lo, hi, _ = _golden_section(lambda t: -_signed_distance(kappa, omega, t), lo, hi, 1e-10)
    mid = 0.5 * (lo + hi)
    return mid, _signed_distance(kappa, omega, mid)


def spiral_first_contact(kappa: float, omega: float, cfg: SimConfig) -> Tuple[float, float]:
    """First contact of the spiral with the line tangent to the unit circle
    at angle ``omega``, by trajectory marching.

    Marches theta upward from min(0, omega) - 2*pi on the `_march_grid` of
    ``cfg.march_step``, evaluating the signed distance d(theta) exactly; the
    first sign change is bisected by `_bisect_contacts`.  A marched local
    maximum of d inside the grazing band is refined by golden-section
    search: if the refined peak is positive the left crossing of the
    narrow excursion is bisected; if it is within _GRAZE_TOL of zero
    the contact is tangential and the peak itself is returned (accurate to
    ~1e-6 at an exact double root, where transversal refinement is
    impossible); otherwise the near miss is real and the march continues.

    Returns (theta_hit, arclength to theta_hit).
    """
    if kappa <= 0.0:
        raise ValueError("require kappa > 0")
    h = cfg.march_step
    band, guard_steps, max_steps = _march_grid(kappa, h)
    theta = min(0.0, omega) - math.tau
    d = _signed_distance(kappa, omega, theta)
    if d >= 0.0:
        raise NumericalError("march started on or past the line")
    for step in range(1, max_steps + 1):
        theta2 = theta + h
        d2 = _signed_distance(kappa, omega, theta2)
        if d2 >= 0.0:
            if step <= guard_steps:
                raise NumericalError("contact inside the safety margin of the march")
            hit = float(_bisect_contacts(kappa, omega, theta, theta2))
            return hit, arclength(kappa, hit)
        if d >= -band and d2 < d:
            peak, d_peak = _refine_local_max(kappa, omega, theta - h, theta2)
            if d_peak > 0.0:
                hit = float(_bisect_contacts(kappa, omega, theta - h, peak))
                return hit, arclength(kappa, hit)
            if d_peak >= -_GRAZE_TOL:
                return peak, arclength(kappa, peak)
        theta, d = theta2, d2
    raise NumericalError("no contact found")


def _march_first_contacts(kappa: float, omegas: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Vectorized version of the `spiral_first_contact` march.

    Same `_march_grid` and crossing rule; exp/cos along the march are
    advanced by per-step recurrences (one scalar factor for the radius, one
    rotation for the phase), and `_bisect_contacts` refines all crossings
    in one call.  Grazing-band suspects, and rows whose start radius is
    subnormal or zero (the recurrence would keep it so), are handed back to
    the scalar routine, which re-marches each one at the same step.

    Each step writes into preallocated buffers.  A finished row is retired
    in place (index -1, radius 0, so its distance stays at -1 and it can
    neither cross nor graze again), and the arrays are compacted only once
    a quarter of their rows are retired; every live row sees exactly the
    arithmetic of a march that compacts on every step.
    """
    n = omegas.size
    theta_hit = np.empty(n, dtype=np.float64)
    h = cfg.march_step
    band, guard_steps, max_steps = _march_grid(kappa, h)
    growth = math.exp(kappa * h)
    ch, sh = math.cos(h), math.sin(h)

    theta = np.minimum(0.0, omegas) - math.tau
    radial = np.exp(kappa * theta)
    cos_ph = np.cos(theta - omegas)
    sin_ph = np.sin(theta - omegas)
    d_prev = radial * cos_ph - 1.0
    if (d_prev >= 0.0).any():
        raise NumericalError("march started on or past the line")
    idx = np.arange(n)
    suspects: List[int] = np.flatnonzero(radial < np.finfo(float).tiny).tolist()
    idx[suspects] = -1
    radial[suspects] = 0.0
    live = n - len(suspects)
    d, cos_new, tmp = np.empty(n), np.empty(n), np.empty(n)
    crossed, graze, done = (np.empty(n, dtype=bool) for _ in range(3))

    cross_idx: List[np.ndarray] = []
    cross_hi: List[np.ndarray] = []
    steps = 0
    while live:
        steps += 1
        if steps > max_steps:
            raise NumericalError("no contact found")
        radial *= growth
        np.multiply(cos_ph, ch, out=cos_new)
        cos_new -= np.multiply(sin_ph, sh, out=tmp)
        sin_ph *= ch
        sin_ph += np.multiply(cos_ph, sh, out=tmp)
        cos_ph, cos_new = cos_new, cos_ph
        theta += h
        np.multiply(radial, cos_ph, out=d)
        d -= 1.0
        np.greater_equal(d, 0.0, out=crossed)
        # A live row has d_prev < 0, so a crossing (d >= 0) is never also
        # a falling graze (d < d_prev).
        np.greater_equal(d_prev, -band, out=graze)
        graze &= np.less(d, d_prev, out=done)
        np.logical_or(crossed, graze, out=done)
        if done.any():
            if crossed.any():
                if steps <= guard_steps:
                    raise NumericalError("contact inside the safety margin of the march")
                cross_idx.append(idx[crossed])
                cross_hi.append(theta[crossed])
            if graze.any():
                suspects.extend(idx[graze].tolist())
            idx[done] = -1
            radial[done] = 0.0
            d[done] = -1.0
            live -= int(np.count_nonzero(done))
            if live and 4 * live <= 3 * idx.size:
                keep = idx >= 0
                idx, theta, radial = idx[keep], theta[keep], radial[keep]
                cos_ph, sin_ph, d = cos_ph[keep], sin_ph[keep], d[keep]
                d_prev, cos_new, tmp = d_prev[:live], cos_new[:live], tmp[:live]
                crossed, graze, done = crossed[:live], graze[:live], done[:live]
        d_prev, d = d, d_prev

    if cross_idx:
        ci = np.concatenate(cross_idx)
        hi = np.concatenate(cross_hi)
        theta_hit[ci] = _bisect_contacts(kappa, omegas[ci], hi - h, hi)

    for s in suspects:
        theta_hit[s] = spiral_first_contact(kappa, float(omegas[s]), cfg)[0]
    return theta_hit


def monte_carlo_mean_arclength(kappa: float, cfg: SimConfig) -> SampleStats:
    """Mean first-contact arclength over shoreline directions drawn
    uniformly from one full period [omega0, omega0 + 2*pi)."""
    if kappa <= 0.0:
        raise ValueError("require kappa > 0")
    _, omega0 = tangent_contact(Spiral(kappa, 1.0))
    hits = np.empty(cfg.samples)
    for start in range(0, cfg.samples, _BLOCK):
        count = min(_BLOCK, cfg.samples - start)
        omegas = omega0 + math.tau * uniform_block(cfg.seed, start, count)
        hits[start:start + count] = _march_first_contacts(kappa, omegas, cfg)
    factor = math.sqrt(1.0 + kappa * kappa) / kappa
    return summarize(factor * np.exp(kappa * hits))


def coil_marching_distance(gamma: float, x: float, cfg: SimConfig) -> float:
    """Travel distance to the signed target ``x``, found by walking the coil
    trajectory segment by segment.

    Starts a few segments below any that could reach ``x`` and solves each
    linear sweep exactly for position = x, so the result is exact up to
    floating point; no step size is involved.
    """
    if gamma <= 1.0:
        raise ValueError("require gamma > 1")
    if x == 0.0:
        raise ValueError("target at origin")
    ln_ratio = math.log(abs(x)) / math.log(gamma)
    k = min(math.floor(2.0 * ln_ratio) - 6, math.floor(ln_ratio) - 2)
    for _ in range(1000):
        start = (-gamma) ** k
        end = (-gamma) ** (k + 1)
        if math.isinf(start) or math.isinf(end):
            raise NumericalError("overflow: target beyond representable sweeps")
        if end != start:
            tau = (x - start) / (end - start)
            if 0.0 <= tau <= 1.0:
                return (gamma + 1.0) * gamma ** k * (1.0 / (gamma - 1.0) + tau)
        k += 1
    raise NumericalError("no segment reached the target")


def mixed_strategy_sample(gamma: float, x: float, cfg: SimConfig) -> SampleStats:
    """Sampled travel ratio delta(x)/x of the phase-randomized coil.

    Each sample draws a phase H uniform on [0, 2), shifts every turning
    point to +-gamma^(k+H), brackets the (positive) target by
    gamma^(2i+H) < x <= gamma^(2i+2+H), and pays
    delta = x + 2*gamma^(2i+2+H)/(gamma-1).
    """
    if gamma <= 1.0:
        raise ValueError("require gamma > 1")
    if x <= 0.0:
        raise ValueError("require a positive target")
    phases = uniform_block(cfg.seed, 0, cfg.samples, 0.0, 2.0)
    return summarize(bracket_ratio(gamma, x, phases))


def scan_worst_ratio(gamma: float, points: int) -> float:
    """Scanned maximum of delta(x)/|x| over a log-spaced grid of signed
    targets covering three periods, plus probes just above the jump points
    gamma^(2k) (positive side) and -gamma^(2k-1) (negative side) where the
    supremum is approached."""
    if gamma <= 1.0:
        raise ValueError("require gamma > 1")
    if points < 100:
        raise ValueError("require points >= 100")
    grid = gamma ** np.linspace(-3.0, 3.0, points // 2)
    ks = np.array([-1.0, 0.0, 1.0])
    probe_pos = gamma ** (2.0 * ks) * (1.0 + 1e-9)
    probe_neg = gamma ** (2.0 * ks - 1.0) * (1.0 + 1e-9)
    # Positive targets bracket at offset 0, negative ones at offset -1.
    return max(float(bracket_ratio(gamma, np.concatenate([grid, probe_pos]), 0).max()),
               float(bracket_ratio(gamma, np.concatenate([grid, probe_neg]), -1).max()))
