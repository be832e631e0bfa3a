"""Shared numerical kernels.

Bracketed root finding, bracketed scalar minimization, a damped 2-D Newton
solver, globally adaptive Gauss-Kronrod quadrature, the principal branch of
the Lambert W function, and a deterministic counter-based random stream.

Everything here is dependency-light on purpose: the rest of the package
builds its closed forms and its verification oracles on these kernels, so
they are written for predictable, platform-stable behaviour rather than for
generality.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "NumericalError",
    "Bracket",
    "SolveReport",
    "find_root",
    "minimize_scalar",
    "solve_system2",
    "integrate",
    "lambert_w0",
    "uniform_block",
]


class NumericalError(RuntimeError):
    """An iterative kernel failed: no convergence or a non-finite evaluation."""


def _check_positive(name: str, value: float) -> None:
    """The one rule for a positive parameter (kappa, R, a positive target X,
    march_step): finite and > 0 (NaN compares False)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, not {value!r}")


@dataclass(frozen=True)
class Bracket:
    """A finite interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError("bracket degenerate: require lo < hi")


@dataclass(frozen=True)
class SolveReport:
    """Result of a scalar solve: the root or argmin, the residual or the
    objective value there, the iteration count, and a convergence flag."""

    root_or_argmin: float
    residual_or_value: float
    iterations: int
    converged: bool


def _check_finite(x: float) -> float:
    if not math.isfinite(x):
        raise NumericalError("non-finite evaluation")
    return x


def find_root(f: Callable[[float], float], bracket: Bracket) -> SolveReport:
    """Find a root of ``f`` inside ``bracket`` by Brent's method (zeroin; Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    Each step is inverse-quadratic or secant interpolation inside the
    sign-change bracket [b, c], or bisection when that would not shrink the
    bracket fast enough.  It stops when f(b) is exactly 0 or the half-width
    is at most 2*eps*|b| plus the smallest subnormal (so a root at 0 ends
    too), and returns b, the end with the smaller |f|.  ``iterations`` counts
    evaluations past the two ends; ``converged`` is False only at the cap of 200.
    """
    a, b = bracket.lo, bracket.hi
    fa = _check_finite(f(a))
    fb = _check_finite(f(b))
    if fa == 0.0:
        return SolveReport(a, 0.0, 0, True)
    if fb == 0.0:
        return SolveReport(b, 0.0, 0, True)
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("invalid bracket: f(lo) and f(hi) have the same sign")

    c, fc = a, fa
    d = e = b - a
    for iterations in range(201):
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 ** -51 * abs(b) + 5e-324
        m = 0.5 * (c - b)
        converged = fb == 0.0 or abs(m) <= tol
        if converged or iterations == 200:
            return SolveReport(b, fb, iterations, converged)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant through a and b
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = _check_finite(f(b))
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _golden_section(f, lo: float, hi: float, stop_width: float):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc = _check_finite(f(c))
    fd = _check_finite(f(d))
    n = 0
    while hi - lo > stop_width and n < 200:
        n += 1
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = _check_finite(f(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = _check_finite(f(d))
    return lo, hi, n


# Argmin width at which `minimize_scalar` stops.
_ARGMIN_TOL = 1e-10

# Residual max-norm at which `solve_system2` stops.
_SYSTEM_TOL = 1e-13


def minimize_scalar(f: Callable[[float], float], bracket: Bracket) -> SolveReport:
    """Minimize a unimodal ``f`` over ``bracket``.

    Golden-section search narrows the interval to a few 1e-5 (where function
    values near the minimum agree to roundoff, so comparisons stop helping);
    a finishing pass then bisects a central difference of ``f`` on the final
    interval to a width of 1e-10, which recovers nearly full precision in the
    argmin for smooth objectives.  The report is ``converged`` only when that
    central difference changes sign across the final interval; a minimum
    against an endpoint, or an objective flat to roundoff there, returns the
    golden-section midpoint with ``converged=False``.
    """
    lo0, hi0 = bracket.lo, bracket.hi
    lo, hi, iterations = _golden_section(f, lo0, hi0, 4e-5 * max(1.0, abs(lo0), abs(hi0)))
    x = 0.5 * (lo + hi)
    h = 1e-5 * max(1.0, abs(x))
    a = max(lo0, lo - 4.0 * h)
    b = min(hi0, hi + 4.0 * h)

    def slope(t: float) -> float:
        return f(t + h) - f(t - h)

    converged = slope(a) < 0.0 < slope(b)
    if converged:
        while b - a > _ARGMIN_TOL:
            iterations += 1
            m = 0.5 * (a + b)
            if not (a < m < b):
                break
            if slope(m) > 0.0:
                b = m
            else:
                a = m
        x = 0.5 * (a + b)
    return SolveReport(x, _check_finite(f(x)), iterations, converged)


def solve_system2(F: Callable[[float, float], Tuple[float, float]],
                  guess: Tuple[float, float]) -> Tuple[float, float]:
    """Solve the 2-D system F(x, y) = (0, 0) by damped Newton iteration to a
    residual max-norm of 1e-13.

    The Jacobian is forward finite differences with step max(1e-7, 1e-7|x|);
    when a full Newton step does not reduce the residual max-norm it is
    halved, up to 30 times.  Trial points where F raises (log/sqrt domain)
    count as non-improving.
    """
    x, y = float(guess[0]), float(guess[1])
    fx, fy = F(x, y)
    for _ in range(200):
        r0 = max(abs(fx), abs(fy))
        if not math.isfinite(r0):
            raise NumericalError("non-finite evaluation")
        if r0 <= _SYSTEM_TOL:
            return x, y
        hx = max(1e-7, 1e-7 * abs(x))
        hy = max(1e-7, 1e-7 * abs(y))
        f1x, f1y = F(x + hx, y)
        f2x, f2y = F(x, y + hy)
        j11, j21 = (f1x - fx) / hx, (f1y - fy) / hx
        j12, j22 = (f2x - fx) / hy, (f2y - fy) / hy
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise NumericalError("jacobian singular")
        dx = -(fx * j22 - fy * j12) / det
        dy = -(j11 * fy - j21 * fx) / det
        lam = 1.0
        improved = False
        for _ in range(30):
            try:
                nfx, nfy = F(x + lam * dx, y + lam * dy)
            except (ValueError, OverflowError, ZeroDivisionError):
                lam *= 0.5
                continue
            if math.isfinite(nfx) and math.isfinite(nfy) and max(abs(nfx), abs(nfy)) < r0:
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise NumericalError("no convergence: residual stalled")
        x, y = x + lam * dx, y + lam * dy
        fx, fy = nfx, nfy
    raise NumericalError("no convergence: iteration cap exceeded")


# 15-point Kronrod nodes on [-1, 1] and their weights, with the embedded
# 7-point Gauss weights (QUADPACK constants).  All nodes are interior, so
# integrable endpoint singularities are never evaluated.
_GK_NODES = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_K_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_G_WEIGHTS = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


def _gk15(f, a: float, b: float) -> Tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = 0.0
    fg = 0.0
    try:
        for i, node in enumerate(_GK_NODES[:-1]):
            lo_v = _check_finite(f(mid - half * node))
            hi_v = _check_finite(f(mid + half * node))
            fk += _K_WEIGHTS[i] * (lo_v + hi_v)
            if i % 2 == 1:
                fg += _G_WEIGHTS[i // 2] * (lo_v + hi_v)
        fmid = _check_finite(f(mid))
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalError("non-finite evaluation") from exc
    fk += _K_WEIGHTS[7] * fmid
    fg += _G_WEIGHTS[3] * fmid
    return fk * half, abs(fk - fg) * half


def integrate(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive quadrature of ``f`` over [a, b] to absolute tolerance ``tol``.

    Globally adaptive Gauss-Kronrod (G7, K15): the worst panel by error
    estimate is bisected until the summed estimate is below ``tol``.  Nodes
    are open, so endpoint singularities that are integrable pose no problem;
    a non-finite value at an interior node raises ``NumericalError``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    total_err = err
    done_val = 0.0
    panels = 1
    while total_err > tol:
        neg_err, pa, pb, pval = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if not (pa < pm < pb):
            # Panel too narrow to split further; its estimate is final.
            done_val += pval
            total_err += neg_err
            if not heap:
                break
            continue
        v1, e1 = _gk15(f, pa, pm)
        v2, e2 = _gk15(f, pm, pb)
        total_err += neg_err + e1 + e2
        heapq.heappush(heap, (-e1, pa, pm, v1))
        heapq.heappush(heap, (-e2, pm, pb, v2))
        panels += 1
        if panels > 200_000:
            raise NumericalError("quadrature did not converge to tolerance")
    return sign * (done_val + math.fsum(item[3] for item in heap))


_INV_E = math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert's W: the w >= -1 with w * e^w = x.

    Defined for x >= -1/e.  A branch-point series seeds the iteration near
    x = -1/e; elsewhere a log-based estimate starts Halley's method, which
    is run to ~1e-15 relative change.
    """
    if not math.isfinite(x):
        raise ValueError("lambert_w0 requires a finite argument")
    if x < -_INV_E:
        raise ValueError("lambert_w0 domain error: require x >= -1/e")
    if x == 0.0:
        return 0.0

    p2 = 2.0 * (math.e * x + 1.0)
    if p2 < 0.0:  # roundoff just below the branch point
        p2 = 0.0
    p = math.sqrt(p2)
    if p < 1e-4:
        # series about the branch point, error O(p^5)
        return -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0 - 43.0 * p ** 4 / 540.0

    if x < 1.0:
        w = -1.0 + p - p * p / 3.0
    else:
        lx = math.log(x)
        w = lx - math.log(lx) if lx > 1.0 else lx
    for _ in range(60):
        ew = math.exp(w)
        r = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * r / (2.0 * w + 2.0)
        dw = r / denom
        w -= dw
        if abs(dw) <= 1e-15 * max(1.0, abs(w)):
            return w
    raise NumericalError("no convergence in lambert_w0")


# SplitMix64 (Steele, Lea & Flood 2014) used in counter mode: the value at
# position k is a pure function of (seed, k), so streams can be split or
# resumed at any offset without shared state, and sequences are bit-identical
# on every platform.
_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Stream values for positions start .. start+count-1: a uniform double
    in [0, 1) from the top 53 bits of each mixed counter."""
    if count < 0:
        raise ValueError("count must be non-negative")
    z = np.arange(start, start + count, dtype=np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GOLDEN64)
    z += np.uint64(int(seed) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    return u
