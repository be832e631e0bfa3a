"""Exact geometry of the outward logarithmic spiral r = e^(kappa * theta).

The unique line tangent to both the spiral and the distance-R circle (with
its spiral-side contact angle theta0, circle-side tangency angle omega0, and
second spiral contact theta1), the contact distance, and the arclength
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .numerics import Bracket, NumericalError, _check_positive, find_root

__all__ = [
    "Spiral",
    "TangentContact",
    "tangent_contact",
    "contact_distance",
    "second_contact",
    "contact_at",
    "arclength",
]


@dataclass(frozen=True)
class Spiral:
    """Growth rate ``kappa`` and shoreline distance ``radius`` R, each read by
    the one positive rule `_check_positive`, as every raw-kappa caller does."""

    kappa: float
    radius: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("kappa", self.kappa)
        _check_positive("R", self.radius)


@dataclass(frozen=True)
class TangentContact:
    """Contact angles of the doubly tangent line: tangency at ``theta0`` on
    the spiral and ``omega0`` on the circle, and the second spiral contact
    ``theta1``.  Angles are unwrapped, so omega0 < theta0 < theta1 < theta0 + 2*pi.
    """

    theta0: float
    omega0: float
    theta1: float

    def __post_init__(self) -> None:
        if not self.omega0 < self.theta0 < self.theta1 < self.theta0 + math.tau:
            raise ValueError("contact angles out of order")


def tangent_contact(spiral: Spiral) -> Tuple[float, float]:
    """Contact angles (theta0, omega0) of the one line tangent to both the
    spiral and the circle of radius ``spiral.radius``.

    theta0 = (ln R + ln(1 + kappa^2) / 2) / kappa in closed form, with
    omega0 = theta0 - arctan(kappa); arctan(kappa) equals
    arccos(1 / sqrt(1 + kappa^2)) and is the better-conditioned form.  Where
    kappa^2 overflows, ln(1 + kappa^2) / 2 is ln(kappa) to rounding.
    """
    k = spiral.kappa
    k2 = k * k
    half_log = 0.5 * math.log1p(k2) if math.isfinite(k2) else math.log(k)
    theta0 = (math.log(spiral.radius) + half_log) / k
    omega0 = theta0 - math.atan(k)
    return theta0, omega0


def contact_distance(kappa: float, omega: float, theta: float) -> float:
    """Signed distance e^(kappa*theta) * cos(theta - omega) - 1 of the spiral
    point at ``theta`` past the line tangent to the unit circle at angle
    ``omega``, along the line's unit normal (negative before the line).  The
    product form has no secant poles."""
    return math.exp(kappa * theta) * math.cos(theta - omega) - 1.0


def second_contact(spiral: Spiral) -> TangentContact:
    """The full contact triple (theta0, omega0, theta1).

    theta1 is the unique second solution of
    e^(kappa*theta) * cos(theta - omega0) = R with theta0 < theta < theta0 + 2*pi.
    It is solved at R = 1, where the residual `contact_distance` is of unit
    scale, and shifted to R by `contact_at`.  The root is
    bracketed on [omega0 + 3*pi/2, omega0 + 2*pi]: the residual is negative
    at the left end, where the cosine is zero to rounding, positive at the
    right end, and strictly increasing between (cos > 0 and sin < 0 there), so the bracket always
    contains exactly one root.  The tangency at theta0 itself is a double
    root and is never solved numerically.
    """
    k = spiral.kappa
    _, unit_omega0 = tangent_contact(Spiral(k))
    lo = unit_omega0 + 1.5 * math.pi
    hi = unit_omega0 + math.tau
    if not contact_distance(k, unit_omega0, lo) < 0.0 < contact_distance(k, unit_omega0, hi):
        raise NumericalError(
            "second-contact bracket sign conditions violated (solved at R = 1) for "
            f"kappa={k!r}")
    report = find_root(lambda th: contact_distance(k, unit_omega0, th), Bracket(lo, hi))
    return contact_at(spiral, report.root_or_argmin)


def contact_at(spiral: Spiral, unit_theta1: float) -> TangentContact:
    """The contact triple of ``spiral`` from ``unit_theta1``, the second
    contact of the same kappa at R = 1: theta0 and omega0 in closed form at
    R, and theta1 = unit_theta1 + ln(R)/kappa, since scaling by R turns the
    spiral by ln(R)/kappa.  The order check of `TangentContact` runs at R."""
    theta0, omega0 = tangent_contact(spiral)
    return TangentContact(theta0=theta0, omega0=omega0,
                          theta1=unit_theta1 + math.log(spiral.radius) / spiral.kappa)


def arclength(kappa: float, Theta: float) -> float:
    """Arclength of r = e^(kappa*theta) from theta = -infinity up to ``Theta``:
    sqrt(1 + kappa^2) / kappa * e^(kappa*Theta)."""
    _check_positive("kappa", kappa)
    return math.sqrt(1.0 + kappa * kappa) / kappa * math.exp(kappa * Theta)
