"""Objective functions over the spiral growth rate kappa and their optima.

Two criteria are covered, both with the shoreline distance normalized to
R = 1 (lengths simply scale by R, kappa does not change):

* min-max: worst-case arclength until every candidate shoreline at distance
  1 has been met, i.e. sqrt(1 + kappa^2)/kappa * e^(kappa*theta1).
* min-mean: arclength to first contact averaged over a uniformly random
  shoreline direction.

Each optimum can be found two independent ways: directly, as the root in
kappa of the objective's analytic log-derivative, and through a 2-D
trigonometric system in the angles (alpha, beta) where tan(alpha) = kappa
and sec(beta) = e^(kappa*theta1).  Both routes are exposed and must agree.

The direct route differentiates the contact equation
kappa*theta + ln cos(theta - omega0(kappa)) = 0 implicitly at R = 1, where
omega0 = ln(1 + kappa^2)/(2*kappa) - arctan(kappa) and so
omega0' = -theta0/kappa.  With t = tan(theta1 - omega0) < 0,

    theta1' = -(theta1 - t*theta0/kappa) / (kappa - t),
    theta1 + kappa*theta1' = t*(theta0 - theta1) / (kappa - t) > 0,

and the second form, a product of same-signed factors, is what the three
log-derivatives read.  Each derivative evaluation costs one `second_contact`, and `find_root`
(Brent's method) pins its sign change to a few ulps of kappa in about ten
evaluations, where comparing objective values would stop at about
sqrt(machine epsilon).

Each objective is a formula on the R = 1 contact triple (``minmax_at``,
``minmean_at``, ``erroneous_at``) behind its public function of kappa, so
``spiral eval`` solves one contact and reads all three objectives from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .numerics import Bracket, SolveReport, find_root, solve_system2
from .spiral_geometry import Spiral, TangentContact, arclength, second_contact

__all__ = ["minmax_at", "erroneous_at", "minmean_at", "minmax_objective", "erroneous_objective",
           "minmean_objective", "minimize_minmax", "minimize_minmean", "minimize_erroneous",
           "minmax_system_residuals", "minmax_system_objective", "solve_minmax_system",
           "minmean_system_objective", "solve_minmean_system"]

# Search brackets: both contain the optima with wide margin and stay clear of
# the kappa -> 0 divergence.  Unimodality on them is checked by a scan in the
# test suite rather than assumed, so each log-derivative changes sign once.
MINMAX_BRACKET = Bracket(0.05, 1.0)
MINMEAN_BRACKET = Bracket(0.1, 1.0)


@dataclass(frozen=True)
class AnglePair:
    """The unknowns (alpha, beta) of the trigonometric systems, both in
    (0, pi/2)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 0.5 * math.pi and 0.0 < self.beta < 0.5 * math.pi):
            raise ValueError("angles must lie in (0, pi/2)")


@dataclass(frozen=True)
class Optimum:
    """A spiral optimum: kappa, the objective value, the equivalent angle
    pair, and the `find_root` report of the objective's log-derivative (its
    ``residual_or_value`` is the derivative at the root)."""

    kappa: float
    objective_value: float
    alpha: float
    beta: float
    report: SolveReport

    def __post_init__(self) -> None:
        if abs(self.kappa - math.tan(self.alpha)) > 1e-9:
            raise ValueError("kappa and alpha inconsistent: kappa != tan(alpha)")
        if not self.objective_value > 0.0:
            raise ValueError("objective value must be positive")


def minmax_at(kappa: float, contact: TangentContact) -> float:
    """`minmax_objective` read from ``contact``, the R = 1 contact triple of
    ``kappa``, so one solved contact serves all three objectives."""
    return arclength(kappa, contact.theta1)


def erroneous_at(kappa: float, contact: TangentContact) -> float:
    """`erroneous_objective` read from the R = 1 contact triple of ``kappa``."""
    return math.exp(kappa * contact.theta1) / kappa


def minmean_at(kappa: float, contact: TangentContact) -> float:
    """`minmean_objective` read from the R = 1 contact triple of ``kappa``."""
    u = math.exp(kappa * contact.theta0)
    v = math.exp(kappa * contact.theta1)
    return math.sqrt(1.0 + kappa * kappa) / (math.tau * kappa) * (
        v / kappa + math.log(v + math.sqrt(v * v - 1.0))
        - u / kappa + math.log(u + math.sqrt(u * u - 1.0)))


def minmax_objective(kappa: float) -> float:
    """Worst-case search arclength sqrt(1 + kappa^2)/kappa * e^(kappa*theta1)
    at R = 1."""
    return minmax_at(kappa, second_contact(Spiral(kappa)))


def erroneous_objective(kappa: float) -> float:
    """e^(kappa*theta1)/kappa: a historically mis-used stand-in for the
    worst-case arclength that omits the sqrt(1 + kappa^2) slope factor.
    Kept so the mistaken published estimates (0.22325, 13.49) are
    reproducible; never use it as the real objective."""
    return erroneous_at(kappa, second_contact(Spiral(kappa)))


def minmean_objective(kappa: float) -> float:
    """Mean first-contact arclength over a uniform shoreline direction, R = 1.

    Closed form, with u = e^(kappa*theta0) and v = e^(kappa*theta1):

        sqrt(1 + kappa^2) / (2*pi*kappa) *
            [ v/kappa + ln(v + sqrt(v^2 - 1)) - u/kappa + ln(u + sqrt(u^2 - 1)) ]

    Equivalently w*csc(alpha)/(2*pi) with w = (v - u)*cot(alpha)
    + ln(v + sqrt(v^2 - 1)) + ln(u + sqrt(u^2 - 1)); the test suite checks
    both forms against each other and against direct quadrature.
    """
    return minmean_at(kappa, second_contact(Spiral(kappa)))


def _exponent_rate(kappa: float, contact: TangentContact) -> float:
    """d(kappa*theta1)/d(kappa) = theta1 + kappa*theta1' of the R = 1 contact
    triple, in the cancellation-free form of the module docstring."""
    t = math.tan(contact.theta1 - contact.omega0)
    return t * (contact.theta0 - contact.theta1) / (kappa - t)


def _erroneous_slope(kappa: float, contact: TangentContact) -> float:
    """d ln(erroneous_objective)/d(kappa) = theta1 + kappa*theta1' - 1/kappa."""
    return _exponent_rate(kappa, contact) - 1.0 / kappa


def _minmax_slope(kappa: float, contact: TangentContact) -> float:
    """d ln(minmax_objective)/d(kappa): the erroneous objective's plus
    kappa/(1 + kappa^2), the log-derivative of the slope factor
    sqrt(1 + kappa^2)."""
    return kappa / (1.0 + kappa * kappa) + _erroneous_slope(kappa, contact)


def _minmean_slope(kappa: float, contact: TangentContact) -> float:
    """d ln(minmean_objective)/d(kappa) = kappa/(1 + kappa^2) - 1/kappa + W'/W,
    with W = v/kappa + acosh(v) - u/kappa + acosh(u) the bracket of
    `minmean_at`.  At R = 1, u = e^(kappa*theta0) = sqrt(1 + kappa^2)
    exactly, so the u terms of W' reduce to u/kappa^2, and
    v' = v*(theta1 + kappa*theta1')."""
    u = math.sqrt(1.0 + kappa * kappa)
    v = math.exp(kappa * contact.theta1)
    dv = v * _exponent_rate(kappa, contact)
    w = v / kappa + math.acosh(v) - u / kappa + math.acosh(u)
    dw = dv * (1.0 / kappa + 1.0 / math.sqrt(v * v - 1.0)) + (u - v) / (kappa * kappa)
    return kappa / (1.0 + kappa * kappa) - 1.0 / kappa + dw / w


def _optimum(objective_at, slope_at, bracket: Bracket) -> Optimum:
    """The stationary point of an objective on ``bracket``: `find_root` on
    ``slope_at``, its log-derivative read from one contact per evaluation.
    The objective value and the angle pair, alpha = arctan(kappa) and
    beta = theta0 + 2*pi - alpha - theta1, come from one contact solved at
    the root."""
    report = find_root(lambda k: slope_at(k, second_contact(Spiral(k))), bracket)
    kappa = report.root_or_argmin
    contact = second_contact(Spiral(kappa))
    alpha = math.atan(kappa)
    return Optimum(kappa=kappa, objective_value=objective_at(kappa, contact), alpha=alpha,
                   beta=contact.theta0 + math.tau - alpha - contact.theta1, report=report)


def minimize_minmax() -> Optimum:
    """Minimize the worst-case arclength over kappa in [0.05, 1.0]."""
    return _optimum(minmax_at, _minmax_slope, MINMAX_BRACKET)


def minimize_minmean() -> Optimum:
    """Minimize the mean arclength over kappa in [0.1, 1.0]."""
    return _optimum(minmean_at, _minmean_slope, MINMEAN_BRACKET)


def minimize_erroneous() -> Optimum:
    """Minimize the erroneous objective over kappa in [0.05, 1.0]: the
    historical erratum's argmin 0.22325... and minimum 13.495...."""
    return _optimum(erroneous_at, _erroneous_slope, MINMAX_BRACKET)


def minmax_system_residuals(pair: AnglePair) -> Tuple[float, float]:
    """Residuals of the two simultaneous equations characterizing the
    min-max optimum:

        cot(a) + cot(b) - (2*pi - a - b) * sec(a)^2             (stationarity)
        cos(a)/cos(b) - e^((2*pi - a - b) * tan(a))             (contact constraint)

    The second vanishes along the whole constraint curve beta(alpha), not
    just at the optimum.
    """
    a, b = pair.alpha, pair.beta
    r1 = 1.0 / math.tan(a) + 1.0 / math.tan(b) - (math.tau - a - b) / math.cos(a) ** 2
    return r1, _contact_residual(a, b)


def _contact_residual(a: float, b: float) -> float:
    # The contact constraint shared by both angle systems.
    return math.cos(a) / math.cos(b) - math.exp((math.tau - a - b) * math.tan(a))


def minmax_system_objective(pair: AnglePair) -> float:
    """Worst-case arclength at R = 1 from the angle pair: csc(a)*sec(b)."""
    return 1.0 / (math.sin(pair.alpha) * math.cos(pair.beta))


# Newton starting points, read off the known optima: alpha = arctan(kappa*)
# rounded to (0.2, 0.36), beta from sec(beta) = objective * sin(alpha) for the
# min-max case and from the contact constraint for the min-mean case.
MINMAX_GUESS = AnglePair(0.2, 1.2)
MINMEAN_GUESS = AnglePair(0.36, 1.1)


def solve_minmax_system() -> AnglePair:
    """Solve the min-max angle system by damped Newton iteration from
    ``MINMAX_GUESS``."""
    a, b = solve_system2(lambda x, y: minmax_system_residuals(AnglePair(x, y)),
                         (MINMAX_GUESS.alpha, MINMAX_GUESS.beta))
    return AnglePair(a, b)


def phi(pair: AnglePair) -> float:
    """First aggregate of the mean-arclength stationarity identity:
    (-2*csc(a) + ln(sec(a) + tan(a)) + ln(sec(b) + tan(b))) * (cot(a) + cot(b))."""
    a, b = pair.alpha, pair.beta
    return ((-2.0 / math.sin(a)
             + math.log(1.0 / math.cos(a) + math.tan(a))
             + math.log(1.0 / math.cos(b) + math.tan(b)))
            * (1.0 / math.tan(a) + 1.0 / math.tan(b)))


def psi(pair: AnglePair) -> float:
    """Second aggregate: (a + b - 2*pi) * (sec(a)*csc(b) + csc(a)*sec(b)) * sec(a).
    Negative for every valid pair, since a + b < 2*pi."""
    a, b = pair.alpha, pair.beta
    return ((a + b - math.tau)
            * (1.0 / (math.cos(a) * math.sin(b)) + 1.0 / (math.sin(a) * math.cos(b)))
            / math.cos(a))


def xi(pair: AnglePair) -> float:
    """Third aggregate: sec(a) - cot(a)*csc(b)
    + (tan(a)*cot(b) - csc(a)*csc(b))*sec(a) - (cot(a)^2 + csc(a)^2)*sec(b)."""
    a, b = pair.alpha, pair.beta
    return (1.0 / math.cos(a)
            - (1.0 / math.tan(a)) / math.sin(b)
            + (math.tan(a) / math.tan(b) - 1.0 / (math.sin(a) * math.sin(b))) / math.cos(a)
            - (1.0 / math.tan(a) ** 2 + 1.0 / math.sin(a) ** 2) / math.cos(b))


def minmean_system_residuals(pair: AnglePair) -> Tuple[float, float]:
    """Residuals characterizing the min-mean optimum: the stationarity
    balance phi + psi - xi (kept term-for-term, no simplification) and the
    same contact constraint as the min-max system."""
    return phi(pair) + psi(pair) - xi(pair), _contact_residual(pair.alpha, pair.beta)


def minmean_system_objective(pair: AnglePair) -> float:
    """Mean arclength at R = 1 from the angle pair: w*csc(a)/(2*pi) with
    w = (sec(b) - sec(a))*cot(a) + ln(sec(a) + tan(a)) + ln(sec(b) + tan(b)),
    the angle form of ``minmean_objective``."""
    a, b = pair.alpha, pair.beta
    w = ((1.0 / math.cos(b) - 1.0 / math.cos(a)) / math.tan(a)
         + math.log(1.0 / math.cos(a) + math.tan(a))
         + math.log(1.0 / math.cos(b) + math.tan(b)))
    return w / math.sin(a) / math.tau


def solve_minmean_system() -> AnglePair:
    """Solve the min-mean angle system by damped Newton iteration from
    ``MINMEAN_GUESS``; a trial step outside the angle domain fails
    `AnglePair`'s check, and `solve_system2` halves it."""
    a, b = solve_system2(lambda x, y: minmean_system_residuals(AnglePair(x, y)),
                         (MINMEAN_GUESS.alpha, MINMEAN_GUESS.beta))
    return AnglePair(a, b)
