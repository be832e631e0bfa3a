import math

import numpy as np
import pytest

from shoreline import spiral_geometry
from shoreline.numerics import find_root, integrate, uniform_block
from shoreline.spiral_geometry import (Spiral, TangentContact, arclength, contact_distance,
                                       second_contact, tangent_contact)

TWO_PI = 2.0 * math.pi


def assert_root_of_log_equation(k, R, contact, ulps=4):
    """kappa*theta + ln cos(theta - omega0) - ln R, -inf where the cosine is
    not positive, is negative a few ulps below theta1 and non-negative a few
    ulps above.  At large kappa the cosine at theta1 is far below the
    rounding of theta1 - omega0, so a residual at theta1 itself says nothing."""
    th1, om0 = contact.theta1, contact.omega0
    step = ulps * math.ulp(max(abs(th1), abs(om0)))

    def log_eq(th):
        cos = math.cos(th - om0)
        return k * th + math.log(cos) - math.log(R) if cos > 0.0 else -math.inf

    assert log_eq(th1 - step) < 0.0 <= log_eq(th1 + step), (k, R)


def assert_double_root(k, rho, omega, theta):
    """theta is a double root of the contact distance to the line tangent to
    the circle of radius ``rho`` at ``omega``: d = 0 and d' = 0 to rounding,
    taken at rho = 1 by the shift ln(rho)/kappa."""
    shift = math.log(rho) / k
    th, om = theta - shift, omega - shift
    slope = math.exp(k * th) * (k * math.cos(th - om) - math.sin(th - om))
    assert abs(contact_distance(k, om, th)) <= 1e-14, (k, rho)
    assert abs(slope) <= 1e-14, (k, rho)


class TestLineDistance:
    def test_spiral_tangent_identity(self):
        # the spiral's tangent line at theta, with normal angle
        # theta - arctan(kappa), lies at distance e^(k*theta)/sqrt(1+k^2)
        for k, th in [(1.0, 0.0), (0.5, 0.3), (2.0, -1.0)]:
            rho = math.exp(k * th) / math.sqrt(1.0 + k * k)
            assert_double_root(k, rho, th - math.atan(k), th)


class TestTangentContact:
    def test_unit_case(self):
        th0, om0 = tangent_contact(Spiral(1.0, 1.0))
        assert th0 == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert om0 == pytest.approx(0.5 * math.log(2.0) - math.pi / 4.0, abs=1e-15)

    def test_radius_scaling(self):
        u = iter(uniform_block(7, 0, 40).tolist())
        for _ in range(20):
            k = 0.05 + 1.95 * next(u)
            R = 0.1 + 9.9 * next(u)
            th0_R, _ = tangent_contact(Spiral(k, R))
            th0_1, _ = tangent_contact(Spiral(k, 1.0))
            assert th0_R - th0_1 == pytest.approx(math.log(R) / k, abs=1e-10)

    def test_contact_angle_is_arctan_kappa(self):
        th0, om0 = tangent_contact(Spiral(0.2124695594, 1.0))
        assert th0 - om0 == pytest.approx(math.atan(0.2124695594), abs=1e-15)

    def test_angle_identity(self):
        u = iter(uniform_block(11, 0, 100).tolist())
        for _ in range(50):
            k = 0.05 + 1.95 * next(u)
            th0, om0 = tangent_contact(Spiral(k, 0.1 + 9.9 * next(u)))
            assert abs(math.cos(th0 - om0) * math.sqrt(1.0 + k * k) - 1.0) < 1e-12

    def test_huge_kappa_is_finite(self):
        # ln(1 + kappa^2)/2 is ln(kappa) to rounding on both sides of the
        # kappa where kappa^2 overflows
        th0, om0 = tangent_contact(Spiral(1e300))
        assert th0 == math.log(1e300) / 1e300
        assert om0 == pytest.approx(-0.5 * math.pi, abs=1e-15)
        for k in (1.3e154, 1.35e154, 1.7e308):
            assert tangent_contact(Spiral(k))[0] * k == pytest.approx(math.log(k), rel=1e-15)

    def test_invalid_spiral(self):
        with pytest.raises(ValueError):
            Spiral(0.0, 1.0)
        with pytest.raises(ValueError):
            Spiral(1.0, -2.0)


class TestSecondContact:
    def test_defining_residual_random(self):
        u = iter(uniform_block(23, 0, 120).tolist())
        for _ in range(60):
            k = 0.05 + 1.95 * next(u)
            R = 0.1 + 9.9 * next(u)
            c = second_contact(Spiral(k, R))
            resid = math.exp(k * c.theta1) * math.cos(c.theta1 - c.omega0) - R
            assert abs(resid) <= 1e-10

    def test_ordering_invariant(self):
        c = second_contact(Spiral(0.7, 3.0))
        assert c.omega0 < c.theta0 < c.theta1 < c.theta0 + TWO_PI

    def test_matches_grid_scan(self):
        # oracle: first sign change of the residual on a dense grid above theta0
        k = 0.5
        c = second_contact(Spiral(k, 1.0))
        grid = np.linspace(c.theta0 + 0.01, c.theta0 + TWO_PI, 1_000_001)
        vals = np.exp(k * grid) * np.cos(grid - c.omega0) - 1.0
        first = int(np.argmax(vals >= 0.0))
        assert grid[first - 1] <= c.theta1 <= grid[first]

    def test_minmax_arclength_value(self):
        k = 0.2124695594
        c = second_contact(Spiral(k, 1.0))
        assert arclength(k, c.theta1) == pytest.approx(13.8111351795, abs=1e-7)

    def test_uniqueness_by_scan(self):
        for k in (0.1 + (2.0 - 0.1) * uniform_block(5, 0, 5)).tolist():
            c = second_contact(Spiral(k, 1.0))
            grid = np.linspace(c.theta0 + 1e-6, c.theta0 + TWO_PI, 200_001)
            vals = np.exp(k * grid) * np.cos(grid - c.omega0) - 1.0
            flips = np.count_nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
            assert flips == 1

    @pytest.mark.parametrize("k", [0.05, 0.3, 1.0, 5.0, 30.0])
    def test_extreme_radii_solve_log_equation(self, k):
        # theta1 is solved at R = 1, where the residual is of unit scale, and
        # shifted by ln(R)/kappa: at any R the log form of the defining
        # equation changes sign within a few ulps of theta1
        for R in (1e-300, 1e-20, 1e-10, 1e10, 1e300):
            assert_root_of_log_equation(k, R, second_contact(Spiral(k, R)))

    def test_contact_angles_validation(self):
        with pytest.raises(ValueError, match="out of order"):
            TangentContact(theta0=1.0, omega0=2.0, theta1=3.0)


# 200 log-spaced kappa over [1e-3, 5], the range of the kernel checks below
KAPPA_GRID = np.geomspace(1e-3, 5.0, 200).tolist()


class TestSecondContactKernel:
    def test_few_evaluations(self, monkeypatch):
        # Brent's steps pin theta1 in at most 12 evaluations past the two
        # bracket ends above kappa = 2e-3; below it the root sits close to the
        # bracket's right end, where the residual bends sharply, and the first
        # steps fall back to bisection, so some kappa there take 13
        reports = []

        def recording_find_root(f, bracket):
            reports.append(find_root(f, bracket))
            return reports[-1]

        monkeypatch.setattr(spiral_geometry, "find_root", recording_find_root)
        for k in KAPPA_GRID:
            second_contact(Spiral(k))
            assert reports[-1].converged
            assert reports[-1].iterations <= (12 if k >= 2e-3 else 13), k

    def test_theta1_within_three_ulps_of_a_sign_change(self):
        # contact_distance changes sign (or is 0) between two adjacent
        # doubles no more than 3 ulps from theta1
        for k in KAPPA_GRID:
            c = second_contact(Spiral(k))
            below, above = [c.theta1], [c.theta1]
            for _ in range(3):
                below.append(math.nextafter(below[-1], -math.inf))
                above.append(math.nextafter(above[-1], math.inf))
            d = [contact_distance(k, c.omega0, th) for th in below[::-1] + above[1:]]
            assert any(a <= 0.0 <= b for a, b in zip(d, d[1:])), k


class TestScaleTheta1:
    """second_contact solves theta1 at R = 1 and shifts it by ln(R)/kappa."""

    def test_unit_radius(self):
        # no shift at R = 1: the unit-scale residual changes sign at theta1
        c = second_contact(Spiral(0.5, 1.0))
        step = 2.0 * math.ulp(c.theta1)
        assert c.omega0 == tangent_contact(Spiral(0.5))[1]
        assert contact_distance(0.5, c.omega0, c.theta1 - step) < 0.0
        assert contact_distance(0.5, c.omega0, c.theta1 + step) > 0.0

    def test_e_radius(self):
        shift = second_contact(Spiral(0.5, math.e)).theta1 - second_contact(Spiral(0.5)).theta1
        assert shift == pytest.approx(2.0, abs=1e-14)

    def test_defining_equation_over_forty_decades(self):
        # second_contact shifts theta1 by ln(R)/kappa, so the shifted value
        # is checked against the defining equation in log form, R log-uniform
        u = iter(uniform_block(17, 0, 80).tolist())
        for _ in range(40):
            k = 0.05 + 1.95 * next(u)
            R = 10.0 ** (-20.0 + 40.0 * next(u))
            c = second_contact(Spiral(k, R))
            log_eq = k * c.theta1 + math.log(math.cos(c.theta1 - c.omega0)) - math.log(R)
            assert abs(log_eq) <= 1e-10

    def test_offset_invariance_across_radii(self):
        # theta1(R) - omega0(R) does not depend on R
        k = 0.3
        offsets = []
        for R in (0.1, 1.0, 10.0, 1000.0):
            c = second_contact(Spiral(k, R))
            offsets.append(c.theta1 - c.omega0)
        assert max(offsets) - min(offsets) < 1e-10


class TestArclength:
    def test_unit(self):
        assert arclength(1.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_doubling(self):
        assert arclength(1.0, math.log(2.0)) == pytest.approx(2.0 * math.sqrt(2.0),
                                                              rel=1e-14)

    def test_quadrature_oracle(self):
        # lower limit deep enough that the truncated tail is ~1e-10
        k = 0.3
        ds = lambda th: math.sqrt(1.0 + k * k) * math.exp(k * th)
        assert arclength(k, 2.0) == pytest.approx(integrate(ds, -80.0, 2.0, 1e-10),
                                                  abs=1e-8)

    def test_monotone_and_turn_ratio(self):
        u = iter(uniform_block(3, 0, 40).tolist())
        for _ in range(20):
            k = 0.05 + 1.95 * next(u)
            th = -5.0 + 10.0 * next(u)
            assert arclength(k, th) > 0.0
            assert arclength(k, th + 0.1) > arclength(k, th)
            ratio = arclength(k, th + TWO_PI) / arclength(k, th)
            assert ratio == pytest.approx(math.exp(TWO_PI * k), rel=1e-12)


def test_tangency_line_distance_equals_radius():
    # the spiral's tangent line at theta0 is the circle's tangent at omega0:
    # theta0 is a double root of the contact distance at distance R
    u = iter(uniform_block(29, 0, 100).tolist())
    for _ in range(50):
        k = 0.05 + 1.95 * next(u)
        R = 0.1 + 9.9 * next(u)
        th0, om0 = tangent_contact(Spiral(k, R))
        assert_double_root(k, R, om0, th0)
