import math

import numpy as np
import pytest

from shoreline import golden
from shoreline.numerics import Bracket, integrate, minimize_scalar, uniform_block
from shoreline.spiral_geometry import Spiral, arclength, second_contact
from shoreline.spiral_objectives import (AnglePair, MINMAX_BRACKET, MINMEAN_BRACKET,
                                         _erroneous_slope, _minmax_slope, _minmean_slope,
                                         erroneous_objective, minimize_erroneous,
                                         minimize_minmax, minimize_minmean, minmax_objective,
                                         minmax_system_objective, minmax_system_residuals,
                                         minmean_objective, minmean_system_objective,
                                         minmean_system_residuals, phi, psi,
                                         solve_minmax_system, solve_minmean_system, xi)

TWO_PI = 2.0 * math.pi


def angles_for(kappa):
    c = second_contact(Spiral(kappa, 1.0))
    alpha = math.atan(kappa)
    return AnglePair(alpha, c.theta0 + TWO_PI - alpha - c.theta1)


class TestMinmaxObjective:
    def test_published_optimum_value(self):
        assert minmax_objective(0.2124695594) == pytest.approx(13.8111351795, abs=1e-7)

    def test_is_arclength_at_second_contact(self):
        k = 0.37
        c = second_contact(Spiral(k, 1.0))
        assert minmax_objective(k) == arclength(k, c.theta1)

    def test_csc_sec_parametrization(self):
        for k in (0.15, 0.2124695594, 0.8):
            pair = angles_for(k)
            assert minmax_objective(k) == pytest.approx(
                1.0 / (math.sin(pair.alpha) * math.cos(pair.beta)), rel=1e-11)
            assert minmax_system_objective(pair) == pytest.approx(minmax_objective(k),
                                                                  rel=1e-11)


class TestMinimizeMinmax:
    def test_published_constants(self):
        opt = minimize_minmax()
        assert opt.kappa == pytest.approx(0.2124695594, abs=1e-8)
        assert opt.objective_value == pytest.approx(13.8111351795, abs=1e-7)
        assert math.exp(opt.kappa) == pytest.approx(1.2367284662, abs=1e-8)

    def test_optimum_type_consistency(self):
        opt = minimize_minmax()
        assert opt.kappa == pytest.approx(math.tan(opt.alpha), abs=1e-9)
        assert opt.objective_value > 0.0
        assert opt.report.converged


class TestMinmaxSystem:
    def test_residuals_vanish_at_optimum(self):
        opt = minimize_minmax()
        r1, r2 = minmax_system_residuals(AnglePair(opt.alpha, opt.beta))
        assert abs(r1) < 1e-12
        assert abs(r2) < 1e-12

    def test_constraint_residual_vanishes_off_optimum(self):
        # the second equation holds along the whole contact curve
        for k in (0.05 + (1.5 - 0.05) * uniform_block(101, 0, 200)).tolist():
            _, r2 = minmax_system_residuals(angles_for(k))
            assert abs(r2) < 1e-10

    def test_duplicate_formula_oracle(self):
        a, b = 0.3, 0.3
        r1, r2 = minmax_system_residuals(AnglePair(a, b))
        dup1 = (math.cos(a) / math.sin(a) + math.cos(b) / math.sin(b)
                - (TWO_PI - a - b) / (math.cos(a) * math.cos(a)))
        dup2 = math.cos(a) / math.cos(b) - math.exp((TWO_PI - a - b) * math.tan(a))
        assert r1 == pytest.approx(dup1, abs=1e-12)
        assert r2 == pytest.approx(dup2, abs=1e-12)
        assert r1 == pytest.approx(0.23845314273101703, abs=1e-12)
        assert r2 == pytest.approx(-4.80091247677056, abs=1e-11)

    def test_solution(self):
        pair = solve_minmax_system()
        r1, r2 = minmax_system_residuals(pair)
        assert max(abs(r1), abs(r2)) < 1e-12
        assert math.tan(pair.alpha) == pytest.approx(0.2124695594, abs=1e-8)
        assert 1.0 / (math.sin(pair.alpha) * math.cos(pair.beta)) == pytest.approx(
            13.8111351795, abs=1e-7)

    def test_theta1_parametrization_cross_check(self):
        pair = solve_minmax_system()
        k = math.tan(pair.alpha)
        c = second_contact(Spiral(k, 1.0))
        theta1_from_angles = (TWO_PI - pair.alpha - pair.beta) + c.theta0
        assert c.theta1 == pytest.approx(theta1_from_angles, abs=1e-8)


class TestMinmeanObjective:
    def test_published_optimum_value(self):
        assert minmean_objective(0.3732051316) == pytest.approx(7.0321857865, abs=1e-7)

    def test_two_closed_forms_agree(self):
        for k in (0.08 + (1.8 - 0.08) * uniform_block(55, 0, 30)).tolist():
            pair = angles_for(k)
            a, b = pair.alpha, pair.beta
            u, v = 1.0 / math.cos(a), 1.0 / math.cos(b)
            w = ((v - u) / math.tan(a)
                 + math.log(v + math.sqrt(v * v - 1.0))
                 + math.log(u + math.sqrt(u * u - 1.0)))
            assert minmean_objective(k) == pytest.approx(
                w / math.sin(a) / TWO_PI, rel=1e-12)

    def test_quadrature_cross_check(self):
        # direct integration of the mean over shoreline direction, using the
        # change of variables d(omega) = (1 -+ k/sqrt(e^(2k th) - 1)) d(theta)
        # split at theta = 0 (integrable 1/sqrt singularity there)
        k = 0.5
        c = second_contact(Spiral(k, 1.0))
        rate = lambda th: k / math.sqrt(math.expm1(2.0 * k * th))
        up = integrate(lambda th: math.exp(k * th) * (1.0 + rate(th)), 0.0, c.theta1, 1e-9)
        down = integrate(lambda th: math.exp(k * th) * (1.0 - rate(th)), 0.0, c.theta0, 1e-9)
        mean = math.sqrt(1.0 + k * k) / (TWO_PI * k) * (up - down)
        assert minmean_objective(k) == pytest.approx(mean, abs=1e-6)

    def test_mean_below_worst_case(self):
        for k in np.linspace(0.08, 1.9, 25):
            assert minmean_objective(float(k)) < minmax_objective(float(k))


class TestMinimizeMinmean:
    def test_published_constants(self):
        opt = minimize_minmean()
        assert opt.kappa == pytest.approx(0.3732051316, abs=1e-8)
        assert opt.objective_value == pytest.approx(7.0321857865, abs=1e-7)
        assert math.exp(opt.kappa) == pytest.approx(1.4523822387, abs=1e-8)


class TestMinmeanSystem:
    def test_stationarity_balance_at_optimum(self):
        # zero at the solved system and at the direct route's derivative
        # root, which both sit within a few ulps of the optimum
        pair = solve_minmean_system()
        assert abs(phi(pair) + psi(pair) - xi(pair)) < 1e-12
        opt = minimize_minmean()
        direct = AnglePair(opt.alpha, opt.beta)
        assert abs(phi(direct) + psi(direct) - xi(direct)) < 1e-12

    def test_psi_negative(self):
        u = iter(uniform_block(77, 0, 200).tolist())
        for _ in range(100):
            pair = AnglePair(0.05 + 1.45 * next(u), 0.05 + 1.45 * next(u))
            assert psi(pair) < 0.0

    def test_duplicate_formula_oracle(self):
        pair = AnglePair(0.4, 1.0)
        a, b = 0.4, 1.0
        sec, csc, cot, tan = (lambda t: 1 / math.cos(t)), (lambda t: 1 / math.sin(t)), \
            (lambda t: 1 / math.tan(t)), math.tan
        dup_phi = (-2 * csc(a) + math.log(sec(a) + tan(a)) + math.log(sec(b) + tan(b))) \
            * (cot(a) + cot(b))
        dup_psi = (a + b - TWO_PI) * (sec(a) * csc(b) + csc(a) * sec(b)) * sec(a)
        dup_xi = (sec(a) - cot(a) * csc(b) + (tan(a) * cot(b) - csc(a) * csc(b)) * sec(a)
                  - (cot(a) ** 2 + csc(a) ** 2) * sec(b))
        assert phi(pair) == pytest.approx(dup_phi, abs=1e-12)
        assert psi(pair) == pytest.approx(dup_psi, abs=1e-12)
        assert xi(pair) == pytest.approx(dup_xi, abs=1e-12)
        assert phi(pair) == pytest.approx(-10.521270649776893, abs=1e-11)
        assert psi(pair) == pytest.approx(-32.03823099870988, abs=1e-11)
        assert xi(pair) == pytest.approx(-27.30240734391941, abs=1e-11)

    def test_solution(self):
        pair = solve_minmean_system()
        r1, r2 = minmean_system_residuals(pair)
        assert max(abs(r1), abs(r2)) < 1e-12
        assert math.tan(pair.alpha) == pytest.approx(0.3732051316, abs=1e-8)

    def test_displayed_arclength_formula(self):
        pair = solve_minmean_system()
        a, b = pair.alpha, pair.beta
        display = (math.log(1 / math.cos(a) + math.tan(a))
                   + math.log(1 / math.cos(b) + math.tan(b))
                   - (1 / math.cos(a) - 1 / math.cos(b)) / math.tan(a)) \
            / math.sin(a) / TWO_PI
        assert display == pytest.approx(7.0321857865, abs=1e-7)
        assert minmean_system_objective(pair) == pytest.approx(display, rel=1e-14)

    def test_constraint_shared_with_minmax_solution(self):
        # the second equation does not depend on the objective, so the
        # min-max solution satisfies it too
        pair6 = solve_minmax_system()
        _, r2 = minmean_system_residuals(pair6)
        assert abs(r2) < 1e-12

    def test_routes_agree(self):
        opt = minimize_minmean()
        pair = solve_minmean_system()
        assert abs(math.tan(pair.alpha) - opt.kappa) <= 1e-12
        assert abs(minmean_system_objective(pair) - opt.objective_value) <= 1e-12 * 7.0


class TestErroneousObjective:
    def test_erratum_derivative_root(self):
        # the derivative root agrees with the derivative-free search below
        # and with its mpmath value 0.22325376400369051
        opt = minimize_erroneous()
        assert opt.kappa == pytest.approx(0.22325376400369051, abs=1e-12)
        assert opt.objective_value == pytest.approx(13.495022169503878, abs=1e-11)
        assert opt.report.converged
        report = minimize_scalar(erroneous_objective, Bracket(0.05, 1.0))
        assert opt.kappa == pytest.approx(report.root_or_argmin, abs=1e-9)
        assert opt.objective_value <= report.residual_or_value

    def test_published_erratum_pair(self):
        report = minimize_scalar(erroneous_objective, Bracket(0.05, 1.0))
        assert report.root_or_argmin == pytest.approx(0.22325, abs=5e-6)
        # the published 13.49 is the erroneous objective's own minimum
        # (13.4950...); the true arclength at that argmin is 13.827
        assert report.residual_or_value == pytest.approx(13.49, abs=1e-2)
        assert minmax_objective(report.root_or_argmin) == pytest.approx(13.827, abs=1e-3)

    def test_ratio_to_true_objective(self):
        for k in (0.05 + (2.0 - 0.05) * uniform_block(13, 0, 20)).tolist():
            ratio = minmax_objective(k) / erroneous_objective(k)
            assert ratio == pytest.approx(math.sqrt(1.0 + k * k), rel=1e-12)


class TestUnimodalityOfBrackets:
    # the scalar-search brackets are asserted unimodal by scan, not assumed
    def _is_unimodal(self, values):
        sign_changes = 0
        prev = values[1] - values[0]
        for i in range(2, len(values)):
            step = values[i] - values[i - 1]
            if step != 0.0 and prev != 0.0 and (step > 0.0) != (prev > 0.0):
                sign_changes += 1
            if step != 0.0:
                prev = step
        return sign_changes <= 1

    def test_minmax_bracket_scan(self):
        ks = np.linspace(MINMAX_BRACKET.lo, MINMAX_BRACKET.hi, 1000)
        assert self._is_unimodal([minmax_objective(float(k)) for k in ks])

    def test_minmean_bracket_scan(self):
        ks = np.linspace(MINMEAN_BRACKET.lo, MINMEAN_BRACKET.hi, 1000)
        assert self._is_unimodal([minmean_objective(float(k)) for k in ks])


def test_angle_pair_validation():
    with pytest.raises(ValueError):
        AnglePair(0.0, 1.0)
    with pytest.raises(ValueError):
        AnglePair(0.5, math.pi / 2.0)


SLOPES = [(minimize_minmax, _minmax_slope, minmax_objective, golden.MINMAX_KAPPA_REF),
          (minimize_minmean, _minmean_slope, minmean_objective, golden.MINMEAN_KAPPA_REF)]


class TestDerivativeRoute:
    @pytest.mark.parametrize("minimize, slope, objective, reference", SLOPES)
    def test_matches_reference(self, minimize, slope, objective, reference):
        opt = minimize()
        assert abs(opt.kappa - reference) <= 1e-12
        assert opt.report.converged
        # the objective value is read from the contact solved at the root
        assert opt.objective_value == objective(opt.kappa)
        contact = second_contact(Spiral(opt.kappa))
        assert opt.beta == contact.theta0 + TWO_PI - opt.alpha - contact.theta1

    @pytest.mark.parametrize("minimize, reference, ulps", [
        (minimize_minmax, golden.MINMAX_KAPPA_REF, 2),
        (minimize_minmean, golden.MINMEAN_KAPPA_REF, 5)])
    def test_ulps_from_reference(self, minimize, reference, ulps):
        # Brent's steps reach the last bits of each root in a few iterations;
        # the min-mean slope rounds to 0.0 or flips sign several times within
        # 5 ulps below its reference, so no kernel can pin that root closer
        opt = minimize()
        assert abs(opt.kappa - reference) <= ulps * math.ulp(reference)
        assert opt.report.converged and opt.report.iterations <= 15

    @pytest.mark.parametrize("minimize, slope, objective, reference", SLOPES)
    def test_certificate(self, minimize, slope, objective, reference):
        # the derivative changes sign across kappa* -+ 1e-12, and both ends
        # print the ten significant digits of the CLI's kappa line
        k = minimize().kappa
        lo, hi = k - 1e-12, k + 1e-12
        assert slope(lo, second_contact(Spiral(lo))) < 0.0 < slope(hi, second_contact(Spiral(hi)))
        assert f"{lo:.10g}" == f"{hi:.10g}" == f"{k:.10g}"

    @pytest.mark.parametrize("slope, objective", [
        (_minmax_slope, minmax_objective), (_minmean_slope, minmean_objective),
        (_erroneous_slope, erroneous_objective)])
    def test_slope_is_log_derivative(self, slope, objective):
        # against a central difference of ln(objective), whose error at
        # h = 1e-6 is a few 1e-10
        h = 1e-6
        for k in (0.08 + (1.8 - 0.08) * uniform_block(31, 0, 20)).tolist():
            fd = (math.log(objective(k + h)) - math.log(objective(k - h))) / (2.0 * h)
            assert slope(k, second_contact(Spiral(k))) == pytest.approx(fd, abs=1e-8)


def test_spiral_references_by_mpmath():
    # both spiral optima recomputed at 40 digits: theta1 from its defining
    # equation, each log-objective differentiated numerically by mpmath,
    # so no analytic derivative of the package is reused
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def theta1(k):
            om0 = mp.log(1 + k * k) / (2 * k) - mp.atan(k)
            return mp.findroot(lambda th: k * th + mp.log(mp.cos(th - om0)),
                               (om0 + 1.5 * mp.pi + mp.mpf("1e-30"), om0 + 2 * mp.pi),
                               solver="anderson")

        def ln_minmax(k):
            return mp.log(mp.sqrt(1 + k * k) / k) + k * theta1(k)

        def ln_minmean(k):
            # ln(2*pi*minmean_objective): the constant drops out of the root
            u, v = mp.sqrt(1 + k * k), mp.exp(k * theta1(k))
            return mp.log(u / k * (v / k + mp.acosh(v) - u / k + mp.acosh(u)))

        for f, start, reference in ((ln_minmax, "0.2124695594", golden.MINMAX_KAPPA_REF),
                                    (ln_minmean, "0.3732051316", golden.MINMEAN_KAPPA_REF)):
            root = mp.findroot(lambda k: mp.diff(f, k), mp.mpf(start))
            # each golden reference is the double nearest the 40-digit root
            assert float(root) == reference
