import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from shoreline import golden, simulate
from shoreline.cli import main
from shoreline.coil import (Coil, MixedStrategy, average_ratio, bracket_index, bracket_ratio,
                            mixed_expected_ratio, travel_distance, worst_case_ratio)
from shoreline.numerics import NumericalError, uniform_block
from shoreline.simulate import (_BLOCK, _REFINE_TOL, SampleStats, SimConfig,
                                _bisect_contacts, _first_contacts, _inverse_table, _log_cos,
                                _on_or_past,
                                coil_marching_distance, coil_walk_sample, mixed_strategy_sample,
                                monte_carlo_mean_arclength, scan_worst_ratio,
                                spiral_first_contact)
from shoreline.spiral_geometry import (Spiral, arclength, contact_distance, second_contact,
                                       tangent_contact)
from shoreline.spiral_objectives import minmax_objective, minmean_objective

TWO_PI = 2.0 * math.pi

# Relative tolerance of a block merge's mean and standard error against one
# whole array's (`simulate._summarize`).
MERGE_REL = 1e-14

CFG = SimConfig(seed=0, samples=1, march_step=1e-3)
MC_CFG = SimConfig(march_step=0.02)


class TestSpiralFirstContact:
    def test_tangential_grazing(self):
        # at omega = omega0 the line is touched, not crossed; looser tolerance
        k = 0.2124695594
        th0, om0 = tangent_contact(Spiral(k, 1.0))
        th_hit, arc = spiral_first_contact(k, om0, CFG)
        assert th_hit == pytest.approx(th0, abs=1e-6)
        assert arc == pytest.approx(math.sqrt(1 + k * k) / k * math.exp(k * th0), rel=1e-5)

    def test_approaches_second_contact(self):
        k = 0.2124695594
        c = second_contact(Spiral(k, 1.0))
        th_hit, _ = spiral_first_contact(k, c.omega0 + TWO_PI - 1e-7, CFG)
        assert th_hit == pytest.approx(c.theta1, abs=1e-6)

    def test_defining_equation_and_grid_minimality(self):
        k, om = 0.5, 1.0
        th_hit, _ = spiral_first_contact(k, om, CFG)
        assert abs(math.exp(k * th_hit) * math.cos(th_hit - om) - 1.0) < 1e-9
        # no earlier crossing: dense grid from the march start to the hit
        grid = np.linspace(min(0.0, om) - TWO_PI, th_hit - 1e-7, 400_001)
        vals = np.exp(k * grid) * np.cos(grid - om) - 1.0
        assert (vals < 0.0).all()

    def test_near_graze_just_below_tangency(self):
        # a line missed by a hair is only met a full turn later
        k = 0.5
        th0, om0 = tangent_contact(Spiral(k, 1.0))
        th_hit, _ = spiral_first_contact(k, om0 - 1e-6, CFG)
        assert th_hit > th0 + 3.0

    def test_contact_map_shape(self):
        # as omega sweeps one period the first-contact angle falls from
        # theta0 to ~0 (omega -> 0) and then climbs to theta1; it spans
        # [0, theta1], dipping below theta0 on the first stretch
        k = 0.3732051316
        c = second_contact(Spiral(k, 1.0))
        omegas = np.linspace(c.omega0, c.omega0 + TWO_PI, 1000, endpoint=False)
        hits = np.array([spiral_first_contact(k, float(w), CFG)[0] for w in omegas])
        assert hits[0] == pytest.approx(c.theta0, abs=1e-6)
        assert hits.min() >= -1e-9
        assert hits.min() < 0.01
        assert hits.max() <= c.theta1 + 1e-9
        assert hits[-1] == pytest.approx(c.theta1, abs=0.05)
        joint = int(np.argmin(hits))
        assert omegas[joint] == pytest.approx(0.0, abs=0.01)
        falling, rising = hits[: joint + 1], hits[joint:]
        assert (np.diff(falling) < 1e-9).all()
        assert (np.diff(rising) > -1e-9).all()

    def test_change_of_variables_derivative(self):
        # d(theta_hit)/d(omega) = 1 / (1 -+ k/sqrt(e^(2k th) - 1)) on the two
        # branches, checked against finite differences of the simulated map
        k = 0.5
        _, om0 = tangent_contact(Spiral(k, 1.0))
        h = 1e-5

        def sim(w):
            return spiral_first_contact(k, w, CFG)[0]

        for w, sign in [(2.0, +1.0), (4.0, +1.0), (om0 + 0.05, -1.0)]:
            fd = (sim(w + h) - sim(w - h)) / (2.0 * h)
            th = sim(w)
            analytic = 1.0 / (1.0 + sign * k / math.sqrt(math.exp(2.0 * k * th) - 1.0))
            assert fd == pytest.approx(analytic, rel=1e-3)

    def test_shares_no_kernel_with_the_monte_carlo_contacts(self, monkeypatch):
        # the march is the reference the Monte Carlo kernel is checked against,
        # so none of its branches may call that kernel's sign test or bisection:
        # a tangency, a graze-band crossing and two plain crossings
        def forbidden(*args):
            raise AssertionError("the reference march called the Monte Carlo kernel")

        monkeypatch.setattr(simulate, "_on_or_past", forbidden)
        monkeypatch.setattr(simulate, "_bisect_contacts", forbidden)
        k = 0.5
        th0, om0 = tangent_contact(Spiral(k, 1.0))
        assert spiral_first_contact(k, om0, MC_CFG)[0] == pytest.approx(th0, abs=1e-6)
        for w in (om0 + 1e-6, 1.0, 4.0):
            th, _ = spiral_first_contact(k, w, MC_CFG)
            d = [contact_distance(k, w, x)
                 for x in (th - 0.5 * _REFINE_TOL, th, th + 0.5 * _REFINE_TOL)]
            assert d[0] < 0.0 <= d[2] and abs(d[1]) <= 1e-15

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            spiral_first_contact(-1.0, 0.5, CFG)


class TestFirstContacts:
    # the Monte Carlo kernel against the scalar reference march at the
    # acceptance run's step, including kappa where e^(kappa*theta) underflows
    # at the march start
    KAPPAS = [golden.MINMAX_KAPPA, golden.MINMEAN_KAPPA, 1.0, 5.0, 100.0, 150.0]

    @pytest.mark.parametrize("k", KAPPAS)
    def test_matches_scalar_reference(self, k):
        _, om0 = tangent_contact(Spiral(k, 1.0))
        omegas = om0 + TWO_PI * (np.arange(400) + 0.5) / 400
        hits = _first_contacts(_inverse_table(k), omegas)
        scalar = [spiral_first_contact(k, float(w), MC_CFG)[0] for w in omegas]
        assert np.abs(hits - scalar).max() <= _REFINE_TOL

    @pytest.mark.parametrize("k", KAPPAS)
    def test_tangency_returns_theta0(self, k):
        # omega0 is a double root of the log distance, so the kernel can only
        # meet theta0 as closely as rounding lets g be >= 0 near its peak
        th0, om0 = tangent_contact(Spiral(k, 1.0))
        assert _first_contacts(_inverse_table(k), np.array([om0]))[0] == \
            pytest.approx(th0, abs=1e-7)

    @staticmethod
    def _block(k, monkeypatch):
        # one block of directions with both ends of the period, run with
        # warnings as errors; returns (omegas, contacts, directions bisected)
        table = _inverse_table(k)
        omegas = table.omega0 + TWO_PI * uniform_block(29, 0, _BLOCK)
        omegas[:2] = table.omega0, math.nextafter(table.omega0 + TWO_PI, -math.inf)
        bisected = []

        def recorder(kappa, w, lo, hi):
            bisected.extend(np.atleast_1d(w))
            return _bisect_contacts(kappa, w, lo, hi)

        monkeypatch.setattr(simulate, "_bisect_contacts", recorder)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = _first_contacts(table, omegas)
        return omegas, hits, set(bisected)

    @pytest.mark.parametrize("k", [golden.MINMAX_KAPPA, golden.MINMEAN_KAPPA, 0.1,
                                   1.0, 5.0, 100.0, 150.0])
    def test_every_contact_is_certified(self, k, monkeypatch):
        # guessed or bisected, each contact lies within _REFINE_TOL/2 of a
        # sign change of d, checked with libm; omega0 itself is the double
        # root, where d touches zero without changing sign
        omegas, hits, _ = self._block(k, monkeypatch)
        th0, _ = tangent_contact(Spiral(k, 1.0))
        assert hits[0] == pytest.approx(th0, abs=1e-7)
        for w, t in zip(omegas[1:], hits[1:]):
            d = [math.exp(k * x) * math.cos(x - w) - 1.0
                 for x in (t - 0.5 * _REFINE_TOL, t + 0.5 * _REFINE_TOL)]
            assert d[0] < 0.0 <= d[1]

    def test_table_guesses_hold_at_the_workload_kappas(self, monkeypatch):
        # the table's guesses pass the certificate on every drawn row at the
        # benchmark's kappa range; only the exact tangency may be bisected
        for k in (golden.MINMAX_KAPPA, golden.MINMEAN_KAPPA, 0.1, 0.5, 1.0):
            omegas, _, bisected = self._block(k, monkeypatch)
            assert bisected <= {omegas[0]}

    def test_steep_cells_fall_back_to_bisection(self, monkeypatch):
        # at kappa = 100, t falls so steeply toward -pi/2 in a few cells that
        # their cubic guesses miss the certificate, and those rows are bisected
        omegas, _, bisected = self._block(100.0, monkeypatch)
        assert bisected - {omegas[0]}


def _newton_reference(k, level, t):
    """Eight Newton steps on k*t + ln cos t = level from t, kept inside
    [-pi/2, atan(k)], with ln cos t read as log1p(-2 sin^2(t/2)) for |t| < 1
    and ln(cos t) beyond, not as the table reads it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            log_cos = np.where(np.abs(t) < 1.0, np.log1p(-2.0 * np.sin(0.5 * t) ** 2),
                               np.log(np.cos(t)))
            t = np.clip(t - (k * t + log_cos - level) / (k - np.tan(t)), -0.5 * math.pi,
                        math.atan(k))
    return t


class TestInverseTable:
    # the cells each kappa's table takes under its error rule: 512 up to
    # kappa = 1, and the 4096 cap from kappa = 20
    CELLS = {1e-8: 512, 0.1: 512, golden.MINMAX_KAPPA: 512, golden.MINMEAN_KAPPA: 512,
             1.0: 512, 5.0: 2048, 20.0: 4096, 30.0: 4096, 100.0: 4096}
    # rows bisected among 200,000 seed-1 directions with 4096 cells and four
    # Newton steps at every kappa; none at kappa <= 20
    BISECTED_AT_4096 = {30.0: 481, 100.0: 3623}

    def _table(self, k):
        table = _inverse_table(k)
        assert table.cells == len(table.coef) == self.CELLS[k]
        return table

    @staticmethod
    def _levels(table, x):
        # H_max - s^2 at s = x*step
        s = x / table.inv_step
        return -table.kappa * table.omega0 - s * s

    @pytest.mark.parametrize("k", CELLS)
    def test_nodes_match_a_newton_reference(self, k):
        table = self._table(k)
        x = np.arange(table.cells + 1.0)
        nodes = np.append(table.coef[:, 0], table.coef[-1].sum())
        reference = _newton_reference(k, self._levels(table, x), nodes)
        assert nodes[0] == math.atan(k)
        assert np.abs(nodes[1:] - reference[1:]).max() <= 1e-14

    @pytest.mark.parametrize("k", CELLS)
    def test_midpoint_error_is_measured_and_within_tolerance(self, k):
        # the error the table records is its cubics' distance from the
        # solved levels at the cell midpoints, within tolerance below the cap
        table = self._table(k)
        mid = table.coef @ np.array([1.0, 0.5, 0.25, 0.125])
        level = self._levels(table, np.arange(table.cells) + 0.5)
        error = np.abs(mid - _newton_reference(k, level, mid)).max()
        assert table.error == pytest.approx(error, rel=0.01)
        if table.cells < simulate._TABLE_CELLS:
            assert table.error <= simulate._TABLE_TOL
        if table.cells > simulate._COARSE_CELLS:  # a smaller table misses the tolerance
            assert table.error * 16.0 > simulate._TABLE_TOL

    @pytest.mark.parametrize("k", CELLS)
    def test_bisected_rows_on_seed_one_draws(self, k, monkeypatch):
        table = self._table(k)
        omegas = table.omega0 + TWO_PI * uniform_block(1, 0, 200_000)
        bisected = []

        def recorder(kappa, w, lo, hi):
            bisected.extend(np.atleast_1d(w))
            return _bisect_contacts(kappa, w, lo, hi)

        monkeypatch.setattr(simulate, "_bisect_contacts", recorder)
        _first_contacts(table, omegas)
        assert len(bisected) <= self.BISECTED_AT_4096.get(k, 0)


class TestBisectContacts:
    def test_array_matches_scalars_and_ends_at_a_sign_change(self):
        # width-h brackets are march crossings; a graze bracket runs from one
        # step before the falling step to the refined peak, up to 2h wide
        h = 0.02
        for k in (golden.MINMAX_KAPPA, 0.5, 1.3):
            _, om0 = tangent_contact(Spiral(k, 1.0))
            omegas = om0 + TWO_PI * uniform_block(31, 0, 50)
            hi = np.empty(omegas.size)
            for i, w in enumerate(omegas):
                grid = min(0.0, w) - TWO_PI + h * np.arange(int(8.0 * math.pi / h))
                hi[i] = grid[np.argmax(np.exp(k * grid) * np.cos(grid - w) >= 1.0)]
            mixed = np.where(np.arange(omegas.size) % 2 == 0, hi - h, hi - 2.0 * h)
            for lo in (hi - h, hi - 2.0 * h, mixed):
                hits = _bisect_contacts(k, omegas, lo, hi)
                for w, a, b, t in zip(omegas, lo, hi, hits):
                    if lo is not mixed:
                        assert _bisect_contacts(k, float(w), float(a), float(b)) == t
                    # every bracket ends at most _REFINE_TOL wide, the widest
                    # one's step count included
                    d = [math.exp(k * x) * math.cos(x - w) - 1.0
                         for x in (t - 0.5 * _REFINE_TOL, t + 0.5 * _REFINE_TOL)]
                    assert d[0] < 0.0 <= d[1]


def _libm_on_or_past(kappa: float, theta: float, omega: float) -> bool:
    """The contact sign test on libm's cosine: False wherever cos <= 0 or NaN."""
    c = math.cos(theta - omega)
    return c > 0.0 and kappa * theta + math.log(c) >= 0.0


class TestLogCos:
    HALF = 0.5 * math.pi

    def test_sign_test_refuses_both_sides_of_the_window(self):
        # at t = +-pi/2 (the doubles), the next doubles outward, past both
        # poles, where tan is finite again, and at NaN, the sign test is the
        # one on libm's cosine, for arrays and for floats; theta = t at
        # omega = 0, and omega + t at seeded omegas.  At kappa = 1e12 the
        # certificate's upper probe atan(kappa) + _REFINE_TOL/2 lies past pi/2
        # while kappa*theta is far above ln cos there
        h = self.HALF
        ts = [h, -h, math.nextafter(h, math.inf), math.nextafter(-h, -math.inf),
              2.0, -2.0, 3.0, -3.0, math.nan]
        u = uniform_block(37, 0, 16).tolist()
        cases = []
        for kappa, w in zip([10.0 ** (-1.3 + 3.8 * v) for v in u[:8]], [8.0 * v for v in u[8:]]):
            rows = [(t, 0.0) for t in ts] + [(w + t, w) for t in ts] + [(1.0, math.nan)]
            cases.append((kappa, rows))
        top = math.atan(1e12)
        cases.append((1e12, [(0.3 + top + s * 0.5 * _REFINE_TOL, 0.3) for s in (-1.0, 1.0)]))
        unguarded = []  # the sides of the rows that a tan form without its guard would pass
        for kappa, rows in cases:
            thetas, omegas = map(np.array, zip(*rows))
            want = [_libm_on_or_past(kappa, th, w) for th, w in rows]
            assert _on_or_past(kappa, thetas, omegas).tolist() == want, kappa
            assert [bool(_on_or_past(kappa, th, w)) for th, w in rows] == want, kappa
            unguarded += [math.copysign(1.0, th - w) for th, w in rows
                          if kappa * th - 0.5 * math.log1p(math.tan(th - w) ** 2) >= 0.0
                          and not math.cos(th - w) > 0.0]
        assert unguarded.count(1.0) >= 3 and unguarded.count(-1.0) >= 3

    def test_matches_libm_to_a_few_ulps(self):
        # ln cos t against libm's ln(cos t) on a seeded grid over [-pi/2,
        # pi/2] with t = 0 and both ends: within 4 eps*max(|ln cos t|, 1)
        # (1.0 measured); near t = 0 both are absolute, not relative
        h = self.HALF
        t = np.concatenate(([0.0, h, -h], -h + math.pi * uniform_block(41, 0, 20_000)))
        got = _log_cos(t)
        want = np.array([math.log(math.cos(x)) for x in t.tolist()])
        scale = np.maximum(np.abs(want), 1.0) * np.finfo(float).eps
        assert (np.abs(got - want) <= 4.0 * scale).all()

    def test_relative_error_against_mpmath(self):
        # ln cos t to within 4 ulps of a 40-digit value (2.25 measured), at
        # seeded t over [-pi/2, pi/2], both ends and |t| down to 1e-12, where
        # ln(cos t) keeps no relative digits (cos t rounds to 1 below |t| of
        # about 1e-8)
        mpmath = pytest.importorskip("mpmath")
        h = self.HALF
        small = 10.0 ** (-12.0 + 12.0 * uniform_block(44, 0, 200))
        t = np.concatenate(([h, -h], -h + math.pi * uniform_block(43, 0, 2000), small, -small))
        with mpmath.workdps(40):
            for x, got in zip(t.tolist(), _log_cos(t).tolist()):
                exact = mpmath.log(mpmath.cos(mpmath.mpf(x)))
                assert abs(got - exact) <= 4.0 * math.ulp(float(exact)), x


class TestMonteCarloMeanArclength:
    def test_matches_closed_form_midrange(self):
        k = 0.5
        stats = monte_carlo_mean_arclength(k, SimConfig(seed=11, samples=100_000))
        want = minmean_objective(k)
        assert abs(stats.mean - want) <= 3.0 * stats.std_error
        assert stats.std_error < 0.05

    def test_every_sample_below_worst_case(self):
        k = 0.8
        stats = monte_carlo_mean_arclength(k, SimConfig(seed=3, samples=20_000))
        assert stats.max <= minmax_objective(k) + 1e-6
        assert stats.min >= 1.0  # cannot reach the unit circle in less than 1

    def test_deterministic(self):
        cfg = SimConfig(seed=5, samples=5_000)
        assert monte_carlo_mean_arclength(0.4, cfg) == \
            monte_carlo_mean_arclength(0.4, cfg)

    def test_blocks_match_one_whole_array_march(self):
        k, seed = golden.MINMAX_KAPPA, 1
        n = 2 * _BLOCK + 17
        _, om0 = tangent_contact(Spiral(k, 1.0))
        omegas = om0 + math.tau * uniform_block(seed, 0, n)
        stats = monte_carlo_mean_arclength(k, SimConfig(seed=seed, samples=n))
        factor = math.sqrt(1.0 + k * k) / k
        hits = _first_contacts(_inverse_table(k), omegas)
        assert_merged(stats, simulate._summarize([factor * np.exp(k * hits)]))

    def test_shard_derivation_consistency(self):
        # blocks drawn at offsets concatenate to the serial sequence
        shard = 65536
        whole = uniform_block(9, 0, 2 * shard + 17)
        s0 = uniform_block(9, 0, shard)
        s1 = uniform_block(9, shard, shard)
        s2 = uniform_block(9, 2 * shard, 17)
        assert (np.concatenate([s0, s1, s2]) == whole).all()


class TestCoilMarching:
    def test_unit_targets(self):
        assert coil_marching_distance(2.0, 1.0, CFG) == pytest.approx(3.0, abs=1e-12)
        assert coil_marching_distance(2.0, -1.0, CFG) == pytest.approx(5.0, abs=1e-12)

    def test_against_closed_form(self):
        u = iter(uniform_block(111, 0, 3000).tolist())
        for _ in range(1000):
            g = 1.1 + 6.9 * next(u)
            mag = g ** (-6.0 + 12.0 * next(u))
            x = mag if next(u) < 0.5 else -mag
            closed = travel_distance(Coil(g), x).delta
            assert coil_marching_distance(g, x, CFG) == pytest.approx(closed, rel=1e-9)

    def test_never_less_than_distance(self):
        u = iter(uniform_block(13, 0, 600).tolist())
        for _ in range(200):
            g = 1.1 + 4.9 * next(u)
            x = (g ** (-4.0 + 8.0 * next(u))) * (1 if next(u) < 0.5 else -1)
            assert coil_marching_distance(g, x, CFG) >= abs(x)

    def test_array_never_less_than_distance(self):
        # seeded rows over 560 decades of |X|: every row's segment starts at
        # a normal turning point, and delta >= |X| as `CoilHit` requires
        u = uniform_block(47, 0, 4020)
        for g, row in zip(10.0 ** (3.0 * u[:20]) + 0.01, u[20:].reshape(20, 200)):
            targets = np.where(row[:100] < 0.5, -1.0, 1.0) * 10.0 ** (-280.0 + 560.0 * row[100:])
            assert (coil_marching_distance(g, targets, CFG) >= np.abs(targets)).all(), g

    @pytest.mark.parametrize("g, x", [(1e300, -5e-301), (7.0, 5e-324), (1.5, -5e-324),
                                      (2.0, 1e-310)])
    def test_subnormal_turning_point_is_classified(self, g, x):
        # the segment reaching x starts at a turning point below the normal
        # range (0.0 at gamma = 1e300), so delta = (gamma + 1)*|start|*(...)
        # would fall below |x|; the float and the array form both raise
        for target in (x, np.array([1.0, x, -3.0])):
            with pytest.raises(NumericalError, match="^underflow:"):
                coil_marching_distance(g, target, CFG)

    def test_target_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            coil_marching_distance(2.0, 0.0, CFG)
        with pytest.raises(ValueError, match="origin"):
            coil_marching_distance(2.0, np.array([1.5, 0.0, -3.0]), CFG)

    def test_overflow_is_classified(self):
        # the turning point 2^1024 past 1.7e308 overflows; so does the
        # width of [-X, X] that `simulate coil` samples at X = 1e308
        with pytest.raises(NumericalError, match="^overflow:"):
            coil_marching_distance(2.0, np.array([1.0, 1.7e308]), CFG)
        with pytest.raises(NumericalError, match="non-finite target"):
            coil_marching_distance(2.0, np.array([1.0, math.inf]), CFG)

    def test_inexact_turning_point_index(self):
        # |r| = ln(1e300)/ln(1 + 1e-14) is near 6.9e16 > 2^53: k is no longer
        # an exact double and (-gamma)**k would come out positive for every k
        for x in (1e-300, -1e-300, 1e300, np.array([1.0, 1e-300])):
            with pytest.raises(NumericalError, match="index beyond exact doubles"):
                coil_marching_distance(1.0 + 1e-14, x, CFG)

    @pytest.mark.parametrize("g", [1.0 + 1e-9, 1.05, 2.0, 3.591121476668622, 40.0])
    def test_matches_reference_loop(self, g):
        # the walk's arithmetic is the loop's, so the rows equal it exactly;
        # targets spread over 40 decades of |X| on each side of 1
        u = uniform_block(61, 0, 600)
        targets = np.where(u[:300] < 0.5, -1.0, 1.0) * 10.0 ** (-20.0 + 40.0 * u[300:])
        walked = coil_marching_distance(g, targets, CFG)
        for x, delta in zip(targets.tolist(), walked.tolist()):
            start = math.floor(math.log(abs(x)) / math.log(g)) - 40
            assert delta == _reference_walk(g, x, start), (g, x)

    @pytest.mark.parametrize("g", [1.1, 1.5, 2.0, 3.591121476668622, 4.464])
    def test_exact_turning_points(self, g):
        # +-gamma^k as Python ** rounds them, and the doubles on either side;
        # at gamma = 4.464, X = gamma**2 numpy's pow and libm's disagree
        targets = []
        for k in range(-40, 41):
            turn = g ** k
            for mag in (turn, math.nextafter(turn, 0.0), math.nextafter(turn, math.inf)):
                targets += [mag, -mag]
        walked = coil_marching_distance(g, np.array(targets), CFG)
        for x, delta in zip(targets, walked.tolist()):
            assert coil_marching_distance(g, x, CFG) == delta, (g, x)
            assert delta == pytest.approx(travel_distance(Coil(g), x).delta,
                                          rel=1e-14, abs=0.0), (g, x)

    def test_start_margin_near_one(self):
        # at gamma = 1 + 1e-12, |r| = |ln X / ln gamma| is near 7e14, where
        # its rounding approaches one segment; at gamma = 1 + 1e-13 and
        # |X| = 1e+-290 it is near 6.7e15 ~ 2^52.6, where the first hit lies
        # 14-16 segments past k0, beyond a five-segment window; a walk from
        # 40 segments earlier finds the same first hit
        for g, targets in ((1.0 + 1e-12, [1e-300, -1e-300, 1e290, -1e290]),
                           (1.0 + 1e-13, [1e-290, -1e-290, 1e290, -1e290])):
            walked = coil_marching_distance(g, np.array(targets), CFG)
            for x, delta in zip(targets, walked.tolist()):
                start = math.floor(math.log(abs(x)) / math.log(g)) - 40
                assert delta == _reference_walk(g, x, start), (g, x)
                assert delta == pytest.approx(travel_distance(Coil(g), x).delta, rel=1e-14)
        # the distance itself is beyond the float range at |X| = 1e300
        g = 1.0 + 1e-12
        assert coil_marching_distance(g, np.array([1e300, -1e300]), CFG).tolist() == [math.inf] * 2

    def test_row_without_a_hit_raises(self, monkeypatch):
        # the window's width is proven wide enough; a row that still finds no
        # enclosing segment in it raises instead of reading an arbitrary one
        monkeypatch.setattr(simulate, "_turning_points", lambda gamma, ks: np.zeros(ks.size))
        with pytest.raises(NumericalError, match="^no segment reached the target"):
            coil_marching_distance(2.0, np.array([1.0, -3.0]), CFG)


def _reference_walk(gamma: float, x: float, k: int) -> float:
    """The travel distance to ``x`` walked one segment at a time from
    segment ``k``, which must lie below the first hit."""
    while True:
        start, end = (-gamma) ** k, (-gamma) ** (k + 1)
        if min(start, end) <= x <= max(start, end):
            tau = (x - start) / (end - start)
            return (gamma + 1.0) * gamma ** k * (1.0 / (gamma - 1.0) + tau)
        k += 1


# `simulate coil` at three points, as the per-sample loop that the array walk
# replaced printed them: (gamma, X, seed) -> (mean, std_error, min, max), n = 1000
SIMULATE_COIL_PINNED = {
    (2.0, 3.0, 7): (5.408694011374689, 0.05474523271347036,
                    3.0002318509589903, 8.999840494621884),
    (3.0, 2.5e-7, 3): (4.792473311893628, 0.0735545427736289,
                       2.00087504758325, 9.996917273612079),
    (1.05, 5.0, 11): (42.989000959541045, 0.03695439389674062,
                      41.00180486873237, 45.0946391685866),
}


@pytest.mark.parametrize("point", SIMULATE_COIL_PINNED)
def test_simulate_coil_is_bit_identical(point, capsys):
    gamma, x, seed = point
    argv = ["simulate", "coil", "--gamma", repr(gamma), "--X", repr(x), "-n", "1000",
            "--seed", str(seed), "--format", "json"]
    assert main(argv) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["mean"], res["std_error"], res["min"], res["max"]) == SIMULATE_COIL_PINNED[point]


class TestCoilWalkSample:
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_blocks_match_one_whole_array(self, n):
        # the blocked sampler gives the summary of one walk over all the draws
        for gamma, x0, seed in ((2.0, 1.7, 5), (1.05, 1e-200, 8)):
            draws = uniform_block(seed, 0, n) * (x0 + x0) - x0
            draws[draws == 0.0] = x0
            whole = simulate._summarize([coil_marching_distance(gamma, draws, CFG) / np.abs(draws)])
            assert_merged(coil_walk_sample(gamma, x0, SimConfig(seed=seed, samples=n)), whole)


class TestMixedStrategySample:
    def test_matches_formula_gamma_two(self):
        stats = mixed_strategy_sample(2.0, 1.0, SimConfig(seed=7, samples=200_000))
        want = mixed_expected_ratio(2.0).expected_ratio
        assert abs(stats.mean - want) <= 3.0 * stats.std_error

    def test_target_invariance(self):
        cfg = SimConfig(seed=19, samples=200_000)
        a = mixed_strategy_sample(3.0, 1.0, cfg)
        b = mixed_strategy_sample(3.0, 10.0, cfg)
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 3.0 * se

    def test_optimal_gamma_mean(self):
        g = 3.591121476669
        stats = mixed_strategy_sample(g, 1.0, SimConfig(seed=7, samples=200_000))
        assert abs(stats.mean - (1.0 + g)) <= 3.0 * stats.std_error

    def test_requires_positive_target(self):
        with pytest.raises(ValueError):
            mixed_strategy_sample(2.0, -1.0, SimConfig(seed=1, samples=10))

    def test_deterministic(self):
        cfg = SimConfig(seed=23, samples=10_000)
        assert mixed_strategy_sample(2.5, 1.0, cfg) == mixed_strategy_sample(2.5, 1.0, cfg)

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_blocks_match_one_whole_array(self, n):
        # the blocked sampler gives the summary of one whole-array sample
        for gamma, x, seed in ((2.0, 1.0, 5), (3.591121476669, 1e-150, 8)):
            whole = simulate._summarize([bracket_ratio(gamma, rescaled(gamma, x, seed, n), 0)])
            assert_merged(mixed_strategy_sample(gamma, x, SimConfig(seed=seed, samples=n)), whole)

    @pytest.mark.parametrize("gamma, x, seed", [(2.0, 1.0, 5), (3.591121476669, 17.0, 8),
                                                (1.05, 1e-200, 11), (1.001, 1e-100, 2)])
    def test_every_sample_is_the_scalar_rule(self, gamma, x, seed, monkeypatch):
        # each sample is the bracket rule at the rescaled target m = x*gamma^(-H),
        # 1 + 2*gamma^(2i+2)/((gamma-1)*m) with i from bracket_index, bit for bit
        n, blocks = _BLOCK + 100, []
        monkeypatch.setattr(simulate, "_summarize", lambda bs: blocks.extend(b.copy() for b in bs))
        mixed_strategy_sample(gamma, x, SimConfig(seed=seed, samples=n))
        got = np.concatenate(blocks).tolist()
        for m, r in zip(rescaled(gamma, x, seed, n).tolist(), got):
            i = bracket_index(Coil(gamma), m)
            assert r == 1.0 + 2.0 * gamma ** (2 * i + 2) / ((gamma - 1.0) * m), (gamma, x, m)

    @pytest.mark.parametrize("x", [1e-200, 1e200])
    def test_samples_within_1e15_of_mpmath(self, x, monkeypatch):
        # at 50 digits, delta_H(x)/x = 1 + 2*gamma^(2i+2+H)/((gamma-1)*x) with
        # gamma^(2i+H) < x <= gamma^(2i+2+H), for the sampler's own phases H
        mpmath = pytest.importorskip("mpmath")
        gamma, n, blocks = 1.05, 2000, []
        monkeypatch.setattr(simulate, "_summarize", lambda bs: blocks.extend(b.copy() for b in bs))
        mixed_strategy_sample(gamma, x, SimConfig(seed=17, samples=n))
        with mpmath.workdps(50):
            g, mx = mpmath.mpf(gamma), mpmath.mpf(x)
            for u, r in zip(uniform_block(17, 0, n).tolist(), np.concatenate(blocks).tolist()):
                h = 2 * mpmath.mpf(u)
                i = mpmath.ceil(mpmath.log(mx) / (2 * mpmath.log(g)) - 1 - h / 2)
                want = 1 + 2 * g ** (2 * i + 2 + h) / ((g - 1) * mx)
                assert abs(r - want) <= 1e-15 * want, (u, r)


def rescaled(gamma, x, seed, n):
    """The mixed sampler's targets x*gamma^(-H), H = 2u, for the first n stream values."""
    return x * np.power(gamma, -2.0 * uniform_block(seed, 0, n))


# `mixed_strategy_sample` at three points, as the block merge returns them:
# (gamma, X, seed, n) -> SampleStats.  Where the merge moved the mean or the
# standard error, WHOLE_ARRAY_PINNED keeps them as the whole-array summary
# returned them.
MIXED_PINNED = {
    (2.0, 1.0, 7, 40000): SampleStats(
        mean=5.318027548698101, std_error=0.008500709256265481, n=40000,
        min=3.0000129877301775, max=8.998547326340626),
    (3.591121476669, 17.0, 3, 3 * _BLOCK + 5): SampleStats(
        mean=4.589044624476075, std_error=0.011405420876276535, n=49157,
        min=1.7719214296838781, max=10.953696467422244),
    (1.05, 1e-200, 11, 100000): SampleStats(
        mean=43.01710993052372, std_error=0.003734506397688672, n=100000,
        min=41.00003488800305, max=45.09998342164241),
}

# The same points as the sampler gave them while it bracketed x itself on
# numpy powers gamma^(2i+2+H), rounding the exponent first.  That rule was off
# by up to 4.3e-14 relative against mpmath; the rescaled bracket is within
# 1e-15, so the two agree to POW_RULE_REL.
POW_RULE_REL = 5e-14
POW_RULE_PINNED = {
    (2.0, 1.0, 7, 40000): SampleStats(
        mean=5.318027548698101, std_error=0.008500709256265481, n=40000,
        min=3.0000129877301775, max=8.998547326340628),
    (3.591121476669, 17.0, 3, 3 * _BLOCK + 5): SampleStats(
        mean=4.589044624476075, std_error=0.011405420876276535, n=49157,
        min=1.7719214296838781, max=10.95369646742225),
    (1.05, 1e-200, 11, 100000): SampleStats(
        mean=43.01710993052372, std_error=0.0037345063976886553, n=100000,
        min=41.00003488800253, max=45.09998342164092),
}


@pytest.mark.parametrize("point", MIXED_PINNED)
def test_mixed_strategy_sample_is_bit_identical(point):
    gamma, x, seed, n = point
    got = mixed_strategy_sample(gamma, x, SimConfig(seed=seed, samples=n))
    assert got == MIXED_PINNED[point]
    if point in WHOLE_ARRAY_PINNED:
        assert_near(got, *WHOLE_ARRAY_PINNED[point])
    old = POW_RULE_PINNED[point]
    assert got.n == old.n
    for field in ("mean", "std_error", "min", "max"):
        assert getattr(got, field) == pytest.approx(getattr(old, field), rel=POW_RULE_REL, abs=0.0)


# `monte_carlo_mean_arclength` at three points, as the block merge returns
# them: (kappa, seed, n) -> SampleStats
SPIRAL_PINNED = {
    (0.3732051316134667, 7, 40000): SampleStats(
        mean=7.007838849764881, std_error=0.019197400664936054, n=40000,
        min=2.860013121019557, max=16.542725072330384),
    (0.2124695594156479, 3, 3 * _BLOCK + 5): SampleStats(
        mean=8.11547511448395, std_error=0.011804117598345019, n=49157,
        min=4.811618720960615, max=13.81096742905272),
    (5.0, 11, 100000): SampleStats(
        mean=2955780.1145663396, std_error=35837.12436761621, n=100000,
        min=1.0198039044536178, max=92523340.88523927),
}


@pytest.mark.parametrize("point", SPIRAL_PINNED)
def test_monte_carlo_mean_arclength_is_bit_identical(point):
    kappa, seed, n = point
    got = monte_carlo_mean_arclength(kappa, SimConfig(seed=seed, samples=n))
    assert got == SPIRAL_PINNED[point]
    if point in WHOLE_ARRAY_PINNED:
        assert_near(got, *WHOLE_ARRAY_PINNED[point])


# The (mean, std_error) that the whole-array summary gave at the pinned points
# where the block merge moved either, by at most 1 ulp each.
WHOLE_ARRAY_PINNED = {
    (2.0, 1.0, 7, 40000): (5.318027548698102, 0.008500709256265481),
    (1.05, 1e-200, 11, 100000): (43.01710993052373, 0.0037345063976886718),
    (0.3732051316134667, 7, 40000): (7.007838849764882, 0.019197400664936054),
}


def assert_near(stats, mean, se):
    assert stats.mean == pytest.approx(mean, rel=MERGE_REL, abs=0.0)
    assert stats.std_error == pytest.approx(se, rel=MERGE_REL, abs=0.0)


def assert_merged(stats, whole):
    # up to one block the merge is the whole-array summary bit for bit; past
    # it n, min and max stay exact and the mean and SE lie within MERGE_REL
    if whole.n <= _BLOCK:
        assert stats == whole
    assert (stats.n, stats.min, stats.max) == (whole.n, whole.min, whole.max)
    assert_near(stats, whole.mean, whole.std_error)


def turning_point_blocks():
    """(gamma, c, magnitudes) for 200 seeded gamma in [1.01, 9.01) and both
    offsets c: a seeded magnitude gamma^v, v in [-6, 6), then each libm
    turning point gamma^(2k+c), k in [-40, 40), between the doubles beside it."""
    u = uniform_block(53, 0, 2400).tolist()
    blocks = []
    for g, v in zip(u[:200], u[200:]):
        g = 1.01 + 8.0 * g
        for c in (0, -1):
            mags = [g ** (-6.0 + 12.0 * v)]
            for k in range(-40, 40):
                turn = g ** (2 * k + c)
                mags += [math.nextafter(turn, 0.0), turn, math.nextafter(turn, math.inf)]
            blocks.append((g, c, np.array(mags)))
    return blocks


class TestScanWorstRatio:
    def test_probes_reach_supremum(self):
        got = scan_worst_ratio(2.0, 100_000)
        assert got >= 9.0 - 1e-6
        assert got <= 9.0

    def test_never_exceeds_closed_form(self):
        for g in (1.3, 2.0, 3.7, 6.0):
            assert scan_worst_ratio(g, 10_000) <= worst_case_ratio(Coil(g))

    def test_negative_probes_hit_too(self):
        # drop positive probes: a grid plus negative-side probes still gets there
        g = 2.0
        ks = np.array([-1.0, 0.0, 1.0])
        magnitudes = g ** (2.0 * ks - 1.0) * (1.0 + 1e-9)
        assert float(bracket_ratio(g, magnitudes, -1).max()) >= 9.0 - 1e-6

    def test_kernel_matches_scalar_rule(self):
        # the kernel gives 1 + 2*gamma^(2i+2+c)/((gamma-1)*|X|) bit for bit,
        # with i from the scalar rule: at seeded magnitudes and libm's turning
        # points (turning_point_blocks), in one block spanning the float range
        # in a few rows, and in scan-sized blocks over one and over three
        # periods, whose tables of up to 16 entries are scanned entry by entry
        blocks = turning_point_blocks() + [(1.01, 0, 10.0 ** np.linspace(-300.0, 300.0, 13))]
        for g, periods in ((1.3, 1), (5.7, 1), (2.0, 3), (9.0, 3)):
            for c in (0, -1):
                mags = g ** (c + 2.0 * periods * (uniform_block(59, 0, _BLOCK) - 0.5))
                turns = [g ** (2 * k + c) for k in range(-(periods // 2), periods // 2 + 1)]
                mags[:3 * len(turns)] = [t for turn in turns for t in (
                    math.nextafter(turn, 0.0), turn, math.nextafter(turn, math.inf))]
                blocks.append((g, c, mags))
        for g, c, mags in blocks:
            got = bracket_ratio(g, mags, c)
            for m, r in zip(mags.tolist(), got.tolist()):
                i = bracket_index(Coil(g), m if c == 0 else -m)
                assert r == 1.0 + 2.0 * g ** (2 * i + 2 + c) / ((g - 1.0) * m), (g, c, m)
        assert float(bracket_ratio(2.0, 3.0, 0)) == 1.0 + 2.0 * 4.0 / 3.0

    def test_walk_and_closed_forms_agree_at_turning_points(self):
        # the three coil kernels at libm's turning points and the doubles
        # beside each: the walk and travel_distance agree to 1e-12, and
        # bracket_ratio is the scalar rule at travel_distance's index
        for g, c, mags in turning_point_blocks():
            targets = mags if c == 0 else -mags
            walked = coil_marching_distance(g, targets, CFG).tolist()
            ratios = bracket_ratio(g, mags, c).tolist()
            for x, m, w, r in zip(targets.tolist(), mags.tolist(), walked, ratios):
                hit = travel_distance(Coil(g), x)
                assert w == pytest.approx(hit.delta, rel=1e-12, abs=0.0), (g, x)
                assert r == 1.0 + 2.0 * g ** (2 * hit.index + 2 + c) / ((g - 1.0) * m), (g, x)

    def test_ratio_whose_denominator_overflows_answers(self):
        # (gamma - 1)*|X| overflows where the ratio does not: the kernel
        # answers travel_distance's ratio, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, x in ((1e200, -1e150), (1e10, 9e299)):
                got = float(bracket_ratio(g, abs(x), 0 if x > 0.0 else -1))
                want = travel_distance(Coil(g), x).delta / abs(x)
                assert got == pytest.approx(want, rel=1e-15), (g, x)

    def test_ratio_whose_numerator_overflows_answers(self):
        # 2*gamma^2 overflows from gamma ~ 9.5e153 where the ratio, about
        # 2*gamma, does not: the kernel doubles after dividing, so it,
        # travel_distance and the scan answer up to gamma ~ 1.34e154, where
        # gamma^2 itself overflows
        g, x = 1.3e154, 1.0 + 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = travel_distance(Coil(g), x).delta / x
            assert float(bracket_ratio(g, x, 0)) == pytest.approx(want, rel=1e-15)
            assert scan_worst_ratio(g, 1000) == want
        assert want == pytest.approx(worst_case_ratio(Coil(g)), rel=1e-8)

    def test_kernel_refuses_magnitudes_outside_its_domain(self):
        with pytest.raises(NumericalError, match="underflow"):
            bracket_ratio(2.0, np.array([1.0, 5e-324]), 0)
        with pytest.raises(NumericalError, match="underflow"):
            bracket_ratio(2.0, 0.0, -1)
        with pytest.raises(NumericalError, match="beyond exact doubles"):
            bracket_ratio(1.000000000000001, 1e-300, 0)

    @pytest.mark.parametrize("gamma, worst", [(1e60, 1.999999998e+60),
                                              (1e76, 1.999999998e+76),
                                              (9.6e76, 1.9199999980799998e+77),
                                              (1e80, 1.9999999979999998e+80),
                                              (1e150, 1.9999999979999996e+150),
                                              (9e153, 1.7999999982e+154)])
    def test_huge_gamma_is_still_scanned(self, gamma, worst):
        # one period, [1/gamma, gamma], and its table from gamma^-4 to gamma^4:
        # the kernel's domain checks refuse none of it, and the scan lies in
        # criterion 6's band below the supremum
        assert scan_worst_ratio(gamma, 1000) == worst
        sup = worst_case_ratio(Coil(gamma))
        assert sup * (1.0 - 1e-6) <= worst <= sup

    def test_point_budget(self):
        with pytest.raises(ValueError):
            scan_worst_ratio(2.0, 50)

    @pytest.mark.parametrize("count", [50, _BLOCK, _BLOCK + 1, 50_000, 499_999, 500_000])
    def test_exponent_blocks_are_linspace(self, count):
        # the scan's grid, built a block at a time, is numpy's bit for bit
        blocks = list(simulate._exponent_blocks(count))
        assert max(b.size for b in blocks) <= _BLOCK
        assert np.array_equal(np.concatenate(blocks), np.linspace(-1.0, 1.0, count))

    @pytest.mark.parametrize("points", [2 * _BLOCK - 2, 2 * _BLOCK, 2 * _BLOCK + 2,
                                        4 * _BLOCK + 1])
    def test_blocks_match_one_whole_grid(self, points):
        # grids of _BLOCK - 1, _BLOCK, _BLOCK + 1 and 2 * _BLOCK points over
        # one period, each side scanned in one piece with its probe; the
        # negative side drops the grid's left end 1/gamma
        for gamma in (1.3, 2.0, 5.7):
            grid = gamma ** np.linspace(-1.0, 1.0, points // 2)
            pos = np.concatenate([grid, [1.0 + 1e-9]])
            neg = np.concatenate([grid[1:], [(1.0 + 1e-9) / gamma]])
            whole = max(float(bracket_ratio(gamma, pos, 0).max()),
                        float(bracket_ratio(gamma, neg, -1).max()))
            assert scan_worst_ratio(gamma, points) == whole


@pytest.mark.parametrize("n", [1, 2, _BLOCK, 3 * _BLOCK + 5])
def test_summarize_in_place_is_numpys_summary(n):
    # one block gives every field bit for bit as numpy takes it on a copy,
    # at the summary's size edges and past a sampling block
    values = 10.0 ** (3.0 * uniform_block(41, 0, n)) - 7.0
    copy = values.copy()
    se = float(copy.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    assert simulate._summarize([values]) == SampleStats(
        mean=float(copy.mean()), std_error=se, n=n, min=float(copy.min()), max=float(copy.max()))


@pytest.mark.parametrize("n", [_BLOCK + 1, 3 * _BLOCK + 5, 10 ** 6])
@pytest.mark.parametrize("size", [1000, _BLOCK])
def test_summarize_merges_blocks_within_tolerance(n, size):
    # sampling blocks, and blocks cut elsewhere, merge to the whole array's
    # summary: n, min and max exact, mean and SE within MERGE_REL
    values = 10.0 ** (3.0 * uniform_block(47, 0, n)) - 7.0
    whole = simulate._summarize([values.copy()])
    assert_merged(simulate._summarize(values[k:k + size] for k in range(0, n, size)), whole)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_summarize_non_finite_sample_is_numerical_failure(bad):
    # in the first, a middle or the last block; inf - inf in the deviation
    # pass and in the merge raises no numpy warning
    n = 3 * _BLOCK + 5
    for at in (0, _BLOCK + 1, n - 1):
        values = uniform_block(43, 0, n)
        values[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite sample statistics"):
                simulate._summarize(values[k:k + _BLOCK] for k in range(0, n, _BLOCK))


@pytest.mark.parametrize("sampler", [
    lambda cfg: monte_carlo_mean_arclength(golden.MINMEAN_KAPPA, cfg),
    lambda cfg: mixed_strategy_sample(golden.MIXED_GAMMA_REF, 1.0, cfg),
    lambda cfg: coil_walk_sample(2.0, 1.7, cfg),
], ids=["monte_carlo_mean_arclength", "mixed_strategy_sample", "coil_walk_sample"])
def test_sampler_holds_one_sample_array(sampler):
    # numpy reports its buffers to tracemalloc: a call holds one block of
    # samples and block-sized buffers at any n, never an n-sized array
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for n in (10 ** 6, 4 * 10 ** 6):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sampler(SimConfig(seed=1, samples=n))
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= 32 * 8 * _BLOCK, n
    finally:
        if not tracing:
            tracemalloc.stop()


class TestSampleStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleStats(mean=0.0, std_error=-1.0, n=3, min=-1.0, max=1.0)
        with pytest.raises(ValueError):
            SampleStats(mean=5.0, std_error=0.1, n=3, min=-1.0, max=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, samples=0)
        with pytest.raises(ValueError, match="samples must be"):
            SimConfig(seed=1, samples=2 ** 53 + 1)
        assert SimConfig(samples=2 ** 53).samples == 2 ** 53
        with pytest.raises(ValueError):
            SimConfig(seed=1, samples=10, march_step=-0.1)
        # samples and seed are integers: no float, even an integral one, and no bool
        for fields in ({"samples": 1.5}, {"samples": 2.0}, {"samples": True},
                       {"seed": 1.5}, {"seed": 2.0}, {"seed": False}):
            with pytest.raises(TypeError):
                SimConfig(**fields)
        assert SimConfig(seed=np.int64(3), samples=np.int32(4)).samples == 4


# Each function that takes a raw kappa, gamma, R, X or march step, with the
# boundary value of its parameter (gamma = 1, every other one 0).
RAW_PARAMETER_CALLS = {
    "arclength": (lambda k: arclength(k, 1.0), 0.0),
    "spiral_first_contact": (lambda k: spiral_first_contact(k, 0.5, MC_CFG), 0.0),
    "monte_carlo_mean_arclength":
        (lambda k: monte_carlo_mean_arclength(k, SimConfig(samples=10)), 0.0),
    "coil_marching_distance": (lambda g: coil_marching_distance(g, 3.0, CFG), 1.0),
    "mixed_strategy_sample": (lambda g: mixed_strategy_sample(g, 1.0, SimConfig(samples=10)), 1.0),
    "scan_worst_ratio": (lambda g: scan_worst_ratio(g, 1000), 1.0),
    "mixed_expected_ratio": (mixed_expected_ratio, 1.0),
    "MixedStrategy": (lambda g: MixedStrategy(gamma=g), 1.0),
    "coil_walk_sample": (lambda g: coil_walk_sample(g, 3.0, SimConfig(samples=10)), 1.0),
    "Spiral.R": (lambda r: Spiral(0.5, r), 0.0),
    "travel_distance": (lambda x: travel_distance(Coil(2.0), x), 0.0),
    "bracket_index": (lambda x: bracket_index(Coil(2.0), x), 0.0),
    "average_ratio": (lambda x: average_ratio(Coil(2.0), x), 0.0),
    "mixed_strategy_sample.x":
        (lambda x: mixed_strategy_sample(2.0, x, SimConfig(samples=10)), 0.0),
    "coil_walk_sample.x0": (lambda x: coil_walk_sample(2.0, x, SimConfig(samples=10)), 0.0),
    "SimConfig.march_step": (lambda h: SimConfig(march_step=h), 0.0),
}


@pytest.mark.parametrize("name", RAW_PARAMETER_CALLS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "edge"])
def test_parameter_outside_domain_is_value_error(name, value):
    # each reads the one rule for its parameter
    call, edge = RAW_PARAMETER_CALLS[name]
    with pytest.raises(ValueError, match="must be finite"):
        call(edge if value == "edge" else float(value))


# Calls whose result would be inf or NaN, each a NumericalError instead.
NON_FINITE_CALLS = {
    "average_ratio-inf": lambda: average_ratio(Coil(1.000000001), 4e299),
    "average_ratio-nan": lambda: average_ratio(Coil(1.0000000000004245), 1.2462580855985263e307),
}


@pytest.mark.parametrize("name", NON_FINITE_CALLS)
def test_non_finite_result_is_numerical_failure(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="float range|not finite"):
            NON_FINITE_CALLS[name]()
