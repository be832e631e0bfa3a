import math
import warnings

import numpy as np
import pytest

from shoreline import coil, golden
from shoreline.coil import (Coil, CoilHit, MixedStrategy, average_ratio, bracket_index,
                            bracket_ratio, mixed_expected_ratio, optimal_minmax_coil,
                            optimal_minmean_coil, optimal_mixed, ratio_extrema,
                            travel_distance, worst_case_ratio)
from shoreline.numerics import NumericalError, find_root, integrate, lambert_w0, uniform_block
from shoreline.simulate import SimConfig, coil_marching_distance, scan_worst_ratio

WALK_CFG = SimConfig(seed=0, samples=1)


class TestPosition:
    """The trajectory's positions, as the walk reads them: segment k sweeps
    from (-gamma)^k to (-gamma)^(k+1), and x = 1 is the k = 0 turning point."""

    def test_start(self):
        assert coil_marching_distance(2.0, 1.0, WALK_CFG) == 3.0

    def test_turning_points(self):
        # the walk reaches (-2)^k after the sweeps before it, 3 * 2^k, and a
        # target just beyond it two segments later
        for k in range(-2, 4):
            turn = (-2.0) ** k
            beyond = turn * (1.0 + 2.0 ** -40)
            at, past = coil_marching_distance(2.0, np.array([turn, beyond]), WALK_CFG).tolist()
            assert at == 3.0 * 2.0 ** k
            assert past == pytest.approx(4.0 * 2.0 ** (k + 1) + abs(beyond), rel=1e-15)

    def test_mid_segment(self):
        # t = 1.75 on segment 1 (from -2 to 4) is x = 2.5, first reached there
        assert coil_marching_distance(2.0, 2.5, WALK_CFG) == pytest.approx(10.5, rel=1e-15)

    def test_continuity_at_integers(self):
        # approached from inside, a turning point's distance is its own
        u = iter(uniform_block(2, 0, 80).tolist())
        for _ in range(40):
            g = 1.1 + 6.9 * next(u)
            k = int(-5.0 + 11.0 * next(u))
            turn = (-g) ** k
            inside, at = coil_marching_distance(g, np.array([turn * (1.0 - 1e-9), turn]),
                                                WALK_CFG).tolist()
            assert abs(inside - at) <= 1e-7 * max(1.0, at)


class TestPathLength:
    """The walk's distance is the path length of the coil up to its first pass
    through the target."""

    def test_geometric_series_at_zero(self):
        # all sweeps below t = 0 sum to (gamma+1)/(gamma-1)
        for g in (1.5, 2.0, 3.0):
            assert coil_marching_distance(g, 1.0, WALK_CFG) == pytest.approx(
                (g + 1.0) / (g - 1.0), rel=1e-15)

    def test_vanishes_far_back(self):
        assert coil_marching_distance(2.0, 2.0 ** -200, WALK_CFG) == pytest.approx(0.0, abs=1e-55)

    def test_single_segment_increment(self):
        # segment 1 sweeps from -2 to 4
        to_start, to_end = coil_marching_distance(2.0, np.array([-2.0, 4.0]), WALK_CFG).tolist()
        assert to_end - to_start == 6.0

    def test_strictly_increasing(self):
        # on each side the coil first passes targets in order of |X|
        mags = 1.7 ** np.linspace(-3.0, 4.0, 200)
        for side in (1.0, -1.0):
            vals = coil_marching_distance(1.7, side * mags, WALK_CFG)
            assert (np.diff(vals) > 0.0).all()


class TestBracketIndex:
    def test_boundary_power(self):
        assert bracket_index(Coil(2.0), 1.0) == -1  # 1/4 < 1 <= 1

    def test_interior_positive(self):
        assert bracket_index(Coil(2.0), 3.0) == 0  # 1 < 3 <= 4

    def test_negative_unit(self):
        assert bracket_index(Coil(2.0), -1.0) == 0  # 1/2 < 1 <= 2

    def test_zero_target(self):
        with pytest.raises(ValueError, match="origin"):
            bracket_index(Coil(2.0), 0.0)

    def test_inequalities_always_hold(self):
        u = iter(uniform_block(8, 0, 1500).tolist())
        for _ in range(500):
            g = 1.05 + 7.95 * next(u)
            exp = -6.0 + 12.0 * next(u)
            x = g ** exp if next(u) < 0.5 else -(g ** exp)
            i = bracket_index(Coil(g), x)
            if x > 0:
                assert g ** (2 * i) < x <= g ** (2 * i + 2)
            else:
                assert g ** (2 * i - 1) < -x <= g ** (2 * i + 1)

    def test_exact_powers(self):
        g = 2.0
        c = Coil(g)
        for k in range(-4, 5):
            i = bracket_index(c, g ** (2 * k))
            assert i == k - 1  # X = gamma^(2i+2) boundary belongs to bracket i
            j = bracket_index(c, -(g ** (2 * k + 1)))
            assert j == k  # -X = gamma^(2j+1) boundary belongs to bracket j


class TestTravelDistance:
    def test_unit_targets(self):
        c = Coil(2.0)
        assert travel_distance(c, 1.0).delta == 3.0
        assert travel_distance(c, -1.0).delta == 5.0

    def test_interior_target(self):
        assert travel_distance(Coil(2.0), 3.0).delta == 11.0

    def test_hit_fields(self):
        hit = travel_distance(Coil(2.0), 3.0)
        assert hit.target == 3.0
        assert hit.index == 0
        assert hit.delta >= abs(hit.target)

    def test_self_similarity(self):
        u = iter(uniform_block(21, 0, 600).tolist())
        for _ in range(200):
            g = 1.1 + 6.9 * next(u)
            mag = g ** (-6.0 + 10.0 * next(u))
            x = mag if next(u) < 0.5 else -mag
            c = Coil(g)
            d1 = travel_distance(c, x).delta
            d2 = travel_distance(c, g * g * x).delta
            assert d2 == pytest.approx(g * g * d1, rel=1e-9)


def test_closed_form_and_walk_refuse_alike():
    # gamma = 1 + 10^U(-14, 1) and |X| = 10^U(-323.5, 307.5) with a random
    # sign: the closed form answers a finite delta exactly where the walk
    # does, and both refuse bracket indices past 2^53 and paths that leave
    # from a subnormal turning point
    def answers(solve) -> bool:
        try:
            return math.isfinite(solve())
        except NumericalError:
            return False

    u = uniform_block(2021, 0, 60_000).tolist()
    for j in range(0, len(u), 3):
        g = 1.0 + 10.0 ** (-14.0 + 15.0 * u[j])
        x = math.copysign(10.0 ** (-323.5 + 631.0 * u[j + 1]), u[j + 2] - 0.5)
        assert (answers(lambda: travel_distance(Coil(g), x).delta)
                == answers(lambda: coil_marching_distance(g, x, WALK_CFG))), (g, x)


@pytest.mark.parametrize("g", [1.5, 2.0, 3.7, 7.0, 40.0, 1e10])
def test_kernel_refuses_where_the_scalar_rule_does(g):
    # 400 magnitudes in [tiny, gamma*tiny), both signs: bracket_ratio refuses
    # a path that leaves from a subnormal turning point exactly where
    # travel_distance does, and elsewhere is the scalar rule bit for bit
    for m in (np.finfo(float).tiny * g ** np.linspace(0.0, 1.0, 400, endpoint=False)).tolist():
        for c in (0, -1):
            try:
                i = travel_distance(Coil(g), m if c == 0 else -m).index
            except NumericalError:
                with pytest.raises(NumericalError, match="^underflow"):
                    bracket_ratio(g, m, c)
                continue
            assert float(bracket_ratio(g, m, c)) == 1.0 + 2.0 * g ** (2 * i + 2 + c) / (
                (g - 1.0) * m), (g, c, m)


# A target whose path leaves from a subnormal turning point: at gamma = 1e10
# the bracket of X = 3e-308 is (1e-320, 1e-300], left from gamma^-31 = 1e-310;
# -X's, (1e-310, 1e-290], is left from gamma^-30 = 1e-300, a normal double.
SUBNORMAL_GAMMA, SUBNORMAL_X = 1e10, 3e-308


@pytest.mark.parametrize("solve", [
    lambda x: coil_marching_distance(SUBNORMAL_GAMMA, x, WALK_CFG),
    lambda x: travel_distance(Coil(SUBNORMAL_GAMMA), x).delta,
    lambda x: bracket_index(Coil(SUBNORMAL_GAMMA), x),
    lambda x: float(bracket_ratio(SUBNORMAL_GAMMA, abs(x), 0 if x > 0.0 else -1)),
], ids=["walk", "travel_distance", "bracket_index", "bracket_ratio"])
def test_subnormal_departure_is_one_rule(solve):
    # one message, written once in coil, for one refusal; the other side answers
    with pytest.raises(NumericalError) as refused:
        solve(SUBNORMAL_X)
    assert str(refused.value) == "underflow: a target's path leaves from a subnormal turning point"
    assert math.isfinite(solve(-SUBNORMAL_X))


# A target whose upper turning point is past the float range: X < 0 at
# gamma^(2i+1) = inf for the walk and the closed forms (bracket_ratio reads
# it for the largest magnitude of an array), and average_ratio's negative
# bracket at |X|.  The worst-ratio scan's probe 1 + 1e-9 has the upper turning
# point gamma^2, which overflows from gamma ~ 1.34e154.
OVERFLOW_GAMMA, OVERFLOW_X = 3.733023421621123, -1.6902816577234507e+307


@pytest.mark.parametrize("solve", [
    lambda: coil_marching_distance(OVERFLOW_GAMMA, OVERFLOW_X, WALK_CFG),
    lambda: travel_distance(Coil(OVERFLOW_GAMMA), OVERFLOW_X),
    lambda: bracket_index(Coil(OVERFLOW_GAMMA), OVERFLOW_X),
    lambda: average_ratio(Coil(OVERFLOW_GAMMA), -OVERFLOW_X),
    lambda: bracket_ratio(OVERFLOW_GAMMA, np.array([-OVERFLOW_X, 1.0]), -1),
    lambda: scan_worst_ratio(1e200, 1000),
    lambda: scan_worst_ratio(1.4e154, 1000),
], ids=["walk", "travel_distance", "bracket_index", "average_ratio", "bracket_ratio",
        "scan_worst_ratio-grid", "scan_worst_ratio-ratio"])
def test_overflowing_turning_point_is_the_walks_overflow(solve):
    # one exception type, and the walk's wording, for one overflow, with no
    # numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^overflow: target beyond representable sweeps"):
            solve()


class TestWorstCaseRatio:
    def test_optimum_value(self):
        assert worst_case_ratio(Coil(2.0)) == 9.0

    def test_gamma_three(self):
        assert worst_case_ratio(Coil(3.0)) == 10.0

    def test_scan_approaches_from_below(self):
        g = 2.4
        c = Coil(g)
        xs = np.concatenate([g ** np.linspace(-3.0, 3.0, 50_000),
                             g ** (2.0 * np.arange(-1, 2)) * (1 + 1e-9)])
        ratios = [travel_distance(c, float(x)).delta / x for x in xs]
        top = max(ratios)
        assert top <= worst_case_ratio(c)
        assert top >= worst_case_ratio(c) * (1.0 - 1e-3)

    def test_finite_wherever_the_supremum_is(self):
        # gamma^2 overflows from gamma ~ 1.34e154; 2*gamma + 3 + 2/(gamma - 1)
        # does not
        for g in (9.5e153, 1e200, 1e308):
            assert worst_case_ratio(Coil(g)) == pytest.approx(2.0 * g, rel=1e-15)

    def test_within_two_ulps_of_mpmath(self):
        mp = pytest.importorskip("mpmath")
        u = uniform_block(5, 0, 4000).tolist()
        gammas = [1.0 + 10.0 ** (-14.0 + 15.0 * v) for v in u[::2]]
        gammas += [10.0 ** (150.0 * v) for v in u[1::2] if v > 0.0]
        with mp.workdps(40):
            for g in gammas:
                want = (2 * mp.mpf(g) ** 2 + g - 1) / (mp.mpf(g) - 1)
                assert abs(worst_case_ratio(Coil(g)) - want) <= 2.0 ** -51 * want, g

    def test_nine_is_global_floor(self):
        for g in np.linspace(1.2, 6.0, 60):
            assert worst_case_ratio(Coil(float(g))) >= 9.0 - 1e-12

    def test_optimal_coil(self):
        gamma, ratio = optimal_minmax_coil()
        assert abs(gamma - golden.COIL_MINMAX_GAMMA_REF) <= 2.0 * math.ulp(2.0)
        assert ratio == pytest.approx(golden.COIL_MINMAX_RATIO, abs=1e-14)
        assert worst_case_ratio(Coil(1.9)) > 9.0
        assert worst_case_ratio(Coil(2.1)) > 9.0


def _ring_integral(g: float, x0: float, x: float) -> float:
    """Quadrature of delta(s)/|s| over x0 <= |s| <= x, for x0 a power of g
    and x0 < x < g^2 * x0, split at g*x0, the one turning point inside."""
    c = Coil(g)
    splits = [x0, g * x0, x] if g * x0 < x else [x0, x]
    return sum(integrate(lambda s: travel_distance(c, sign * s).delta / s, a, b, 1e-11)
               for sign in (1.0, -1.0) for a, b in zip(splits, splits[1:]))


class TestBracketIntegrals:
    # The partial-bracket integrals inside `average_ratio`: 2x*A(x) less
    # 2x0*A(x0) is the integral of delta(s)/|s| over x0 <= |s| <= x.
    def _check_against_quadrature(self, seed, offset):
        u = iter(uniform_block(seed, 0, 30).tolist())
        for _ in range(10):
            g = 1.2 + 3.8 * next(u)
            k = 2 * int(-2.0 + 5.0 * next(u)) + offset
            x0 = g ** k
            x = x0 * (1.0 + next(u) * (g * g - 1.0))
            c = Coil(g)
            got = 2.0 * x * average_ratio(c, x) - 2.0 * x0 * average_ratio(c, x0)
            want = _ring_integral(g, x0, x)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * x), (g, x0, x)

    def test_positive_piece_against_quadrature(self):
        # x0 = gamma^(2i) opens a positive bracket
        self._check_against_quadrature(31, 0)

    def test_negative_piece_against_quadrature(self):
        # x0 = gamma^(2j-1) opens a negative bracket
        self._check_against_quadrature(37, -1)

    def test_empty_intervals(self):
        # at x = gamma^(2k) the positive partial bracket is whole and the
        # average sits at its period minimum
        for g in (1.2, 1.9, 2.0, 3.591121476669, 5.7, 8.0):
            want = ratio_extrema(Coil(g)).min_value
            for k in range(-3, 4):
                assert average_ratio(Coil(g), g ** (2 * k)) == pytest.approx(want, rel=1e-12)


def _parent_bracket_index(g: float, target: float) -> int:
    # the bracket rule as written before it returned its powers
    xa, c = abs(target), 0 if target > 0.0 else -1
    i = math.ceil(math.log(xa) / (2.0 * math.log(g)) - (1.0 + 0.5 * c))
    while g ** (2 * i + c) >= xa:
        i -= 1
    while g ** (2 * i + 2 + c) < xa:
        i += 1
    return i


def _parent_average_ratio(g: float, x: float) -> float:
    # two bracket_index calls and the four bracket pieces of each side: the
    # whole brackets below x and the partial bracket up to it, each log read
    # from its own bracket, ln(x/gamma^(2i)) and ln(x/gamma^(2j-1))
    lg = math.log(g)
    i = _parent_bracket_index(g, x)
    j = _parent_bracket_index(g, -x)
    series = 4.0 * lg / ((g - 1.0) ** 2 * (g + 1.0))
    whole_pos = g ** (2 * i) + series * g ** (2 * i + 2)
    whole_neg = g ** (2 * j - 1) + series * g ** (2 * j + 1)
    log_i = math.log(x / g ** (2 * i))
    log_j = math.log(x / g ** (2 * j - 1))
    partial_pos = (x - g ** (2 * i)) + (2.0 * g ** (2 * i + 2) / (g - 1.0)) * log_i
    partial_neg = (-x + g ** (2 * j - 1)) - (2.0 * g ** (2 * j + 1) / (g - 1.0)) * log_j
    return (whole_pos + partial_pos + whole_neg - partial_neg) / (2.0 * x)


def _parent_travel_distance(g: float, target: float) -> CoilHit:
    i = _parent_bracket_index(g, target)
    c = 0 if target > 0.0 else -1
    return CoilHit(target=target, index=i,
                   delta=abs(target) + 2.0 * g ** (2 * i + 2 + c) / (g - 1.0))


def _same_outcome(new, old) -> bool:
    """new() and old() return equal values, or raise the same numerical
    failure; an old NaN or inf average and an old raw OverflowError from a
    turning point past the float range are now NumericalErrors."""
    def outcome(f):
        try:
            return f()
        except (OverflowError, NumericalError) as exc:
            return type(exc)
    a, b = outcome(new), outcome(old)
    if b is OverflowError or isinstance(b, float) and not math.isfinite(b):
        b = NumericalError
    return a == b


def _average_agrees(c: Coil, x: float) -> bool:
    """average_ratio(c, x) within 1e-15 relative of the four-piece sum where
    that is finite.  Where the pieces overflow, an answer inside the period
    extrema, or the walk's overflow of a turning point past the float range."""
    try:
        old = _parent_average_ratio(c.gamma, x)
    except OverflowError:
        old = math.inf
    try:
        new = average_ratio(c, x)
    except NumericalError as exc:
        return not math.isfinite(old) and str(exc).startswith("overflow: target beyond")
    if math.isfinite(old):
        return abs(new - old) <= 1e-15 * old
    return _within_extrema(c, new)


def _within_extrema(c: Coil, value: float) -> bool:
    ext = ratio_extrema(c)
    return ext.min_value * (1.0 - 1e-12) <= value <= ext.max_value * (1.0 + 1e-12)


@pytest.mark.parametrize("g", [1.0 + 1e-9, 1.5, 2.0, 1.0 / lambert_w0(math.exp(-1.0)), 8.0, 1e6])
def test_closed_forms_match_the_separate_bracket_formulas_bit_for_bit(g):
    # turning points +-gamma^k across the float range, the doubles beside
    # them, and log-uniform magnitudes; near 1e300 some distances overflow.
    # travel_distance and bracket_index are bit for bit; average_ratio sums
    # two quotients instead of four pieces, so it agrees to rounding
    u = uniform_block(59, 0, 200).tolist()
    xs = [10.0 ** (-300.0 + 600.0 * v) for v in u]
    for t in np.linspace(-690.0, 690.0, 61).tolist():
        p = g ** round(t / math.log(g))
        xs += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    c = Coil(g)
    for x in xs:
        assert _average_agrees(c, x), x
        for t in (x, -x):
            assert _same_outcome(lambda: travel_distance(c, t),
                                 lambda: _parent_travel_distance(g, t)), t
            assert _same_outcome(lambda: bracket_index(c, t), lambda: _parent_bracket_index(g, t)), t


class TestAverageRatio:
    def test_quadrature_oracle(self):
        # integrate delta(s)/|s| over [-x0, x0] directly, splitting at the
        # jump points of delta; the integrand is bounded, so the skipped
        # (-1e-8, 1e-8) sliver contributes less than 9 * 2e-8
        g, x0 = 2.0, 1.7
        c = Coil(g)

        def ratio(s):
            return travel_distance(c, float(s)).delta / abs(s)

        def jump_powers(parity):
            # powers gamma^(2k + parity) inside [1e-8, x0)
            out = []
            k = -30
            while g ** (2 * k + parity) < x0:
                p = g ** (2 * k + parity)
                if p >= 1e-8:
                    out.append(p)
                k += 1
            return out

        total = 0.0
        splits = [1e-8] + jump_powers(0) + [x0]
        for a, b in zip(splits, splits[1:]):
            total += integrate(ratio, a, b, 1e-10)
        splits = [-x0] + [-p for p in reversed(jump_powers(1))] + [-1e-8]
        for a, b in zip(splits, splits[1:]):
            total += integrate(ratio, a, b, 1e-10)
        approx = total / (2.0 * x0)
        assert average_ratio(c, x0) == pytest.approx(approx, abs=1e-6)

    def test_log_periodicity(self):
        u = iter(uniform_block(41, 0, 100).tolist())
        for _ in range(50):
            g = 1.2 + 4.8 * next(u)
            x = g ** (-3.0 + 6.0 * next(u))
            c = Coil(g)
            assert average_ratio(c, g * g * x) == pytest.approx(
                average_ratio(c, x), rel=1e-9)

    def test_bounded_by_extrema(self):
        u = iter(uniform_block(43, 0, 1000).tolist())
        for g in (1.5, 2.0, 3.0, 5.0, 8.0):
            c = Coil(g)
            ext = ratio_extrema(c)
            assert ext.min_value < ext.max_value
            for _ in range(200):
                x = g ** (-4.0 + 8.0 * next(u))
                val = average_ratio(c, x)
                assert ext.min_value - 1e-9 <= val <= ext.max_value + 1e-9

    def test_within_1e15_of_mpmath(self):
        # the closed form at 60 digits, with exact powers and its own bracket
        # indices, at gamma = 1 + 10^U(-14, 1) and x = 10^U(-300, 300), and
        # where ln x - 2i ln(gamma) cancelled to 3.1e-14 (gamma = 1 + 1e-13,
        # x = 1e290) and 1.2e-14 (1.05, 1e-200); draws whose bracket index
        # passes 2^53 are refused, by the walk's rule, and skipped
        mp = pytest.importorskip("mpmath")
        u = uniform_block(61, 0, 2000).tolist()
        cases = [(1.0 + 1e-13, 1e290), (1.05, 1e-200), (1.000001, 1e200), (2.0, 3.0)]
        cases += [(1.0 + 10.0 ** (-14.0 + 15.0 * a), 10.0 ** (-300.0 + 600.0 * b))
                  for a, b in zip(u[::2], u[1::2])]
        checked = 0
        for g, x in cases:
            try:
                got = average_ratio(Coil(g), x)
            except NumericalError:
                continue
            with mp.workdps(60):
                G, X = mp.mpf(g), mp.mpf(x)
                lg, lx = mp.log(G), mp.log(X)
                i = int(mp.ceil(lx / (2 * lg))) - 1  # G^(2i) < X <= G^(2i+2)
                j = int(mp.ceil((lx / lg - 1) / 2))  # G^(2j-1) < X <= G^(2j+1)
                series = 4 * lg / ((G - 1) ** 2 * (G + 1))
                pos = G ** (2 * i) * (1 + series * G ** 2) + (X - G ** (2 * i)) + (
                    2 * G ** (2 * i + 2) / (G - 1)) * (lx - 2 * i * lg)
                neg = G ** (2 * j - 1) * (1 + series * G ** 2) - (-X + G ** (2 * j - 1)) + (
                    2 * G ** (2 * j + 1) / (G - 1)) * (lx - (2 * j - 1) * lg)
                want = (pos + neg) / (2 * X)
            assert abs(got - want) <= 1e-15 * want, (g, x)
            checked += 1
        assert checked >= 500

    def test_within_1e12_of_mpmath_across_the_float_range(self):
        # gamma = 10^U(0, 308) and x = 10^U(-307, 308), where gamma^(2i) can be
        # subnormal or 0, against the two-quotient sum at 60 digits with exact
        # powers; refused draws are skipped
        mp = pytest.importorskip("mpmath")
        u = uniform_block(73, 0, 4000).tolist()
        checked = 0
        for a, b in zip(u[::2], u[1::2]):
            g, x = 10.0 ** (308.0 * a), 10.0 ** (-307.0 + 615.0 * b)
            try:
                got = average_ratio(Coil(g), x)
            except (NumericalError, ValueError):
                continue
            with mp.workdps(60):
                G, X = mp.mpf(g), mp.mpf(x)
                lg, lx = mp.log(G), mp.log(X)
                i = int(mp.ceil(lx / (2 * lg))) - 1  # G^(2i) < X <= G^(2i+2)
                j = int(mp.ceil((lx / lg - 1) / 2))  # G^(2j-1) < X <= G^(2j+1)
                h = 2 * lg / ((G - 1) ** 2 * (G + 1))
                want = (1 + G ** (2 * i + 2) / X * (h + (lx - 2 * i * lg) / (G - 1))
                        + G ** (2 * j + 1) / X * (h + (lx - (2 * j - 1) * lg) / (G - 1)))
            assert abs(got - want) <= 1e-12 * want, (g, x)
            checked += 1
        assert checked >= 500

    def test_within_extrema_wherever_answered(self):
        # gamma = 1 + 10^U(-14, 1) with x = 10^U(-300, 300), and gamma =
        # 10^U(0, 308.25) with x = 10^U(-307, 308): an answer lies within the
        # period extrema, and a refusal is a NumericalError, never libm's raw
        # ZeroDivisionError or OverflowError.  Below gamma ~ 1.34e154, where
        # gamma^2 is finite, no average is refused as not finite.
        u = uniform_block(67, 0, 8000).tolist()
        cases = [(1.0 + 10.0 ** (-14.0 + 15.0 * a), 10.0 ** (-300.0 + 600.0 * b))
                 for a, b in zip(u[0:4000:2], u[1:4000:2])]
        cases += [(10.0 ** (308.25 * a), 10.0 ** (-307.0 + 615.0 * b))
                  for a, b in zip(u[4000::2], u[4001::2]) if 10.0 ** (308.25 * a) > 1.0]
        answered = 0
        for g, x in cases:
            c = Coil(g)
            try:
                value = average_ratio(c, x)
            except NumericalError as exc:
                assert "not finite" not in str(exc) or g * g == math.inf, (g, x)
                continue
            assert _within_extrema(c, value), (g, x)
            answered += 1
        assert answered >= 2500

    def test_underflowed_lower_turning_point(self):
        # gamma^-2 underflows to 0 at gamma = 1e200, and x = 0.5 lies above
        # gamma^-1, so each log is read from gamma^-1: the average is
        # 1 + 2*gamma/(gamma - 1)*ln(gamma/2), up to terms below 1e-190
        g = 1e200
        want = 1.0 + 2.0 * (math.log(g) + math.log(0.5))
        assert average_ratio(Coil(g), 0.5) == pytest.approx(want, rel=1e-15)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            average_ratio(Coil(2.0), -1.0)


class TestRatioExtrema:
    def test_gamma_two_closed_forms(self):
        ext = ratio_extrema(Coil(2.0))
        assert ext.min_value == pytest.approx(1.0 + 6.0 * math.log(2.0), abs=1e-14)
        assert ext.max_value == pytest.approx(1.0 + 12.0 / math.e, abs=1e-14)

    def test_scan_matches_gamma_three(self):
        g = 3.0
        c = Coil(g)
        ext = ratio_extrema(c)
        xs = np.exp(np.linspace(0.0, 2.0 * math.log(g), 10_000))
        vals = np.array([average_ratio(c, float(x)) for x in xs])
        assert float(vals.min()) == pytest.approx(ext.min_value, abs=1e-5)
        assert float(vals.max()) == pytest.approx(ext.max_value, abs=1e-5)

    def test_finite_and_ordered_for_every_gamma(self):
        # the minimum is finite past gamma ~ 1.34e154, where gamma^2 overflows,
        # reading 1 + ln(gamma) to rounding; near gamma = 1 both extrema read
        # 2/(gamma - 1) + 3 + O(gamma - 1), so there they may be equal
        u = uniform_block(71, 0, 2000).tolist()
        gammas = [1.0 + 10.0 ** (-15.5 + 16.0 * v) for v in u[:1000]]
        gammas += [10.0 ** (308.25 * v) for v in u[1000:]]
        for g in filter(lambda g: g > 1.0, gammas):
            ext = ratio_extrema(Coil(g))
            assert 1.0 < ext.min_value <= ext.max_value < math.inf, g
        for g in (1e153, 1.4e154, 1e300, 1.7e308):
            assert ratio_extrema(Coil(g)).min_value == pytest.approx(1.0 + math.log(g), rel=1e-15)

    def test_minimum_attained_at_even_powers(self):
        for g in (1.7, 2.0, 4.2):
            ext = ratio_extrema(Coil(g))
            assert average_ratio(Coil(g), 1.0) == pytest.approx(ext.min_value, rel=1e-12)
            assert average_ratio(Coil(g), g * g) == pytest.approx(ext.min_value, rel=1e-12)


class TestOptimalMinmeanCoil:
    def test_published_constants(self):
        # each gamma against its 17-digit reference, each mean to half a unit
        # of its published tenth decimal
        opt = optimal_minmean_coil()
        assert abs(opt.gamma_for_min - golden.COIL_MEAN_GAMMA_FOR_MIN_REF) <= 4e-15
        assert opt.mean_min == pytest.approx(golden.COIL_MEAN_MIN, abs=5e-11)
        assert abs(opt.gamma_for_max - golden.COIL_MEAN_GAMMA_FOR_MAX_REF) <= 4e-15
        assert opt.mean_max == pytest.approx(golden.COIL_MEAN_MAX, abs=5e-11)

    def test_mpmath_references(self):
        # the derivative roots land within a few ulps of the 17-digit references
        opt = optimal_minmean_coil()
        assert abs(opt.gamma_for_min - golden.COIL_MEAN_GAMMA_FOR_MIN_REF) <= 4e-15
        assert abs(opt.gamma_for_max - golden.COIL_MEAN_GAMMA_FOR_MAX_REF) <= 4e-15
        assert abs(optimal_minmax_coil()[0] - golden.COIL_MINMAX_GAMMA_REF) <= 4e-15

    def test_both_beat_worst_case_guarantee(self):
        opt = optimal_minmean_coil()
        assert opt.mean_min < 9.0
        assert opt.mean_max < 9.0


class TestMixedStrategy:
    def test_gamma_e(self):
        assert mixed_expected_ratio(math.e).expected_ratio == pytest.approx(
            2.0 + math.e, rel=1e-15)

    def test_gamma_two(self):
        assert mixed_expected_ratio(2.0).expected_ratio == pytest.approx(
            1.0 + 3.0 / math.log(2.0), rel=1e-15)

    def test_stationarity_identity_at_optimum(self):
        g = 3.591121476669
        # first-order condition ln(gamma) = (gamma+1)/gamma
        assert math.log(g) == pytest.approx((g + 1.0) / g, abs=1e-12)
        assert mixed_expected_ratio(g).expected_ratio == pytest.approx(1.0 + g, abs=1e-11)

    def test_optimal_mixed(self):
        strat = optimal_mixed()
        assert strat.gamma == pytest.approx(3.591121476669, abs=1e-10)
        assert abs(strat.gamma - golden.MIXED_GAMMA_REF) <= 4e-15
        assert strat.gamma == pytest.approx(1.0 / lambert_w0(1.0 / math.e), rel=1e-15)
        assert strat.expected_ratio == pytest.approx(1.0 + strat.gamma, abs=1e-10)

    def test_beats_deterministic_candidates(self):
        best = optimal_mixed().expected_ratio
        assert best < 4.8131558458
        for g in (2.0, 3.0, 5.0):
            assert best < mixed_expected_ratio(g).expected_ratio

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mixed_expected_ratio(1.0)

    def test_type_invariant(self):
        # the expected ratio is read off gamma, so no value can disagree with it
        with pytest.raises(TypeError):
            MixedStrategy(gamma=2.0, expected_ratio=4.0)
        assert MixedStrategy(2.0).expected_ratio == 1.0 + 3.0 / math.log(2.0)


def test_derivative_root_certificate(monkeypatch):
    # every slope the coil optimizers solve changes sign across gamma* -+ 1e-12,
    # from below to above (a minimum), and both ends print the ten significant
    # digits of the CLI's gamma lines
    solved = []

    def recording_find_root(f, bracket):
        report = find_root(f, bracket)
        solved.append((f, report))
        return report

    monkeypatch.setattr(coil, "find_root", recording_find_root)
    for optimizer in (optimal_minmax_coil, optimal_minmean_coil, optimal_mixed):
        optimizer()
    assert len(solved) == 4
    for slope, report in solved:
        g = report.root_or_argmin
        lo, hi = g - 1e-12, g + 1e-12
        assert report.converged
        assert slope(lo) < 0.0 < slope(hi)
        assert f"{lo:.10g}" == f"{hi:.10g}" == f"{g:.10g}"


def test_coil_references_by_mpmath():
    # the coil optima recomputed at 40 digits, each closed-form objective
    # differentiated numerically by mpmath, so no slope formula of the
    # package is reused
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def worst_ratio(g):
            return (2 * g * g + g - 1) / (g - 1)

        def period_min(g):
            return 1 + g * (g + 1) * mp.log(g) / (g - 1) ** 2

        def period_max(g):
            return 1 + (g + 1) / (g - 1) * g ** (g / (g - 1)) / mp.e

        def mixed_ratio(g):
            return 1 + (g + 1) / mp.log(g)

        for f, start, reference in (
                (worst_ratio, "2.1", golden.COIL_MINMAX_GAMMA_REF),
                (period_min, "5.7041372673", golden.COIL_MEAN_GAMMA_FOR_MIN_REF),
                (period_max, "3.2232549401", golden.COIL_MEAN_GAMMA_FOR_MAX_REF),
                (mixed_ratio, "3.591121476669", golden.MIXED_GAMMA_REF)):
            root = mp.findroot(lambda g: mp.diff(f, g), mp.mpf(start))
            # each golden reference is the double nearest the 40-digit root
            assert float(root) == reference
        assert float(1 / mp.lambertw(1 / mp.e)) == golden.MIXED_GAMMA_REF


def test_coil_validation():
    with pytest.raises(ValueError):
        Coil(1.0)
    with pytest.raises(ValueError):
        CoilHit(target=1.0, index=0, delta=0.5)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_coil_hit_rejects_non_finite_distance(delta):
    # an overflowed travel distance is a numerical failure, not a usage error
    with pytest.raises(NumericalError, match="not finite"):
        CoilHit(target=1.0, index=0, delta=delta)
