import math

import numpy as np
import pytest

from shoreline.numerics import (Bracket, NumericalError, find_root, integrate, lambert_w0,
                                minimize_scalar, solve_system2, uniform_block)

TWO_PI = 2.0 * math.pi


class TestBracket:
    def test_valid(self):
        b = Bracket(0.0, 1.0)
        assert (b.lo, b.hi) == (0.0, 1.0)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 1.0)
        with pytest.raises(ValueError):
            Bracket(2.0, 1.0)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            Bracket(0.0, math.inf)


class TestFindRoot:
    def test_linear(self):
        r = find_root(lambda x: x - 1.0, Bracket(0.0, 2.0))
        assert r.converged
        assert r.root_or_argmin == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2(self):
        r = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0))
        assert r.root_or_argmin == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert abs(r.residual_or_value) <= 1e-12
        # the root is the end of the final bracket with the smaller |f|, so
        # no neighbouring double has a smaller residual
        for x in (math.nextafter(r.root_or_argmin, 1.0), math.nextafter(r.root_or_argmin, 2.0)):
            assert abs(r.residual_or_value) <= abs(x * x - 2.0)

    def test_against_dense_scan(self):
        # independent oracle: locate the sign change of f on a 1e6-point grid
        f = lambda th: math.exp(0.5 * th) * math.cos(th) - 1.0
        grid = np.linspace(0.1, 1.5, 1_000_001)
        vals = np.exp(0.5 * grid) * np.cos(grid) - 1.0
        (flips,) = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert flips.size == 1
        lo, hi = grid[flips[0]], grid[flips[0] + 1]
        r = find_root(f, Bracket(0.1, 1.5))
        assert lo <= r.root_or_argmin <= hi
        # theta = 0 is itself a root, so the wider bracket returns it at once
        assert find_root(f, Bracket(0.0, 1.5)).root_or_argmin == 0.0

    def test_invalid_bracket(self):
        with pytest.raises(ValueError, match="invalid bracket"):
            find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))

    def test_non_finite_evaluation(self):
        def f(x):
            return math.nan if 0.4 < x < 0.6 else x - 0.5

        with pytest.raises(NumericalError, match="non-finite"):
            find_root(f, Bracket(0.0, 1.0))

    def test_root_stays_in_bracket(self):
        u = iter(uniform_block(42, 0, 150).tolist())
        for _ in range(50):
            a = -3.0 + 3.0 * next(u)
            b = 0.5 + 3.5 * next(u)
            lo, hi = a + 0.1, b - 0.1
            c = lo + (hi - lo) * next(u) if b - 0.2 > a + 0.1 else 0.25
            r = find_root(lambda x: math.tanh(x - c), Bracket(a, b))
            assert a <= r.root_or_argmin <= b
            assert r.root_or_argmin == pytest.approx(c, abs=1e-10)

    def test_root_at_zero(self):
        # 2*eps*|b| vanishes at a root at 0: tanh reaches f = 0 exactly there,
        # and x + copysign(1e-320, x), which is never 0, ends on a bracket of
        # adjacent subnormals
        r = find_root(math.tanh, Bracket(-1.0, 2.0))
        assert (r.root_or_argmin, r.residual_or_value, r.converged) == (0.0, 0.0, True)
        r = find_root(lambda x: x + math.copysign(1e-320, x), Bracket(-1.0, 2.0))
        assert r.converged and r.iterations < 200
        assert abs(r.root_or_argmin) <= 5e-324

    def test_cap_reports_no_convergence(self):
        # a jump at 0 is bracketed but never pinned: the width would have to
        # halve about 1075 times, so the loop stops at its 200-evaluation cap
        r = find_root(lambda x: math.copysign(1.0, x), Bracket(-1.0, 2.0))
        assert (r.iterations, r.converged) == (200, False)
        assert abs(r.root_or_argmin) < 1e-40


class TestMinimizeScalar:
    def test_parabola(self):
        r = minimize_scalar(lambda x: (x - 3.0) ** 2, Bracket(0.0, 10.0))
        assert r.root_or_argmin == pytest.approx(3.0, abs=1e-9)

    def test_am_gm(self):
        r = minimize_scalar(lambda x: x + 1.0 / x, Bracket(0.1, 10.0))
        assert r.root_or_argmin == pytest.approx(1.0, abs=1e-9)
        assert r.residual_or_value == pytest.approx(2.0, abs=1e-12)

    def test_mixed_ratio_curve(self):
        r = minimize_scalar(lambda g: 1.0 + (g + 1.0) / math.log(g), Bracket(2.0, 6.0))
        assert r.root_or_argmin == pytest.approx(3.591121476669, abs=1e-8)

    def test_local_optimality(self):
        tol = 1e-10  # the argmin width minimize_scalar stops at
        for f, lo, hi in [(lambda x: (x - 3.0) ** 2, 0.0, 10.0),
                          (lambda x: x + 1.0 / x, 0.1, 10.0),
                          (lambda x: math.cosh(x - 0.7), -2.0, 4.0)]:
            r = minimize_scalar(f, Bracket(lo, hi))
            x = r.root_or_argmin
            assert f(x) <= f(x + 10.0 * tol) + 1e-15
            assert f(x) <= f(x - 10.0 * tol) + 1e-15
            assert r.converged

    @pytest.mark.parametrize("f", [lambda x: x, lambda x: -math.exp(x), lambda x: 1.0])
    def test_no_interior_minimum_is_unconverged(self, f):
        # monotone or flat on the bracket: the central difference never
        # changes sign, so the golden-section midpoint is not certified
        r = minimize_scalar(f, Bracket(0.0, 1.0))
        assert not r.converged
        assert 0.0 <= r.root_or_argmin <= 1.0


class TestSolveSystem2:
    def test_linear(self):
        assert solve_system2(lambda x, y: (x - 1.0, y - 2.0), (0.0, 0.0)) == \
            pytest.approx((1.0, 2.0), abs=1e-12)

    def test_circle_line(self):
        x, y = solve_system2(lambda x, y: (x * x + y * y - 1.0, x - y), (1.0, 0.0))
        assert (x, y) == pytest.approx((1 / math.sqrt(2), 1 / math.sqrt(2)), abs=1e-12)

    def test_contact_angle_system(self):
        # the transcendental system behind the min-max spiral, solved raw
        def F(a, b):
            return (1.0 / math.tan(a) + 1.0 / math.tan(b)
                    - (TWO_PI - a - b) / math.cos(a) ** 2,
                    math.cos(a) / math.cos(b)
                    - math.exp((TWO_PI - a - b) * math.tan(a)))

        a, b = solve_system2(F, (0.2, 1.2))
        assert math.tan(a) == pytest.approx(0.2124695594, abs=1e-9)
        assert 0.0 < b < 0.5 * math.pi

    def test_singular_jacobian(self):
        with pytest.raises(NumericalError, match="singular"):
            solve_system2(lambda x, y: (x + y, x + y), (1.0, 1.0))


class TestIntegrate:
    def test_identity(self):
        assert integrate(lambda x: x, 0.0, 1.0, 1e-12) == pytest.approx(0.5, abs=1e-11)

    def test_sin(self):
        assert integrate(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)

    def test_coil_ratio_piece(self):
        # delta(x)/x for gamma = 2 on its first whole bracket above 1
        got = integrate(lambda x: 1.0 + 8.0 / x, 1.0, 2.0, 1e-11)
        assert got == pytest.approx(1.0 + 8.0 * math.log(2.0), abs=1e-10)

    def test_endpoint_singularity(self):
        got = integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1e-9)
        assert got == pytest.approx(2.0, abs=2e-9)

    def test_additive(self):
        f = lambda x: math.exp(-x) * math.sin(3.0 * x)
        tol = 1e-10
        parts = integrate(f, 0.0, 0.7, tol) + integrate(f, 0.7, 2.0, tol)
        whole = integrate(f, 0.0, 2.0, tol)
        assert abs(parts - whole) <= 3.0 * tol

    def test_non_finite(self):
        with pytest.raises(NumericalError, match="non-finite"):
            integrate(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, 1e-9)

    def test_reversed_and_empty(self):
        assert integrate(lambda x: x, 1.0, 1.0, 1e-12) == 0.0
        assert integrate(lambda x: x, 1.0, 0.0, 1e-12) == pytest.approx(-0.5, abs=1e-11)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_reciprocal_at_inv_e(self):
        w = lambert_w0(1.0 / math.e)
        assert 1.0 / w == pytest.approx(3.591121476669, abs=1e-10)

    @pytest.mark.parametrize("x", [-0.3, 0.0, 0.5, 1.0, 10.0, 100.0])
    def test_defining_identity(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.4)


class TestRandomStream:
    # the counter-based stream, read through `uniform_block`
    def test_range_contract(self):
        u = uniform_block(1, 0, 1000)
        assert ((0.0 <= u) & (u < 1.0)).all()

    def test_determinism(self):
        a = [float(uniform_block(9, i, 1)[0]) for i in range(100)]
        assert a == uniform_block(9, 0, 100).tolist() == uniform_block(9, 0, 100).tolist()

    def test_block_matches_scalar(self):
        # a block drawn at an offset holds the serial stream's values there
        blk = uniform_block(31337, 5, 200)
        assert blk.tolist() == uniform_block(31337, 0, 205)[5:].tolist()
        assert blk.tolist() == [float(uniform_block(31337, i, 1)[0]) for i in range(5, 205)]

    def test_known_answer(self):
        # published SplitMix64 outputs for seed 1234567
        zs = [6457827717110365317, 3203168211198807973, 9817491932198370423,
              4593380528125082431, 16408922859458223821]
        assert list(uniform_block(1234567, 0, 5)) == [(z >> 11) * 2.0 ** -53 for z in zs]

    def test_known_answer_past_the_seed_and_position_range(self):
        # a seed >= 2^64 is masked to 64 bits, and positions near 2^63 mix
        # like any other
        seed, start = 2 ** 64 + 2 ** 40 + 12345, 2 ** 63 - 3
        want = [_splitmix64(seed, p) for p in range(start, start + 6)]
        assert uniform_block(seed, start, 6).tolist() == want
        assert uniform_block(seed - 2 ** 64, start, 6).tolist() == want

    def test_blocks_are_fresh_writable_arrays(self):
        # simulate coil writes into its draws
        a, b = uniform_block(5, 0, 8), uniform_block(5, 0, 8)
        assert a is not b and not np.shares_memory(a, b)
        assert a.flags.writeable and b.flags.writeable
        a[:] = 0.0
        assert b.tolist() == uniform_block(5, 0, 8).tolist()

    def test_clt_mean(self):
        us = uniform_block(1, 0, 1_000_000)
        assert abs(us.mean() - 0.5) < 0.002  # 3 sigma = 3/(sqrt(12)*1e3)


def _splitmix64(seed: int, pos: int) -> float:
    """Stream value at ``pos`` in pure Python: SplitMix64 of the counter,
    top 53 bits as a double in [0, 1)."""
    mask = 2 ** 64 - 1
    z = (seed + (pos + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53
