import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskclaim import (
    Bracket,
    InvalidParameter,
    NoBracket,
    Uniform,
    geometric_bracket,
    minimize_1d,
    minimize_2d,
    root_bracketed,
)
from riskclaim.numerics import gauss_legendre


class TestBracket:
    def test_width_must_be_positive(self):
        with pytest.raises(InvalidParameter):
            Bracket(1.0, 1.0)
        with pytest.raises(InvalidParameter):
            Bracket(2.0, 1.0)

    def test_for_root_checks_sign(self):
        Bracket.for_root(lambda x: x, -1.0, 1.0)
        with pytest.raises(NoBracket):
            Bracket.for_root(lambda x: x * x + 1.0, -1.0, 1.0)


class TestRootBracketed:
    def test_quadratic(self):
        r = root_bracketed(lambda x: x * x - 0.25, Bracket(0.0, 1.0), tol=1e-12)
        assert r == pytest.approx(0.5, abs=1e-10)

    def test_odd_function(self):
        r = root_bracketed(lambda x: x, Bracket(-1.0, 1.0), tol=1e-12)
        assert abs(r) <= 1e-10

    def test_y_lambda_equation(self):
        # q(y) (y + lam - 1) = Phi(y) for the uniform model, lam = 0.75
        d = Uniform(0.0, 2.0)
        lam = 0.75
        f = lambda y: d.quantile(y) * (y + lam - 1.0) - d.capital_integral(y)
        r = root_bracketed(f, Bracket(0.26, 1.0), tol=1e-12)
        assert r == pytest.approx(0.5, abs=1e-9)

    def test_no_bracket_raises(self):
        with pytest.raises(NoBracket):
            root_bracketed(lambda x: 1.0 + x * x, Bracket(0.0, 1.0), tol=1e-10)

    def test_residual_bound(self):
        # re-substituted residual stays within 10x the tolerance
        tol = 1e-11
        for f, lo, hi in [
            (lambda x: x * x - 0.25, 0.0, 1.0),
            (lambda x: x, -1.0, 1.0),
            (lambda x: math.expm1(x) - 0.3, -1.0, 1.0),
        ]:
            r = root_bracketed(f, Bracket(lo, hi), tol=tol)
            assert abs(f(r)) <= 10.0 * tol

    @given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_random_monotone_roots(self, shift, slope):
        f = lambda x: slope * (x - shift) ** 3 + 0.5 * (x - shift)
        r = root_bracketed(f, Bracket(-5.0, 5.0), tol=1e-12)
        assert r == pytest.approx(shift, abs=1e-6)


class TestGeometricBracket:
    def test_expands_to_sign_change(self):
        b = geometric_bracket(lambda c: c - 1e-4, 1.0, 1e-12, 1e12)
        assert b.lo <= 1e-4 <= b.hi

    def test_raises_when_single_signed(self):
        with pytest.raises(NoBracket):
            geometric_bracket(lambda c: 1.0, 1.0, 1e-3, 1e3)


class TestMinimize1D:
    def test_parabola(self):
        res = minimize_1d(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=1e-10)
        assert res.argmin == pytest.approx(0.3, abs=1e-9)

    def test_concentration_ratio_argmin(self):
        # -(y + lam - 1)/Phi(y) on (0, 1] is minimized at y_lambda = 0.5
        d = Uniform(0.0, 2.0)
        lam = 0.75
        f = lambda y: -(y + lam - 1.0) / d.capital_integral(y)
        res = minimize_1d(f, 1e-6, 1.0, tol=1e-10)
        assert res.argmin == pytest.approx(0.5, abs=1e-7)

    def test_constant_returns_leftmost(self):
        res = minimize_1d(lambda x: 2.0, 0.25, 0.75)
        assert res.argmin == pytest.approx(0.25, abs=1e-8)

    def test_multimodal_flag(self):
        f = lambda x: math.sin(12.0 * x)
        res = minimize_1d(f, 0.0, 3.0, tol=1e-9)
        assert res.multimodal
        assert res.fmin == pytest.approx(-1.0, abs=1e-8)


class TestMinimize2D:
    def test_recovers_interior_quadratic(self):
        f = lambda x, y: (x - 0.37) ** 2 + (y - 0.71) ** 2
        res = minimize_2d(f, (0.0, 1.0), (0.0, 1.0), coarse_n=50, rounds=40)
        assert res.x == pytest.approx(0.37, abs=1e-7)
        assert res.y == pytest.approx(0.71, abs=1e-7)
        assert not res.flat

    def test_vectorized_matches_scalar(self):
        f = lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y
        r1 = minimize_2d(f, (0.0, 2.0), (0.0, 2.0), coarse_n=60, rounds=30)
        r2 = minimize_2d(f, (0.0, 2.0), (0.0, 2.0), coarse_n=60, rounds=30, vectorized=True)
        assert r1.fmin == pytest.approx(r2.fmin, abs=1e-12)
        assert (r1.x, r1.y) == pytest.approx((r2.x, r2.y), abs=1e-12)

    def test_flat_flag_and_lexicographic_tiebreak(self):
        res = minimize_2d(lambda x, y: 5.0, (0.2, 0.8), (0.4, 1.0), coarse_n=30, rounds=5)
        assert res.flat
        assert (res.x, res.y) == (0.2, 0.4)

    def test_never_leaves_domain(self):
        f = lambda x, y: -(x + y)  # pushes to the corner
        res = minimize_2d(f, (0.0, 1.0), (0.5, 2.0), coarse_n=20, rounds=25)
        assert 0.0 <= res.x <= 1.0 and 0.5 <= res.y <= 2.0
        assert (res.x, res.y) == pytest.approx((1.0, 2.0), abs=1e-12)


class TestGaussLegendre:
    def test_exact_on_degree_127(self):
        t, w = gauss_legendre([0.2, 1.3])
        exact = (1.3**128 - 0.2**128) / 128.0
        assert np.dot(w, t**127) == pytest.approx(exact, rel=1e-13)

    def test_pieces_integrate_a_kinked_function_exactly(self):
        # |t - 0.4| has its kink on a cut, so every piece is a polynomial
        t, w = gauss_legendre([0.0, 0.4, 1.0])
        assert np.dot(w, np.abs(t - 0.4)) == pytest.approx(0.08 + 0.18, abs=1e-15)

    def test_nodes_interior_and_weights_sum_to_width(self):
        cuts = [0.1, 0.25, 0.25000001, 0.9]
        t, w = gauss_legendre(cuts)
        assert len(t) == len(w) == 64 * 3
        for a, b in zip(cuts[:-1], cuts[1:]):
            inside = (t > a) & (t < b)
            assert inside.sum() == 64
            assert w[inside].sum() == pytest.approx(b - a, rel=1e-14)
