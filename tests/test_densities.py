import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskclaim import (
    EmpiricalDiscrete,
    InvalidParameter,
    PiecewiseLinearQuantile,
    Uniform,
    UnsupportedDensity,
    parse_density,
)
from riskclaim.densities import density_from_dict

from conftest import random_continuous_density, random_discrete_density

TWO_ATOMS = EmpiricalDiscrete((0.5, 1.5), (0.5, 0.5))


class TestUniform:
    d = Uniform(0.0, 2.0)

    def test_cdf(self):
        assert self.d.cdf(1.0) == 0.5
        assert self.d.cdf(0.0) == 0.0
        assert self.d.cdf(2.5) == 1.0

    def test_quantile(self):
        assert self.d.quantile(0.5) == 1.0
        assert self.d.quantile(0.0) == 0.0  # convention q(0) = 0
        assert self.d.quantile(1.0) == 2.0

    def test_quantile_rejects_bad_level(self):
        with pytest.raises(InvalidParameter):
            self.d.quantile(1.5)
        with pytest.raises(InvalidParameter):
            self.d.quantile(-0.1)

    def test_capital_integral(self):
        assert self.d.capital_integral(0.5) == pytest.approx(0.25)
        assert self.d.capital_integral(1.0) == pytest.approx(1.0)
        assert self.d.capital_integral(0.0) == 0.0
        with pytest.raises(InvalidParameter):
            self.d.capital_integral(1.2)

    def test_tail_capital(self):
        # cross-checked by discrete-atom summation below
        assert self.d.tail_capital(1.0) == pytest.approx(0.75)
        assert self.d.tail_capital(0.0) == pytest.approx(1.0)
        assert self.d.tail_capital(2.0) == 0.0

    def test_tail_capital_against_atom_summation(self):
        n = 200_000
        mids = (np.arange(n) + 0.5) / n * 2.0
        approx = float(np.sum(mids[mids >= 1.0]) / n)
        assert self.d.tail_capital(1.0) == pytest.approx(approx, abs=1e-4)

    def test_z_of_v(self):
        assert self.d.z_of_v(0.75) == pytest.approx(0.5, abs=1e-11)
        assert self.d.z_of_v(1.0) == 0.0
        assert self.d.z_of_v(0.0) == 1.0

    def test_validate(self):
        assert Uniform(0.0, 2.0).validate() == []
        issues = Uniform(0.0, 3.0).validate()
        assert len(issues) == 1
        assert issues[0].code == "mean"
        assert issues[0].residual == pytest.approx(0.5)


class TestEmpiricalDiscrete:
    def test_cdf(self):
        assert TWO_ATOMS.cdf(1.0) == 0.5
        assert TWO_ATOMS.cdf(0.49) == 0.0
        assert TWO_ATOMS.cdf(1.5) == 1.0

    def test_quantile_right_continuous(self):
        assert TWO_ATOMS.quantile(0.75) == 1.5
        assert TWO_ATOMS.quantile(0.5) == 1.5
        assert TWO_ATOMS.quantile(0.25) == 0.5
        assert TWO_ATOMS.quantile(0.0) == 0.0

    def test_capital_and_tail(self):
        assert TWO_ATOMS.capital_integral(0.5) == pytest.approx(0.25)
        assert TWO_ATOMS.capital_integral(1.0) == pytest.approx(1.0)
        assert TWO_ATOMS.tail_capital(1.0) == pytest.approx(0.75)
        assert TWO_ATOMS.mean() == pytest.approx(1.0)

    def test_z_of_v_unsupported(self):
        with pytest.raises(UnsupportedDensity):
            TWO_ATOMS.z_of_v(0.5)

    def test_validate_probability_sum(self):
        d = EmpiricalDiscrete((0.5, 1.5), (0.45, 0.45))
        codes = {i.code for i in d.validate()}
        assert "probability_sum" in codes

    def test_structural_errors(self):
        with pytest.raises(InvalidParameter):
            EmpiricalDiscrete((1.5, 0.5), (0.5, 0.5))  # unsorted
        with pytest.raises(InvalidParameter):
            EmpiricalDiscrete((0.5, 1.5), (0.5, 0.0))  # zero probability


class TestPiecewiseLinearQuantile:
    d = PiecewiseLinearQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 2.0))  # same law as Uniform(0,2)

    def test_matches_uniform(self):
        u = Uniform(0.0, 2.0)
        for t in [0.0, 0.1, 0.37, 0.5, 0.9, 1.0]:
            assert self.d.quantile(t) == pytest.approx(u.quantile(t))
            assert self.d.capital_integral(t) == pytest.approx(u.capital_integral(t))
        for x in [0.0, 0.3, 1.0, 1.7, 2.0]:
            assert self.d.cdf(x) == pytest.approx(u.cdf(x))
            assert self.d.tail_capital(x) == pytest.approx(u.tail_capital(x))

    def test_flag_and_mean(self):
        assert self.d.is_continuous_strictly_increasing
        assert self.d.mean() == pytest.approx(1.0)
        flat = PiecewiseLinearQuantile((0.0, 0.5, 1.0), (1.0, 1.0, 1.0))
        assert not flat.is_continuous_strictly_increasing

    def test_validate_nonmonotone(self):
        bad = PiecewiseLinearQuantile((0.0, 0.5, 1.0), (0.0, 2.0, 1.0))
        codes = {i.code for i in bad.validate()}
        assert "quantile_monotonicity" in codes

    def test_structure_checks(self):
        with pytest.raises(InvalidParameter):
            PiecewiseLinearQuantile((0.1, 1.0), (0.0, 2.0))  # first level not 0
        with pytest.raises(InvalidParameter):
            PiecewiseLinearQuantile((0.0, 0.5), (0.0, 2.0))  # last level not 1


class TestExponentialTail:
    theta = 0.4
    knots_t = (0.0, 0.9)
    knots_q = (0.2, 0.8)

    def make(self):
        base = PiecewiseLinearQuantile(self.knots_t, self.knots_q, tail_theta=self.theta)
        # rescale values so the mean is exactly 1
        scale = 1.0 / base.mean()
        return PiecewiseLinearQuantile(
            self.knots_t,
            tuple(q * scale for q in self.knots_q),
            tail_theta=self.theta * scale,
        )

    def test_unbounded(self):
        d = self.make()
        assert d.ess_sup() == math.inf
        assert d.mean() == pytest.approx(1.0, abs=1e-12)
        assert d.quantile(1.0) == math.inf
        assert d.capital_integral(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_quantile_roundtrip(self):
        d = self.make()
        for t in [0.05, 0.5, 0.9, 0.95, 0.999]:
            assert d.cdf(d.quantile(t)) == pytest.approx(t, abs=1e-12)

    def test_capital_integral_matches_quadrature(self):
        d = self.make()
        for x in [0.3, 0.9, 0.97, 0.9999]:
            ts = np.linspace(0.0, x, 200_001)
            approx = float(np.trapezoid(np.asarray(d.quantile(ts)), ts))
            assert d.capital_integral(x) == pytest.approx(approx, abs=1e-6)


class TestQuantileRule:
    """sum w * q reproduces the closed-form capital integral Phi(hi) - Phi(lo)."""

    TAIL = PiecewiseLinearQuantile((0.0, 0.3, 0.8), (0.2, 0.6, 1.1), tail_theta=0.3)

    def assert_exact(self, d, lo, hi):
        q, w = d.quantile_rule(lo, hi)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(w))
        exact = float(d.capital_integral(hi)) - float(d.capital_integral(lo))
        assert abs(float(np.dot(w, q)) - exact) <= 1e-14

    def test_uniform(self):
        for lo, hi in [(0.0, 1.0), (0.2, 0.7), (0.9, 1.0)]:
            self.assert_exact(Uniform(0.4, 1.6), lo, hi)

    def test_bounded_plq(self):
        d = PiecewiseLinearQuantile((0.0, 0.2, 0.65, 1.0), (0.1, 0.5, 1.1, 2.3))
        for lo, hi in [(0.0, 1.0), (0.1, 0.3), (0.2, 0.65), (0.5, 0.99)]:
            self.assert_exact(d, lo, hi)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.1, 0.7), (0.2, 0.95), (0.85, 0.99), (0.0, 1.0 - 1e-12), (0.5, 1.0), (0.9, 1.0)],
        ids=["below", "across", "inside", "to-1e-12", "across-to-1", "inside-to-1"],
    )
    def test_plq_tail(self, lo, hi):
        self.assert_exact(self.TAIL, lo, hi)

    def test_atoms(self):
        d = EmpiricalDiscrete((0.5, 1.0, 1.5), (0.25, 0.5, 0.25))
        for lo, hi in [(0.0, 1.0), (0.1, 0.8), (0.25, 0.75), (0.3, 0.3)]:
            self.assert_exact(d, lo, hi)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_quantile_monotone(seed):
    rng = np.random.default_rng(seed)
    d = random_continuous_density(rng) if seed % 2 else random_discrete_density(rng, 6)
    ts = np.sort(rng.uniform(0.0, 1.0, size=20))
    qs = [d.quantile(float(t)) for t in ts]
    assert all(b >= a - 1e-15 for a, b in zip(qs[:-1], qs[1:]))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_capital_integral_midpoint_convex(seed):
    rng = np.random.default_rng(seed)
    d = random_continuous_density(rng) if seed % 2 else random_discrete_density(rng, 6)
    grid = np.linspace(0.0, 1.0, 41)
    phi = np.asarray(d.capital_integral(grid))
    mid = 0.5 * (phi[:-2] + phi[2:])
    assert np.all(phi[1:-1] <= mid + 1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_quantile_cdf_galois(seed):
    rng = np.random.default_rng(seed)
    d = random_continuous_density(rng) if seed % 2 else random_discrete_density(rng, 6)
    for t in np.linspace(0.01, 0.99, 25):
        q = float(d.quantile(float(t)))
        assert float(d.cdf_left(q)) <= t + 1e-12
        assert t <= float(d.cdf(q)) + 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_tail_plus_capital_is_total(seed):
    rng = np.random.default_rng(seed)
    d = random_continuous_density(rng)
    if not d.is_continuous_strictly_increasing:
        return
    for t in np.linspace(0.05, 0.95, 10):
        q = float(d.quantile(float(t)))
        total = float(d.tail_capital(q)) + float(d.capital_integral(float(t)))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestParsing:
    def test_uniform_spec(self):
        d = parse_density("uniform:0,2")
        assert isinstance(d, Uniform) and d.hi == 2.0

    def test_plq_spec(self):
        d = parse_density("plq:0:0,0.5:1,1:2")
        assert isinstance(d, PiecewiseLinearQuantile)
        assert d.quantile(0.5) == pytest.approx(1.0)

    def test_atoms_csv(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("value,prob\n0.5,0.5\n1.5,0.5\n")
        d = parse_density(f"atoms:{path}")
        assert isinstance(d, EmpiricalDiscrete)
        assert d.mean() == pytest.approx(1.0)

    def test_bad_specs(self):
        from riskclaim import ConfigError

        for bad in ["uniform", "uniform:1", "plq:0:0,1", "nope:1,2", "atoms:/does/not/exist.csv"]:
            with pytest.raises(ConfigError):
                parse_density(bad)

    def test_dict_roundtrip(self):
        for d in [
            Uniform(0.0, 2.0),
            PiecewiseLinearQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 2.0)),
            TWO_ATOMS,
        ]:
            d2 = density_from_dict(d.to_dict())
            assert d2 == d
