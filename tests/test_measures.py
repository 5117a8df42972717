import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskclaim import (
    CappedInverse,
    Constant,
    EmpiricalDiscrete,
    Exponential,
    InvalidParameter,
    Power,
    QuantileTable,
    Shifted,
    StepVector,
    TwoStep,
    Uniform,
    UnsupportedDensity,
    avar_risk,
    avar_weight,
    g_k_value,
    gamma_value,
    hardy_littlewood_bounds,
    measure_from_dict,
    measure_to_dict,
    mix_payoffs,
    parse_loss,
    parse_measure,
    parse_weight,
    payoff_from_dict,
    price,
    quantile_risk,
    robust_risk,
    shifted_risk,
    two_level_weight,
    var_risk,
)

from conftest import (
    found_tail_density,
    quad_price,
    random_continuous_density,
    random_discrete_density,
    random_step_payoff,
    random_weight,
)

UNIF = Uniform(0.0, 2.0)
TWO_ATOMS = EmpiricalDiscrete((0.5, 1.5), (0.5, 0.5))


def linear_weight_steps(n: int):
    """Midpoint-matched piecewise-constant version of k(t) = 2t; integral is 1 exactly."""
    thresholds = tuple(i / n for i in range(n))
    values = tuple((2 * i + 1) / n for i in range(n))
    return thresholds, values


class TestWeightFunction:
    def test_avar_weight_gamma(self):
        k = avar_weight(0.75)
        assert gamma_value(k, 0.25) == 0.0
        assert gamma_value(k, 1.0) == pytest.approx(1.0)
        assert k.value_at(0.5) == pytest.approx(4.0 / 3.0)

    def test_two_level_normalization(self):
        k = two_level_weight(0.6, 0.5)
        assert k.values[1] == pytest.approx(1.75)
        assert gamma_value(k, 0.6) == pytest.approx(0.3)
        assert gamma_value(k, 1.0) == pytest.approx(1.0)

    def test_rejects_bad_weights(self):
        from riskclaim import WeightFunction

        with pytest.raises(InvalidParameter):
            WeightFunction((0.0,), (0.5,))  # integral != 1
        with pytest.raises(InvalidParameter):
            WeightFunction((0.0, 0.5), (1.5, 0.5))  # decreasing
        with pytest.raises(InvalidParameter):
            gamma_value(avar_weight(0.5), 1.2)


class TestGkValue:
    def test_continuous_branch(self):
        k = avar_weight(0.75)
        assert g_k_value(UNIF, k, 1.0) == pytest.approx(4.0 / 3.0)

    def test_constant_weight(self):
        k = avar_weight(1.0)
        for x in [0.1, 1.0, 1.9]:
            assert g_k_value(UNIF, k, x) == pytest.approx(1.0)

    def test_atom_branch_averages(self):
        # atom with CDF jump [0.2, 0.8] under k = 2 * 1_{[0.5, 1)}
        d = EmpiricalDiscrete((0.4, 1.16, 2.0), (0.2, 0.6, 0.2))
        k = avar_weight(0.5)
        expected = (gamma_value(k, 0.8) - gamma_value(k, 0.2)) / 0.6
        assert g_k_value(d, k, 1.16) == pytest.approx(expected)
        assert expected == pytest.approx(1.0)


class TestPrice:
    def test_indicator(self):
        p = TwoStep(0.0, 1.0, 1.0, 1.0)
        assert price(p, UNIF) == pytest.approx(0.75)

    def test_constant(self):
        assert price(Constant(0.37), UNIF) == pytest.approx(0.37)
        assert price(Constant(0.37), TWO_ATOMS) == pytest.approx(0.37)

    def test_two_step(self):
        p = TwoStep(0.6, 0.0, 1.0, 1.0)
        assert price(p, UNIF) == pytest.approx(0.9)

    def test_step_vector_matches_two_step(self):
        p = TwoStep(0.6, 0.3, 1.0, 1.0)
        sv = StepVector((0.3, 1.0), (0.6, 1.0), 1.0)
        for d in [UNIF, TWO_ATOMS]:
            assert price(sv, d) == pytest.approx(price(p, d), abs=1e-14)

    def test_capped_inverse_price_matches_quadrature(self):
        loss = Exponential(1.0)
        c = 1.3
        payoff = CappedInverse(0.2, c, loss.derivative(0.2) / c, 1.0, loss)
        ts = np.linspace(0.0, 1.0, 400_001)
        qs = np.asarray(UNIF.quantile(ts))
        vals = np.asarray([payoff.value(float(q)) for q in qs])
        approx = float(np.trapezoid(qs * vals, ts))
        assert price(payoff, UNIF) == pytest.approx(approx, abs=1e-6)

    def test_capped_inverse_capped_beyond_float_cdf(self):
        # the cap starts at x_top ~ 36, where cdf(x_top) rounds to 1 and q(1) = inf
        d = found_tail_density()
        loss = Exponential(1.799)
        payoff = CappedInverse(0.1, 0.3, loss.derivative(0.1) / 0.3, 1.0, loss)
        assert d.cdf(payoff.breakpoints()[-1]) == 1.0
        assert abs(price(payoff, d) - quad_price(payoff, d)) <= 1e-12


class TestAVaR:
    def test_constant(self):
        assert avar_risk(0.3, Constant(0.4), UNIF) == pytest.approx(0.4)

    def test_lambda_one_is_expectation(self):
        p = TwoStep(0.0, 1.0, 1.0, 1.0)
        assert avar_risk(1.0, p, UNIF) == pytest.approx(0.5)  # P[phi >= 1]

    def test_two_step_tail_average(self):
        p = TwoStep(0.6, 0.0, 1.0, 1.0)
        assert avar_risk(0.75, p, UNIF) == pytest.approx(13.0 / 15.0, abs=1e-12)

    def test_rejects_bad_lambda(self):
        with pytest.raises(InvalidParameter):
            avar_risk(0.0, Constant(0.1), UNIF)


class TestQuantileRisk:
    def test_unit_weight_is_expectation(self):
        k = avar_weight(1.0)
        p = TwoStep(0.2, 0.5, 1.5, 1.0)
        expected = 0.2 * (UNIF.cdf(1.5) - UNIF.cdf(0.5)) + 1.0 * (1.0 - UNIF.cdf(1.5))
        assert quantile_risk(k, p, UNIF) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_coincides_with_avar(self, seed):
        rng = np.random.default_rng(seed)
        lam = float(rng.uniform(0.1, 1.0))
        d = random_continuous_density(rng) if seed % 2 else random_discrete_density(rng, 7)
        p = random_step_payoff(rng)
        assert quantile_risk(avar_weight(lam), p, d) == pytest.approx(
            avar_risk(lam, p, d), abs=1e-9
        )

    def test_linear_weight_prices_every_feasible_claim(self):
        # with k equal to the quantile of phi, the risk of any claim is its price
        th, kv = linear_weight_steps(1 << 16)
        from riskclaim import WeightFunction

        k = WeightFunction(th, kv)
        for p in [TwoStep(0.4, 0.3, 1.2, 1.0), TwoStep(0.0, 1.0, 1.0, 1.0), Constant(0.7)]:
            assert quantile_risk(k, p, UNIF) == pytest.approx(price(p, UNIF), abs=1e-9)

    def test_capped_inverse_path(self):
        loss = Exponential(1.0)
        payoff = CappedInverse(0.2, 1.3, loss.derivative(0.2) / 1.3, 1.0, loss)
        k = avar_weight(0.75)
        assert quantile_risk(k, payoff, UNIF) == pytest.approx(
            avar_risk(0.75, payoff, UNIF), abs=1e-9
        )


class TestRobustRisk:
    def test_lambda_one(self):
        p = TwoStep(0.3, 0.5, 1.5, 1.0)
        loss = Power(2.0)
        ts = np.linspace(0.0, 1.0, 200_001)
        vals = np.asarray([p.value(float(q)) for q in np.asarray(UNIF.quantile(ts))])
        assert robust_risk(loss, 1.0, p, UNIF) == pytest.approx(
            float(np.trapezoid(vals**2, ts)), abs=1e-5
        )

    def test_constant(self):
        assert robust_risk(Power(2.0), 0.5, Constant(0.4), UNIF) == pytest.approx(0.16)
        assert robust_risk(Exponential(1.0), 0.3, Constant(0.0), UNIF) == pytest.approx(1.0)

    def test_tail_indicator(self):
        p = TwoStep(0.0, 1.5, 1.5, 1.0)  # indicator of {phi >= 1.5}
        # 2 * E[l(f); phi >= 1]: l(1)=1 on mass 0.25, l(0)=0 on mass 0.25
        assert robust_risk(Power(2.0), 0.5, p, UNIF) == pytest.approx(0.5)

    def test_discrete_rejected(self):
        with pytest.raises(UnsupportedDensity):
            robust_risk(Power(2.0), 0.5, Constant(0.3), TWO_ATOMS)

    def test_overflowing_loss_is_invalid_parameter(self):
        with pytest.raises(InvalidParameter):
            robust_risk(Exponential(1.0), 0.5, Constant(800.0), UNIF)


class TestShiftedRisk:
    def test_constant_closed_form(self):
        loss = Exponential(1.0)
        # solve l(c - m) = x0  =>  m = c - log(x0)
        for c, x0 in [(0.4, 1.0), (0.0, 1.0), (0.7, 2.0)]:
            got = shifted_risk(loss, 0.5, x0, Constant(c), UNIF)
            assert got == pytest.approx(c - math.log(x0), abs=1e-9)

    def test_translation_axiom(self):
        loss = Exponential(1.0)
        p = TwoStep(0.2, 0.5, 1.2, 1.0)
        base = shifted_risk(loss, 0.4, 1.0, p, UNIF)
        lifted = StepVector((0.0, 0.5, 1.2), (0.3, 0.5, 1.3), 1.3)  # p + 0.3
        assert shifted_risk(loss, 0.4, 1.0, lifted, UNIF) == pytest.approx(base + 0.3, abs=1e-8)

    def test_discrete_supported(self):
        loss = Exponential(1.0)
        got = shifted_risk(loss, 0.5, 1.0, Constant(0.25), TWO_ATOMS)
        assert got == pytest.approx(0.25, abs=1e-9)

    def test_needs_real_domain(self):
        with pytest.raises(InvalidParameter):
            shifted_risk(Power(2.0), 0.5, 1.0, Constant(0.3), UNIF)


class TestVarRisk:
    def test_constant(self):
        assert var_risk(0.25, Constant(0.4), UNIF) == 0.4

    def test_tail_indicator_zero(self):
        p = TwoStep(0.0, 1.5, 1.5, 1.0)
        assert var_risk(0.25, p, UNIF) == 0.0

    def test_budget_level(self):
        r = (0.6 - 0.4375) / 0.5625
        p = TwoStep(r, 0.0, 1.5, 1.0)
        assert var_risk(0.25, p, UNIF) == pytest.approx(r)

    def test_discrete(self):
        p = TwoStep(0.0, 1.5, 1.5, 1.0)  # pays 1 on the upper atom, mass 0.5
        assert var_risk(0.6, p, TWO_ATOMS) == 0.0
        assert var_risk(0.4, p, TWO_ATOMS) == 1.0


class TestHardyLittlewood:
    def test_constant_table(self):
        qx = QuantileTable((0.0, 1.0), (0.7,), "step")
        qy = QuantileTable((0.0, 0.5, 1.0), (0.5, 1.5), "step")  # mean 1
        lo, hi = hardy_littlewood_bounds(qx, qy)
        assert lo == pytest.approx(0.7)
        assert hi == pytest.approx(0.7)

    def test_uniform_linear_tables(self):
        q = QuantileTable((0.0, 1.0), (0.0, 1.0), "linear")
        lo, hi = hardy_littlewood_bounds(q, q)
        assert lo == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert hi == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_comonotone_equality(self):
        d = EmpiricalDiscrete((0.4, 0.9, 1.9), (0.3, 0.4, 0.3))
        f = TwoStep(0.3, 0.8, 1.5, 1.0)
        qy = QuantileTable.from_empirical(d)
        qx = QuantileTable(qy.levels, tuple(f.value(v) for v in d.values), "step")
        _, hi = hardy_littlewood_bounds(qx, qy)
        exact = sum(p * v * f.value(v) for v, p in zip(d.values, d.probs))
        assert hi == pytest.approx(exact, abs=1e-10)

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidParameter):
            QuantileTable((0.0, 0.5, 1.0), (1.0, 0.5), "step")

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_couplings_between_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        x = np.sort(rng.uniform(0.0, 2.0, size=n))
        y = np.sort(rng.uniform(0.0, 2.0, size=n))
        levels = tuple(np.linspace(0.0, 1.0, n + 1).tolist())
        lo, hi = hardy_littlewood_bounds(
            QuantileTable(levels, tuple(x.tolist()), "step"),
            QuantileTable(levels, tuple(y.tolist()), "step"),
        )
        for _ in range(10):
            perm = rng.permutation(n)
            coupled = float(np.mean(x[perm] * y))
            assert lo - 1e-12 <= coupled <= hi + 1e-12


class TestMeasureAxioms:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_constancy_reduction(self, seed):
        # risk of a claim is never below the risk of its expectation
        rng = np.random.default_rng(seed)
        d = random_continuous_density(rng)
        p = random_step_payoff(rng)
        mean_payoff = avar_risk(1.0, p, d)  # exact E[f(phi)]
        const = Constant(mean_payoff)
        lam = float(rng.uniform(0.1, 1.0))
        assert avar_risk(lam, p, d) >= avar_risk(lam, const, d) - 1e-7
        k = random_weight(rng)
        assert quantile_risk(k, p, d) >= quantile_risk(k, const, d) - 1e-7
        loss = Exponential(1.0)
        assert robust_risk(loss, lam, p, d) >= robust_risk(loss, lam, const, d) - 1e-7

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        d = random_continuous_density(rng)
        lower = random_step_payoff(rng)
        shift = float(rng.uniform(0.0, 0.5))
        pts = lower.breakpoints() or [1.0]
        upper = StepVector(
            tuple([0.0] + pts),
            tuple([lower.value(0.0) + shift] + [lower.value(x) + shift for x in pts]),
            lower.max_level() + shift,
        )
        lam = float(rng.uniform(0.1, 1.0))
        assert avar_risk(lam, lower, d) <= avar_risk(lam, upper, d) + 1e-9
        k = random_weight(rng)
        assert quantile_risk(k, lower, d) <= quantile_risk(k, upper, d) + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_convexity_in_the_claim(self, seed):
        rng = np.random.default_rng(seed)
        d = random_continuous_density(rng)
        f = random_step_payoff(rng)
        g = random_step_payoff(rng)
        lam = float(rng.uniform(0.1, 1.0))
        k = random_weight(rng)
        loss = Exponential(1.0)
        cap = max(f.max_level(), g.max_level())
        for alpha in (0.25, 0.5, 0.75):
            mixed = mix_payoffs(alpha, f, g, cap)
            for risk in (
                lambda p: avar_risk(lam, p, d),
                lambda p: quantile_risk(k, p, d),
                lambda p: robust_risk(loss, lam, p, d),
            ):
                assert risk(mixed) <= alpha * risk(f) + (1 - alpha) * risk(g) + 1e-8

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_quantile_composition(self, seed):
        # the quantile of f(phi) is f applied to the quantile of phi
        rng = np.random.default_rng(seed)
        d = random_discrete_density(rng, 8)
        p = random_step_payoff(rng)
        c = d.cell_bounds
        for t in np.linspace(0.01, 0.99, 17):
            idx = int(np.searchsorted(c[1:], t, side="right"))
            idx = min(idx, len(d.values) - 1)
            x_quantile = p.value(d.values[idx])
            assert p.value(float(d.quantile(float(t)))) == pytest.approx(x_quantile)


class TestLosses:
    def test_inverse_derivative_roundtrip(self):
        for loss in [Exponential(0.7), Power(2.0), Power(3.5), Shifted(Exponential(1.0), 0.3)]:
            for x in np.linspace(0.05, 0.95, 7):
                assert loss.inverse_derivative(loss.derivative(float(x))) == pytest.approx(
                    float(x), abs=1e-10
                )

    def test_strict_convexity_second_differences(self):
        h = 1e-3
        for loss in [Exponential(1.0), Power(2.0), Shifted(Power(2.0), -0.2)]:
            for x in np.linspace(0.1, 0.9, 5):
                second = loss.value(x + h) - 2 * loss.value(x) + loss.value(x - h)
                assert second > 0.0

    def test_extended_inverse_sentinels(self):
        assert Exponential(1.0).inverse_derivative(0.0) == -math.inf
        assert Exponential(1.0).inverse_derivative(-1.0) == -math.inf
        assert Power(2.0).inverse_derivative(-0.5) == -math.inf
        assert Power(2.0).inverse_derivative(0.0) == 0.0

    def test_array_variants_match_scalar(self):
        zs = np.linspace(0.01, 3.0, 11)
        for loss in [Exponential(1.3), Power(2.5), Shifted(Exponential(1.0), 0.4)]:
            vec = loss.inverse_derivative_array(zs)
            for z, v in zip(zs, vec):
                assert v == pytest.approx(loss.inverse_derivative(float(z)), abs=1e-12)
            vv = loss.value_array(zs)
            for z, v in zip(zs, vv):
                assert v == pytest.approx(loss.value(float(z)), abs=1e-12)

    def test_exponential_value_array_overflow(self):
        with pytest.raises(InvalidParameter):
            Exponential(2.0).value_array(np.asarray([0.5, 400.0]))


class TestPayoffs:
    def test_two_step_shape(self):
        p = TwoStep(0.4, 0.5, 1.5, 1.0)
        assert p.value(0.4) == 0.0
        assert p.value(0.5) == 0.4
        assert p.value(1.5) == 1.0
        assert p.value_left(0.5) == 0.0
        assert p.value_left(1.5) == 0.4

    def test_capped_inverse_matches_clamp_form(self):
        loss = Exponential(1.0)
        beta, c = 0.25, 1.4
        y = loss.derivative(beta) / c
        p = CappedInverse(beta, c, y, 1.0, loss)
        for x in [0.0, 0.3, y, 1.2, 1.9, math.inf]:
            clamp = min(max(loss.inverse_derivative(c * max(x, 1e-300)), beta), 1.0)
            assert p.value(x) == pytest.approx(clamp, abs=1e-12)

    def test_power_zero_floor(self):
        loss = Power(2.0)
        p = CappedInverse(0.0, 0.75, 0.0, 1.0, loss)
        assert p.value(0.0) == 0.0
        assert p.value(1.0) == pytest.approx(0.375)
        assert p.value(4.0) == 1.0

    def test_capped_inverse_value_array_matches_value(self):
        xs = np.asarray([0.0, 0.3, 0.9, 1.2, 1.9, 40.0, math.inf])
        for p in [
            CappedInverse(0.25, 1.4, Exponential(1.0).derivative(0.25) / 1.4, 1.0, Exponential(1.0)),
            CappedInverse(0.0, 0.75, 0.0, 1.0, Power(2.0)),
            CappedInverse(0.0, 0.75, 0.0, 1.0, Exponential(1.0)),  # anchor I(0) = -inf
        ]:
            assert p.value_array(xs) == pytest.approx([p.value(float(x)) for x in xs], abs=1e-15)

    def test_serialization_roundtrip(self):
        payoffs = [
            Constant(0.3),
            TwoStep(0.4, 0.5, 1.5, 1.0),
            StepVector((0.5, 1.5), (0.2, 0.9), 1.0),
            CappedInverse(0.2, 1.1, 0.9, 1.0, Shifted(Exponential(1.0), 0.25)),
        ]
        for p in payoffs:
            q = payoff_from_dict(p.to_dict())
            for x in [0.0, 0.4, 0.9, 1.4, 2.2]:
                assert q.value(x) == pytest.approx(p.value(x), abs=1e-15)


class TestGrammar:
    def test_weights(self):
        assert parse_weight("avar:0.75").value_at(0.5) == pytest.approx(4 / 3)
        assert parse_weight("twolevel:0.6,0.5").values[1] == pytest.approx(1.75)
        k = parse_weight("steps:0:0.5,0.6:1.75")
        assert k.values == (0.5, 1.75)

    def test_losses(self):
        assert parse_loss("exp:1").a == 1.0
        assert parse_loss("pow:2").p == 2.0

    def test_measures_roundtrip(self):
        for spec in [
            "avar:0.75",
            "var:0.25",
            "rho_k:twolevel:0.6,0.5",
            "rho_k:steps:0:0.5,0.6:1.75",
            "robust:exp:1:0.5",
            "shifted:exp:1:0.5:1",
        ]:
            m = parse_measure(spec)
            m2 = measure_from_dict(measure_to_dict(m))
            assert m2 == m

    def test_bad_measures(self):
        from riskclaim import ConfigError

        for bad in ["avar", "rho_k:nope:1", "robust:exp:1", "huh:1"]:
            with pytest.raises(ConfigError):
                parse_measure(bad)
