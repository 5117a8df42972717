import math

import numpy as np
import pytest

from riskclaim import (
    AVaRMeasure,
    CappedInverse,
    Constant,
    DiscreteInstance,
    Exponential,
    InvalidParameter,
    PiecewiseLinearQuantile,
    Power,
    ProblemSpec,
    QuantileMeasure,
    TwoStep,
    Uniform,
    VaRMeasure,
    avar_risk,
    avar_weight,
    critical_value_robust,
    discretize,
    huber_strassen_pi,
    oracle_robust,
    price,
    quantile_risk,
    risk_curve,
    robust_risk,
    shifted_risk,
    solve_avar,
    solve_problem,
    solve_quantile_based,
    solve_robust_utility,
    solve_shifted,
    solve_var,
    two_level_weight,
    var_risk,
    y_lambda,
)
from riskclaim.solvers import DEFAULT_TOLERANCES, _RobustKernel

from conftest import (
    found_tail_density,
    quad_price,
    random_continuous_density,
    random_tail_density,
)

UNIF = Uniform(0.0, 2.0)


class TestYLambda:
    def test_interior_root(self):
        # grid-maximization oracle for (y + lam - 1) / Phi(y)
        lam = 0.75
        ys = np.linspace(1e-4, 1.0, 200_001)
        ratio = (ys + lam - 1.0) / np.asarray(UNIF.capital_integral(ys))
        y_grid = float(ys[np.argmax(ratio)])
        y = y_lambda(UNIF, lam)
        assert y == pytest.approx(y_grid, abs=1e-4)
        assert y == pytest.approx(0.5, abs=1e-9)

    def test_boundary_when_density_bounded(self):
        assert y_lambda(UNIF, 0.4) == 1.0  # ess sup 2 <= 1/0.4

    def test_feasible_range(self):
        for lam in (0.55, 0.7, 0.9, 0.99):
            y = y_lambda(UNIF, lam)
            assert 1.0 - lam < y <= 1.0


class TestSolveAVaR:
    def test_diversified_branch(self):
        s = solve_avar(UNIF, 0.75, 0.9)
        assert s.regime == "diversified"
        assert s.params["beta"] == pytest.approx(0.6, abs=1e-9)
        assert s.params["b1"] == pytest.approx(1.0, abs=1e-9)
        assert s.risk == pytest.approx(13.0 / 15.0, abs=1e-12)
        assert abs(s.budget_residual) <= 1e-10
        assert s.critical_value == pytest.approx(0.75, abs=1e-9)

    def test_classical_branch(self):
        s = solve_avar(UNIF, 0.75, 0.5)
        assert s.regime == "classical"
        assert s.params["b0"] == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-9)
        assert s.risk == pytest.approx((1.0 - math.sqrt(0.5)) / 0.75, abs=1e-10)

    def test_lambda_one_is_neyman_pearson(self):
        s = solve_avar(UNIF, 1.0, 0.75)
        assert s.regime == "classical"
        assert s.risk == pytest.approx(1.0 - math.sqrt(0.25), abs=1e-10)
        s1 = solve_avar(UNIF, 1.0, 1.0)
        assert s1.risk == pytest.approx(1.0)

    def test_bounded_density_constant_regime(self):
        # ess sup <= 1/lam: any feasible claim has risk >= its price
        s = solve_avar(UNIF, 0.4, 0.6)
        assert s.risk == pytest.approx(0.6, abs=1e-10)
        assert abs(s.budget_residual) <= 1e-10

    def test_degenerate_budgets(self):
        assert solve_avar(UNIF, 0.75, 0.0).risk == 0.0
        assert solve_avar(UNIF, 0.75, 1.0).risk == 1.0

    def test_risk_consistent_with_evaluator(self):
        for v in (0.2, 0.6, 0.8, 0.95):
            s = solve_avar(UNIF, 0.75, v)
            assert avar_risk(0.75, s.payoff, UNIF) == pytest.approx(s.risk, abs=1e-9)


class TestSolveQuantileBased:
    def test_two_level_interior_optimum(self):
        k = two_level_weight(0.6, 0.5)
        s = solve_quantile_based(UNIF, k, 0.7)
        # stationarity condition pins (x*, y*) = (4/15, 14/15)
        assert s.params["x_star"] == pytest.approx(4.0 / 15.0, abs=1e-6)
        assert s.params["y_star"] == pytest.approx(14.0 / 15.0, abs=1e-6)
        assert s.risk < 0.7
        assert s.risk < 1.0 - 0.5 * math.sqrt(0.3)
        assert abs(s.budget_residual) <= 1e-10
        assert quantile_risk(k, s.payoff, UNIF) == pytest.approx(s.risk, abs=1e-9)

    def test_flat_surface_for_price_weight(self):
        n = 1 << 16
        from riskclaim import WeightFunction

        k = WeightFunction(
            tuple(i / n for i in range(n)), tuple((2 * i + 1) / n for i in range(n))
        )
        for v in (0.3, 0.7):
            s = solve_quantile_based(UNIF, k, v)
            assert s.diagnostics["flat_r"]
            assert s.risk == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("v", [0.3, 0.5, 0.8, 0.9])
    def test_matches_avar_closed_form(self, v):
        lam = 0.75
        s_k = solve_quantile_based(UNIF, avar_weight(lam), v)
        s_a = solve_avar(UNIF, lam, v)
        assert s_k.risk == pytest.approx(s_a.risk, abs=1e-8)
        assert s_k.params["beta"] == pytest.approx(s_a.params["beta"], abs=1e-6)
        b_closed = s_a.params.get("b1", s_a.params.get("b0"))
        assert s_k.params["b"] == pytest.approx(b_closed, abs=1e-6)

    @pytest.mark.parametrize("v", [0.2, 0.5, 0.8, 0.95])
    def test_avar_dichotomy(self, v):
        # the minimizer sits on x* = 0 or at the corner x* = z_v
        lam = 0.75
        s = solve_quantile_based(UNIF, avar_weight(lam), v)
        x_star, z_v = s.params["x_star"], s.params["z_v"]
        assert min(abs(x_star), abs(x_star - z_v)) <= 1e-6


class TestSolveRobustUtility:
    def test_classical_power_loss(self):
        # lam = 1: analytic optimum f = (0.375 phi) ^ 1 with c = 0.75
        s = solve_robust_utility(UNIF, Power(2.0), 1.0, 0.5, 1.0)
        assert s.params["beta"] <= 1e-3
        assert s.params["c"] == pytest.approx(0.75, abs=1e-6)
        assert s.risk == pytest.approx(0.1875, abs=1e-6)
        assert abs(s.budget_residual) <= 1e-8

    def test_forced_floor_above_tail_capacity(self):
        # v above cap * E[phi; phi >= q] cannot be raised on the tail alone
        s = solve_robust_utility(UNIF, Exponential(1.0), 0.5, 0.95, 1.0)
        assert s.params["beta"] > 0.0
        assert s.regime == "diversified"

    def test_structure_at_sharp_prior_bound(self):
        """When the pricing density itself is a feasible prior (ess sup =
        1/lam), the worst-case functional is bounded below by loss(price), so
        the constant claim is optimal at every budget."""
        loss = Exponential(1.0)
        for v in (0.2, 0.5, 0.8):
            s = solve_robust_utility(UNIF, loss, 0.5, v, 1.0)
            assert s.risk == pytest.approx(loss.value(v), abs=1e-7)
            inst = DiscreteInstance(discretize(UNIF, 500), v, 1.0)
            assert oracle_robust(inst, loss, 0.5).risk == pytest.approx(s.risk, abs=2e-3)

    def test_regime_and_monotonicity_nondegenerate(self):
        """Two-regime structure on an instance with ess sup > 1/lam: the
        floor is zero up to a critical budget and grows afterwards, the
        multiplier grows throughout, and the entry level falls to the tail
        quantile and stays there."""
        loss = Exponential(1.0)
        lam = 0.75
        grid = np.linspace(0.05, 0.95, 10)
        sols = [solve_robust_utility(UNIF, loss, lam, float(v), 1.0) for v in grid]
        betas = [s.params["beta"] for s in sols]
        cs = [s.params["c"] for s in sols]
        ys = [s.params["y"] for s in sols]
        q = UNIF.quantile(1.0 - lam)
        assert all(b1 >= b0 - 1e-6 for b0, b1 in zip(betas[:-1], betas[1:]))
        assert all(c1 >= c0 - 1e-6 for c0, c1 in zip(cs[:-1], cs[1:]))
        assert all(y1 <= y0 + 1e-6 for y0, y1 in zip(ys[:-1], ys[1:]))  # entry level falls
        assert all(y >= q - 1e-6 for y in ys)
        assert all(b < v for b, v in zip(betas, grid))
        assert betas[0] <= 1e-8 and betas[-1] > 1e-3

    def test_matches_oracle_nondegenerate(self):
        loss = Exponential(1.0)
        atoms = discretize(UNIF, 1000)
        for v in (0.2, 0.6, 0.9):
            s = solve_robust_utility(UNIF, loss, 0.75, v, 1.0)
            o = oracle_robust(DiscreteInstance(atoms, v, 1.0), loss, 0.75)
            assert abs(s.risk - o.risk) <= 2e-3

    def test_power_loss_floor_always_positive(self):
        # with marginal loss 0 at zero, raising the floor is free at the
        # margin, so it turns positive at every budget; the entry level still
        # pins to the quantile of the concentration maximizer
        loss = Power(2.0)
        atoms = discretize(UNIF, 1000)
        for lam, y_value in ((0.75, 1.0), (0.9, 0.4)):
            for v in (0.2, 0.5, 0.8):
                s = solve_robust_utility(UNIF, loss, lam, v, 1.0)
                assert s.params["beta"] > 1e-3
                assert s.params["y"] == pytest.approx(y_value, abs=1e-7)
                o = oracle_robust(DiscreteInstance(atoms, v, 1.0), loss, lam)
                assert abs(s.risk - o.risk) <= 2e-3
            assert UNIF.quantile(y_lambda(UNIF, lam)) == pytest.approx(y_value, abs=1e-9)

    def test_pointwise_monotone_in_budget(self):
        loss = Exponential(1.0)
        xs = np.linspace(0.01, 2.0, 41)
        prev = None
        for v in (0.2, 0.4, 0.6, 0.8):
            s = solve_robust_utility(UNIF, loss, 0.75, v, 1.0)
            vals = np.asarray([s.payoff.value(float(x)) for x in xs])
            if prev is not None:
                assert np.all(vals >= prev - 1e-6)
            prev = vals

    def test_boundary_budgets(self):
        s0 = solve_robust_utility(UNIF, Exponential(1.0), 0.75, 0.0, 1.0)
        assert isinstance(s0.payoff, Constant) and s0.payoff.level == 0.0
        assert s0.risk == pytest.approx(1.0)  # loss(0) = 1 on the whole tail
        s1 = solve_robust_utility(UNIF, Exponential(1.0), 0.75, 1.0, 1.0)
        assert s1.risk == pytest.approx(math.e)

    @pytest.mark.parametrize("loss", [Exponential(1.0), Power(2.0)], ids=["exp", "pow"])
    @pytest.mark.parametrize(
        "density",
        [UNIF, PiecewiseLinearQuantile((0.0, 0.5, 1.0), (0.2, 0.8, 2.2))],
        ids=["uniform", "plq"],
    )
    def test_floor_beats_every_grid_floor(self, density, loss):
        """Convexity certificate: no budget-matched claim on a 201-point
        floor grid scores below the slope root."""
        lam, v = 0.75, 0.5
        s = solve_robust_utility(density, loss, lam, v, 1.0)
        kernel = _RobustKernel(density, loss, lam, 1.0, DEFAULT_TOLERANCES)
        lo, top = kernel.floor_range(v)
        grid_risks = []
        for beta in map(float, np.linspace(lo, top, 201)):
            c = kernel.solve_c(beta, v)
            payoff = CappedInverse(beta, c, loss.derivative(beta) / c, 1.0, loss)
            grid_risks.append(robust_risk(loss, lam, payoff, density))
        assert s.risk <= min(grid_risks) + 1e-10

    @pytest.mark.parametrize("loss", [Exponential(1.0), Power(2.0)], ids=["exp", "pow"])
    def test_inner_solve_count(self, loss):
        s = solve_robust_utility(UNIF, loss, 0.75, 0.5, 1.0)
        assert s.diagnostics["floor"] == "interior"
        assert s.diagnostics["inner_root_solves"] <= 40

    def test_budget_floor_below_sharp_prior_bound(self):
        # ess sup phi = 1.5 < 1/lam = 2: the constant claim is optimal
        d = Uniform(0.5, 1.5)
        loss = Exponential(1.0)
        s = solve_robust_utility(d, loss, 0.5, 0.5, 1.0)
        assert s.diagnostics["floor"] == "budget"
        assert s.risk == pytest.approx(robust_risk(loss, 0.5, Constant(0.5), d), abs=1e-8)


class TestCriticalValueRobust:
    def test_rejects_lambda_one(self):
        with pytest.raises(InvalidParameter):
            critical_value_robust(UNIF, Exponential(1.0), 1.0, 1.0)

    def test_defining_property_nondegenerate(self):
        loss = Exponential(1.0)
        lam = 0.75
        v_c = critical_value_robust(UNIF, loss, lam, 1.0)
        bound = UNIF.tail_capital(UNIF.quantile(1.0 - lam))
        assert 0.0 < v_c < bound
        below = solve_robust_utility(UNIF, loss, lam, 0.99 * v_c, 1.0)
        above = solve_robust_utility(UNIF, loss, lam, 1.01 * v_c, 1.0)
        assert below.params["beta"] <= 1e-6
        assert above.params["beta"] > 1e-6


class TestSolveShifted:
    def test_zero_budget(self):
        s = solve_shifted(UNIF, Exponential(1.0), 0.75, 0.0, 1.0, 1.0)
        assert isinstance(s.payoff, Constant) and s.payoff.level == 0.0
        assert s.risk == pytest.approx(-math.log(1.0), abs=1e-9)  # -l^{-1}(x0)

    def test_fixed_point_reports_consistent_risk(self):
        s = solve_shifted(UNIF, Exponential(1.0), 0.75, 0.3, 1.0, 1.0)
        assert s.diagnostics["last_residual"] <= 1e-8
        sr = shifted_risk(Exponential(1.0), 0.75, 1.0, s.payoff, UNIF)
        assert sr == pytest.approx(s.risk, abs=1e-7)
        assert abs(s.budget_residual) <= 1e-8

    def test_translation_consistency(self):
        loss = Exponential(1.0)
        s = solve_shifted(UNIF, loss, 0.75, 0.3, 1.0, 1.0)
        p = s.payoff
        assert isinstance(p, CappedInverse)
        t = 0.2
        lifted = CappedInverse(p.beta + t, p.c, p.y, p.cap + t, p.loss)
        lifted_risk = shifted_risk(loss, 0.75, 1.0, lifted, UNIF)
        assert lifted_risk == pytest.approx(s.risk + t, abs=1e-7)

    def test_sharper_prior_flattens_multiplier(self):
        loss = Exponential(1.0)
        g_half = solve_shifted(UNIF, loss, 0.5, 0.3, 1.0, 1.0).params["gamma"]
        g_34 = solve_shifted(UNIF, loss, 0.75, 0.3, 1.0, 1.0).params["gamma"]
        g_one = solve_shifted(UNIF, loss, 1.0, 0.3, 1.0, 1.0).params["gamma"]
        assert g_half < g_one
        assert g_34 < g_one

    def test_plq_density_matches_robust_claim(self):
        d = PiecewiseLinearQuantile((0.0, 0.5, 1.0), (0.2, 0.8, 2.2))
        loss = Exponential(1.5)
        s = solve_shifted(d, loss, 0.6, 0.4, 1.0, 1.0)
        r = solve_robust_utility(d, loss, 0.6, 0.4, 1.0)
        assert s.regime == "diversified"
        grid = np.linspace(0.2, 2.2, 401)
        gap = max(abs(s.payoff.value(x) - r.payoff.value(x)) for x in grid)
        assert gap <= 1e-12
        # entropic certainty equivalent: R = (1/a) log(robust risk / x0)
        assert s.risk == pytest.approx(math.log(r.risk / 1.0) / 1.5, abs=1e-9)


class TestSolveVar:
    def test_zero_risk_branch(self):
        s = solve_var(UNIF, 0.25, 0.3)
        assert s.regime == "boundary"
        assert s.risk == 0.0
        assert s.params["b"] == pytest.approx(2.0 * math.sqrt(0.7), abs=1e-9)
        assert abs(s.budget_residual) <= 1e-10

    def test_budget_branch(self):
        s = solve_var(UNIF, 0.25, 0.6)
        r = (0.6 - 0.4375) / 0.5625
        assert s.risk == pytest.approx(r, abs=1e-12)
        assert var_risk(0.25, s.payoff, UNIF) == pytest.approx(r, abs=1e-12)

    def test_full_budget(self):
        s = solve_var(UNIF, 0.25, 1.0)
        assert isinstance(s.payoff, Constant) and s.payoff.level == 1.0
        assert s.risk == 1.0


class TestRiskCurve:
    def test_avar_closed_form_grid(self):
        spec = ProblemSpec(AVaRMeasure(0.75), UNIF, 0.0)
        grid = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
        result = risk_curve(spec, grid)
        expect = [
            0.0,
            (1.0 - math.sqrt(0.75)) / 0.75,
            (1.0 - math.sqrt(0.5)) / 0.75,
            2.0 / 3.0,
            13.0 / 15.0,
            1.0,
        ]
        assert result.risks() == pytest.approx(expect, abs=1e-9)
        assert result.monotone and result.convexity == "ok"

    def test_branch_continuity_at_critical_budget(self):
        lam = 0.75
        y = y_lambda(UNIF, lam)
        v_l = 1.0 - float(UNIF.capital_integral(y))
        z = UNIF.z_of_v(v_l)
        c_l = (y + lam - 1.0) / float(UNIF.capital_integral(y))
        assert abs((1.0 - z) / lam - (1.0 - c_l * (1.0 - v_l) / lam)) <= 1e-9

    def test_var_curve_skips_convexity(self):
        spec = ProblemSpec(VaRMeasure(0.25), UNIF, 0.0)
        result = risk_curve(spec, list(np.linspace(0.0, 1.0, 9)))
        assert result.convexity == "skipped"
        risks = result.risks()
        assert risks[0] == 0.0 and risks[-1] == 1.0
        assert all(b >= a - 1e-12 for a, b in zip(risks[:-1], risks[1:]))

    def test_endpoint_grid(self):
        spec = ProblemSpec(AVaRMeasure(0.75), UNIF, 0.0)
        result = risk_curve(spec, [0.0, 1.0])
        assert result.risks() == pytest.approx([0.0, 1.0])

    def test_rejects_unsorted_grid(self):
        spec = ProblemSpec(AVaRMeasure(0.75), UNIF, 0.0)
        with pytest.raises(InvalidParameter):
            risk_curve(spec, [0.5, 0.2])


class TestHuberStrassen:
    def test_values(self):
        assert huber_strassen_pi(UNIF, 0.75, 0.2) == pytest.approx(0.75, abs=1e-9)
        assert huber_strassen_pi(UNIF, 0.75, 1.0) == pytest.approx(0.75, abs=1e-9)
        assert huber_strassen_pi(UNIF, 0.75, 2.0) == pytest.approx(1.5, abs=1e-9)

    def test_rejects_bounded_case(self):
        with pytest.raises(InvalidParameter):
            huber_strassen_pi(UNIF, 0.5, 1.0)  # 1/lam = 2 >= ess sup


class TestDispatchAndScaling:
    def test_cap_scaling_avar(self):
        spec = ProblemSpec(AVaRMeasure(0.75), UNIF, 1.8, cap=2.0)
        s = solve_problem(spec)
        base = solve_avar(UNIF, 0.75, 0.9)
        assert s.risk == pytest.approx(2.0 * base.risk, abs=1e-9)
        assert price(s.payoff, UNIF) == pytest.approx(1.8, abs=1e-9)
        assert s.params["beta"] == pytest.approx(1.2, abs=1e-8)

    def test_cap_scaling_quantile(self):
        spec = ProblemSpec(QuantileMeasure(two_level_weight(0.6, 0.5)), UNIF, 1.4, cap=2.0)
        s = solve_problem(spec)
        base = solve_quantile_based(UNIF, two_level_weight(0.6, 0.5), 0.7)
        assert s.risk == pytest.approx(2.0 * base.risk, abs=1e-8)

    def test_problem_spec_validation(self):
        with pytest.raises(InvalidParameter):
            ProblemSpec(AVaRMeasure(0.5), UNIF, 1.5, cap=1.0)
        with pytest.raises(InvalidParameter):
            ProblemSpec(AVaRMeasure(0.5), Uniform(0.0, 3.0), 0.5)


def _unbounded_density():
    base = PiecewiseLinearQuantile((0.0, 0.85), (0.1, 1.0), tail_theta=0.5)
    scale = 1.0 / base.mean()
    return PiecewiseLinearQuantile((0.0, 0.85), (0.1 * scale, scale), tail_theta=0.5 * scale)


class TestUnboundedDensity:
    """With an unbounded model the sharp-prior degeneracy never occurs: the
    critical level is interior for every lambda and the two-regime structure
    holds at all tail levels."""

    d = _unbounded_density()

    def test_interior_critical_level_for_all_lambdas(self):
        for lam in (0.2, 0.5, 0.75):
            y = y_lambda(self.d, lam)
            assert 1.0 - lam < y < 1.0
            s = solve_avar(self.d, lam, 0.97)
            assert s.regime == "diversified"
            assert avar_risk(lam, s.payoff, self.d) == pytest.approx(s.risk, abs=1e-9)

    def test_robust_solver_matches_oracle(self):
        loss = Exponential(1.0)
        atoms = discretize(self.d, 1000)
        for v in (0.3, 0.9):
            s = solve_robust_utility(self.d, loss, 0.5, v, 1.0)
            o = oracle_robust(DiscreteInstance(atoms, v, 1.0), loss, 0.5)
            assert abs(s.risk - o.risk) <= 2e-3
            assert abs(s.budget_residual) <= 1e-8

    def test_quantile_solver_matches_oracle(self):
        from riskclaim import oracle_quantile_based

        k = two_level_weight(0.7, 0.4)
        s = solve_quantile_based(self.d, k, 0.8)
        inst = DiscreteInstance(discretize(self.d, 1000), 0.8, 1.0)
        assert abs(s.risk - oracle_quantile_based(inst, k).risk) <= 2e-3


class TestTailDensityBudget:
    """The rising part of a robust claim can reach deep into an exponential
    tail; its price is checked by quadrature in density space."""

    def test_claim_rising_deep_into_the_tail(self):
        d = found_tail_density()
        s = solve_robust_utility(d, Exponential(1.799), 0.4718, 0.1646)
        assert abs(quad_price(s.payoff, d) - 0.1646) <= 1e-10

    @pytest.mark.parametrize("seed", range(12, 18))
    def test_seeded_tail_densities(self, seed):
        rng = np.random.default_rng([seed, 99])
        d = random_tail_density(rng)
        loss = Exponential(rng.uniform(0.5, 2.0)) if seed % 2 == 0 else Power(rng.uniform(1.5, 3.0))
        lam, v = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.05, 0.95))
        s = solve_robust_utility(d, loss, lam, v)
        assert abs(quad_price(s.payoff, d) - v) <= 1e-9


class TestSolverInvariants:
    def test_quantile_solver_matches_oracle(self):
        from riskclaim import DiscreteInstance, discretize, oracle_quantile_based
        from conftest import random_weight

        rng = np.random.default_rng(99)
        for _ in range(8):
            d = random_continuous_density(rng)
            k = random_weight(rng)
            v = float(rng.uniform(0.05, 0.95))
            s = solve_quantile_based(d, k, v)
            inst = DiscreteInstance(discretize(d, 2000), v, 1.0)
            o = oracle_quantile_based(inst, k)
            assert abs(s.risk - o.risk) <= 2e-3

    def test_budget_binding_and_monotone_payoffs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = random_continuous_density(rng)
            v = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.1, 1.0))
            s = solve_avar(d, lam, v)
            assert abs(price(s.payoff, d) - v) <= 1e-8
            xs = np.linspace(0.0, d.quantile(0.999), 31)
            vals = [s.payoff.value(float(x)) for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))

    def test_solution_serialization(self):
        s = solve_avar(UNIF, 0.75, 0.9)
        doc = s.to_dict()
        assert doc["regime"] == "diversified"
        assert doc["payoff"]["variant"] == "two_step"
        assert isinstance(doc["params"], dict)
