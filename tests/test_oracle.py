import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskclaim import (
    DiscreteInstance,
    Exponential,
    InvalidParameter,
    Power,
    Uniform,
    avar_weight,
    discretize,
    oracle_avar_dual,
    oracle_quantile_based,
    oracle_robust,
    payoff_distance,
    price,
    verification_report,
)

from conftest import (
    random_discrete_density,
    random_plq_density,
    random_tail_density,
    random_uniform_density,
    random_weight,
    reference_oracle_robust,
)

UNIF = Uniform(0.0, 2.0)


class TestDiscretize:
    def test_two_cells(self):
        atoms = discretize(UNIF, 2)
        assert atoms.values == pytest.approx((0.5, 1.5))
        assert atoms.probs == pytest.approx((0.5, 0.5))

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameter):
            discretize(UNIF, 1)

    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_mean_exact(self, n):
        atoms = discretize(UNIF, n)
        assert atoms.mean() == pytest.approx(1.0, abs=1e-12)

    def test_boundary_digital_prices_exact(self):
        atoms = discretize(UNIF, 10)
        # indicator at a cell boundary is priced without discretization error
        b = UNIF.quantile(0.7)
        assert atoms.tail_capital(b) == pytest.approx(UNIF.tail_capital(b), abs=1e-12)


class TestOracleQuantileBased:
    def test_neyman_pearson_two_atoms(self):
        atoms = discretize(UNIF, 2)
        inst = DiscreteInstance(atoms, 0.75, 1.0)
        res = oracle_quantile_based(inst, avar_weight(1.0))
        assert res.risk == pytest.approx(0.5)
        assert res.price == pytest.approx(0.75)
        assert res.levels == pytest.approx((0.0, 1.0))

    def test_zero_budget(self):
        inst = DiscreteInstance(discretize(UNIF, 50), 0.0, 1.0)
        res = oracle_quantile_based(inst, avar_weight(0.6))
        assert res.risk == pytest.approx(0.0, abs=1e-15)

    def test_matches_closed_form_avar(self):
        inst = DiscreteInstance(discretize(UNIF, 2000), 0.9, 1.0)
        res = oracle_quantile_based(inst, avar_weight(0.75))
        assert res.risk == pytest.approx(13.0 / 15.0, abs=2e-3)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_solutions_feasible(self, seed):
        rng = np.random.default_rng(seed)
        d = random_discrete_density(rng, int(rng.integers(3, 12)))
        v = float(rng.uniform(0.0, 1.0))
        inst = DiscreteInstance(d, v, 1.0)
        res = oracle_quantile_based(inst, random_weight(rng))
        assert abs(res.price - v) <= 1e-9
        levels = np.asarray(res.levels)
        assert np.all(np.diff(levels) >= 0.0)
        assert np.all((levels >= 0.0) & (levels <= 1.0))
        assert price(res.payoff, d) == pytest.approx(v, abs=1e-9)

    def test_refinement_converges(self):
        k = avar_weight(0.75)
        risks = []
        for n in (250, 500, 1000, 2000):
            inst = DiscreteInstance(discretize(UNIF, n), 0.9, 1.0)
            risks.append(oracle_quantile_based(inst, k).risk)
        gaps = [abs(r - 13.0 / 15.0) for r in risks]
        assert gaps[-1] <= 2e-3
        assert gaps[-1] <= gaps[0] + 1e-12


class TestOracleRobust:
    def test_classical_kkt(self):
        # lam = 1: plain expected loss; the optimum matches the multiplier rule
        inst = DiscreteInstance(discretize(UNIF, 2), 0.75, 1.0)
        loss = Power(2.0)
        res = oracle_robust(inst, loss, 1.0)
        theta = res.multiplier
        for phi, x in zip(inst.density.values, res.levels):
            expect = min(max(loss.inverse_derivative(theta * phi), 0.0), 1.0)
            assert x == pytest.approx(expect, abs=1e-8)
        assert res.stationarity <= 1e-8

    def test_constant_feasibility_bound(self):
        inst = DiscreteInstance(discretize(UNIF, 200), 0.4, 1.0)
        loss = Exponential(1.0)
        res = oracle_robust(inst, loss, 0.6)
        assert res.risk <= loss.value(0.4) + 1e-10

    def test_budget_and_monotone(self):
        inst = DiscreteInstance(discretize(UNIF, 500), 0.7, 1.0)
        res = oracle_robust(inst, Exponential(1.0), 0.75)
        assert res.price == pytest.approx(0.7, abs=1e-9)
        x = np.asarray(res.levels)
        assert np.all(np.diff(x) >= -1e-15)
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_high_budget_positive_floor(self):
        inst = DiscreteInstance(discretize(UNIF, 2000), 0.95, 1.0)
        res = oracle_robust(inst, Exponential(1.0), 0.5)
        x = np.asarray(res.levels)
        assert x[0] > 0.0  # flat positive initial segment
        head = x[: len(x) // 4]
        assert np.allclose(head, head[0], atol=1e-9)


def _reference_cases() -> list:
    """Seeded instances at n <= 200: every density family, cap, lambda and loss."""
    rng = np.random.default_rng(20)
    families = {
        "uniform": lambda: discretize(random_uniform_density(rng), 200),
        "plq": lambda: discretize(random_plq_density(rng), 120),
        "tail": lambda: discretize(random_tail_density(rng), 200),
        "atoms": lambda: random_discrete_density(rng, 50),  # unequal cells straddle 1 - lam
    }
    cases = []
    for name, make in families.items():
        for i, lam in enumerate((0.05, 0.5, 1.0)):
            losses = (Exponential(float(rng.uniform(0.5, 2.0))), Power(float(rng.uniform(1.5, 3.0))))
            for j, loss in enumerate(losses):
                cap = (1.0, 2.5)[(i + j) % 2]
                v = cap * float(rng.uniform(0.05, 0.95))
                case = f"{name}-lam{lam}-{type(loss).__name__}-cap{cap}"
                cases.append(pytest.param(make(), v, cap, lam, loss, id=case))
    cases.append(pytest.param(discretize(UNIF, 60), 2.5, 2.5, 0.5, Exponential(1.0), id="max-budget"))
    return cases


class TestOracleRobustMatchesReference:
    @pytest.mark.parametrize("atoms, v, cap, lam, loss", _reference_cases())
    def test_matches_per_theta_pava(self, atoms, v, cap, lam, loss):
        inst = DiscreteInstance(atoms, v, cap)
        got = oracle_robust(inst, loss, lam)
        ref = reference_oracle_robust(inst, loss, lam)
        close = dict(rel=1e-12, abs=1e-12)
        assert got.iterations == ref.iterations
        assert got.risk == pytest.approx(ref.risk, **close)
        assert got.levels == pytest.approx(ref.levels, **close)
        assert got.price == pytest.approx(ref.price, **close)
        assert got.multiplier == pytest.approx(ref.multiplier, **close)
        assert got.stationarity == pytest.approx(ref.stationarity, **close)


class TestOracleAVaRDual:
    def test_constant(self):
        inst = DiscreteInstance(discretize(UNIF, 4), 0.5, 1.0)
        assert oracle_avar_dual(inst, 0.4, [0.3] * 4) == pytest.approx(0.3)

    def test_two_atom_half(self):
        inst = DiscreteInstance(discretize(UNIF, 2), 0.5, 1.0)
        assert oracle_avar_dual(inst, 0.5, [0.0, 1.0]) == pytest.approx(1.0)

    def test_two_atom_fractional(self):
        inst = DiscreteInstance(discretize(UNIF, 2), 0.5, 1.0)
        assert oracle_avar_dual(inst, 0.75, [0.0, 1.0]) == pytest.approx(2.0 / 3.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_primal_dual_agreement(self, seed):
        rng = np.random.default_rng(seed)
        d = random_discrete_density(rng, int(rng.integers(2, 10)))
        lam = float(rng.uniform(0.05, 1.0))
        levels = np.sort(rng.uniform(0.0, 1.0, size=d.n_atoms))
        inst = DiscreteInstance(d, 0.5, 1.0)
        dual = oracle_avar_dual(inst, lam, levels)
        c = d.cell_bounds
        widths = np.clip(np.minimum(c[1:], 1.0) - np.maximum(c[:-1], 1.0 - lam), 0.0, None)
        primal = float(np.dot(widths, levels)) / lam
        assert dual == pytest.approx(primal, abs=1e-12)


class TestDiscreteInstance:
    def test_invariants(self):
        with pytest.raises(InvalidParameter):
            DiscreteInstance(discretize(UNIF, 4), 1.5, 1.0)  # budget above cap
        from riskclaim import EmpiricalDiscrete

        skewed = EmpiricalDiscrete((0.5, 1.5), (0.25, 0.75))  # mean 1.25
        with pytest.raises(InvalidParameter):
            DiscreteInstance(skewed, 0.5, 1.0)


class TestVerificationReport:
    def test_fields_and_pass(self):
        inst = DiscreteInstance(discretize(UNIF, 100), 0.9, 1.0)
        res = oracle_quantile_based(inst, avar_weight(0.75))
        report = verification_report(inst, res.risk, res.payoff, res.risk, res.levels, 2e-3)
        assert report["pass"] and report["gap"] == 0.0
        assert report["n_atoms"] == 100
        assert report["payoff_distance"] <= 1e-12
        bad = verification_report(inst, res.risk + 0.1, res.payoff, res.risk, res.levels, 2e-3)
        assert not bad["pass"]

    def test_payoff_distance(self):
        inst = DiscreteInstance(discretize(UNIF, 10), 0.5, 1.0)
        res = oracle_quantile_based(inst, avar_weight(0.5))
        from riskclaim import Constant

        dist = payoff_distance(inst, Constant(0.0), res.levels)
        assert dist == pytest.approx(max(res.levels))
