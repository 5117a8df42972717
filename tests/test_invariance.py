"""Invariance of the optimum under a change of money unit and of parametrization.

Scale equivariance: measuring money in units of 1/s multiplies the budget,
the cap and the claim by s. For l(x) = x**2 the risk then scales by s**2; for
l(x) = exp(a x) the rate a/s keeps every loss value, so the risk is unchanged.
The floor and the regime are properties of the claim's shape, so they must
not move either.

Law invariance: the risk measures see phi only through its law, so adding
redundant knots to a piecewise-linear quantile (points already on the line)
must leave every solver's risk where it was.
"""

import pytest

from riskclaim import (
    Exponential,
    PiecewiseLinearQuantile,
    Power,
    Uniform,
    solve_avar,
    solve_quantile_based,
    solve_robust_utility,
    solve_shifted,
    solve_var,
    two_level_weight,
)

UNIF = Uniform(0.0, 2.0)
PLQ = PiecewiseLinearQuantile((0.0, 0.5, 1.0), (0.2, 0.8, 2.2))  # mean 1
DENSITIES = {"uniform": UNIF, "plq": PLQ}
SCALES = [1e-9, 1e-6, 1e-3, 1e3, 1e6]


def _robust_at_scale(density, kind: str, lam: float, s: float):
    loss = Power(2.0) if kind == "pow" else Exponential(1.0 / s)
    sol = solve_robust_utility(density, loss, lam, 0.5 * s, cap=s)
    unit_risk = sol.risk / s**2 if kind == "pow" else sol.risk
    return sol, unit_risk


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("kind", ["pow", "exp"])
@pytest.mark.parametrize("lam", [0.5, 0.75])
@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_robust_solve_is_scale_equivariant(name, lam, kind, s):
    density = DENSITIES[name]
    ref, ref_risk = _robust_at_scale(density, kind, lam, 1.0)
    sol, risk = _robust_at_scale(density, kind, lam, s)
    v = 0.5 * s
    assert risk == pytest.approx(ref_risk, rel=1e-12, abs=0.0)
    assert abs(sol.budget_residual) <= 1e-9 * v
    assert sol.regime == ref.regime
    assert sol.diagnostics["floor"] == ref.diagnostics["floor"]


def _refined(levels, values, extra):
    """The same quantile function with knots added at the levels `extra`."""
    def q(t):
        for (t0, q0), (t1, q1) in zip(zip(levels, values), zip(levels[1:], values[1:])):
            if t0 <= t <= t1:
                return q0 + (q1 - q0) * (t - t0) / (t1 - t0)
        raise ValueError(t)

    ts = sorted(set(levels) | set(extra))
    return PiecewiseLinearQuantile(tuple(ts), tuple(q(t) for t in ts))


BASES = {
    "uniform": (UNIF, (0.0, 1.0), (0.0, 2.0)),
    "plq": (PLQ, PLQ.levels, PLQ.values),
}
PATTERNS = [(0.3,), (0.25, 0.5, 0.75), (0.01, 0.49, 0.51, 0.99)]

SOLVES = {
    "avar": lambda d: solve_avar(d, 0.75, 0.6),
    "rho_k": lambda d: solve_quantile_based(d, two_level_weight(0.6, 0.5), 0.7),
    "var": lambda d: solve_var(d, 0.25, 0.5),
    "robust": lambda d: solve_robust_utility(d, Exponential(1.0), 0.75, 0.5),
    "shifted": lambda d: solve_shifted(d, Exponential(1.0), 0.75, 0.5, 1.0),
}


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("solver", sorted(SOLVES))
@pytest.mark.parametrize("name", sorted(BASES))
def test_redundant_knots_leave_the_risk_unchanged(name, solver, pattern):
    base, levels, values = BASES[name]
    refined = _refined(levels, values, pattern)
    solve = SOLVES[solver]
    assert solve(refined).risk == pytest.approx(solve(base).risk, rel=1e-12, abs=1e-15)
