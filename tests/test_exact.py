"""Exact optima on U(0,2), derived by hand, against the solvers.

Throughout, phi is uniform on (0, 2): P[phi in A] = |A|/2, q(t) = 2t and
Phi(y) = y**2. The cap is K = 1.

Robust risk at lam = 3/4 weighs the tail phi >= q(1/4) = 1/2, with
risk = (4/3) E[l(X); phi >= 1/2]. The optimal claim is a floor beta up to
some phi = x and l'(X) = lam c phi above it (c the budget multiplier).
Stationarity of the floor, l'(beta) P[1/2 <= phi < x] = lam c E[phi; phi < x],
with l'(beta) = lam c x where the rise starts, gives (x - 1/2)/2 = (x**2/4)/x,
so x = 1: the claim is flat up to phi = 1 and follows the inverse marginal
loss above it, for every loss.
"""

import math

import pytest

from riskclaim import (
    Exponential,
    Power,
    Uniform,
    critical_value_robust,
    solve_avar,
    solve_robust_utility,
    solve_var,
)

UNIF = Uniform(0.0, 2.0)
V_CRIT_EXP = math.log(2.0) - 3.0 / 8.0


@pytest.mark.parametrize("v", [0.05, 0.2, 0.5])
def test_power_two_floor_and_risk(v):
    """l(x) = x**2: 2X = lam c phi above phi = 1, so X = beta max(phi, 1).

    Price: beta E[phi; phi < 1] + beta E[phi**2; phi >= 1] = beta/4 + 7 beta/6
    = 17 beta/12 = v, so beta = 12 v/17. Risk: (4/3) beta**2 (P[1/2 <= phi < 1]
    + E[phi**2; phi >= 1]) = (4/3) beta**2 (1/4 + 7/6) = 17 beta**2/9
    = 16 v**2/17. The cap holds while 2 beta <= 1, i.e. v <= 17/24.
    """
    sol = solve_robust_utility(UNIF, Power(2.0), 0.75, v)
    assert sol.params["beta"] == pytest.approx(12.0 * v / 17.0, rel=1e-12, abs=0.0)
    assert sol.risk == pytest.approx(16.0 * v * v / 17.0, rel=1e-12, abs=0.0)


def test_exponential_critical_value():
    """l(x) = exp(x): exp(X) = lam c phi above phi = 1, so X = beta + log(max(phi, 1)).

    Its price is beta + E[phi log phi; phi >= 1] = beta + (1/2)(2 log 2 - 3/4),
    so the floor beta = v - v_c turns positive at v_c = log 2 - 3/8.
    """
    got = critical_value_robust(UNIF, Exponential(1.0), 0.75)
    assert got == pytest.approx(V_CRIT_EXP, abs=1e-14)


@pytest.mark.parametrize("v", [0.35, 0.5, 0.6])
def test_exponential_risk(v):
    """With X = beta + log(max(phi, 1)) and beta = v - v_c, the risk is
    (4/3) exp(beta) (P[1/2 <= phi < 1] + E[phi; phi >= 1]) = (4/3) exp(v - v_c).
    The cap holds while beta + log 2 <= 1, i.e. v <= 5/8.
    """
    sol = solve_robust_utility(UNIF, Exponential(1.0), 0.75, v)
    assert sol.risk == pytest.approx(4.0 / 3.0 * math.exp(v - V_CRIT_EXP), rel=1e-12, abs=0.0)


def test_avar_diversified():
    """AVaR at lam = 3/4: y_lam maximizes (y - 1/4)/y**2, so y_lam = 1/2 and
    q(y_lam) = 1; the critical budget is 1 - Phi(1/2) = 3/4. At v = 0.9 the
    claim is beta on phi < 1 and the cap above: beta/4 + 3/4 = 0.9 gives
    beta = 3/5, and the risk (4/3)(beta (1/2 - 1/4) + 1/2) = 13/15.
    """
    assert solve_avar(UNIF, 0.75, 0.9).risk == pytest.approx(13.0 / 15.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("v", [1e-14, 0.3, 0.9])
def test_avar_constant_claim_when_phi_is_at_most_one_over_lambda(v):
    """AVaR at lam = 1/2: ess sup phi = 2 = 1/lam, so (y - 1/2)/y**2 increases
    on (1/2, 1] and y_lam = 1. The claim is the floor beta everywhere, priced
    beta E[phi] = beta, so beta = v and the risk is v, at every budget.
    """
    assert solve_avar(UNIF, 0.5, v).risk == pytest.approx(v, rel=1e-12, abs=0.0)


def test_var_flat_level():
    """VaR at lam = 1/4 ignores the top quarter phi >= q(3/4) = 3/2, so the cap
    sits there for free (price E[phi; phi >= 3/2] = 7/16) and a flat level r
    below it raises the rest: r (1 - 7/16) = v - 7/16, so r = 1/9 at v = 1/2.
    """
    assert solve_var(UNIF, 0.25, 0.5).risk == pytest.approx(1.0 / 9.0, rel=1e-12, abs=0.0)
