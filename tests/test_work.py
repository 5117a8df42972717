"""Work ceilings: root evaluations per canonical solve on U(0,2).

Wall time spreads too widely on a shared machine to catch a slowdown; the
number of times a solve evaluates the functions it hands to `root_bracketed`
is deterministic. Each ceiling is about 1.5 times today's count, so a change
that doubles the work of any one solve fails here. Lowering a ceiling is
always welcome; raising one is a deliberate decision to be recorded with its
reason.
"""

import pytest

import riskclaim.densities as densities
import riskclaim.numerics as numerics
import riskclaim.solvers as solvers
from riskclaim import (
    Exponential,
    Power,
    Uniform,
    critical_value_robust,
    solve_avar,
    solve_quantile_based,
    solve_robust_utility,
    solve_shifted,
    solve_var,
    two_level_weight,
)

UNIF = Uniform(0.0, 2.0)

# solve, ceiling (today's count in the comment)
CEILINGS = {
    "avar": (lambda: solve_avar(UNIF, 0.75, 0.9), 15),  # 10
    "var": (lambda: solve_var(UNIF, 0.25, 0.5), 12),  # 8
    "rho_k": (lambda: solve_quantile_based(UNIF, two_level_weight(0.6, 0.5), 0.7), 14),  # 9
    "robust_exp": (lambda: solve_robust_utility(UNIF, Exponential(1.0), 0.75, 0.5), 135),  # 90
    "robust_pow": (lambda: solve_robust_utility(UNIF, Power(2.0), 0.75, 0.5), 135),  # 90
    "shifted": (lambda: solve_shifted(UNIF, Exponential(1.0), 0.75, 0.5, 1.0), 135),  # 90
    "critical_value": (lambda: critical_value_robust(UNIF, Exponential(1.0), 0.75), 120),  # 81
}


@pytest.fixture
def root_evaluations(monkeypatch):
    """A one-element list counting every call of a root-finder's callable."""
    count = [0]
    find_root = numerics.root_bracketed

    def counting(f, *args, **kwargs):
        def counted(x):
            count[0] += 1
            return f(x)

        return find_root(counted, *args, **kwargs)

    for module in (solvers, densities):
        monkeypatch.setattr(module, "root_bracketed", counting)
    return count


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_root_evaluations_stay_under_ceiling(name, root_evaluations):
    solve, ceiling = CEILINGS[name]
    solve()
    assert 0 < root_evaluations[0] <= ceiling
