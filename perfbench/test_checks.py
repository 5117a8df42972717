"""The benchmark's checks must reject deliberately wrong results.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench/test_checks.py)

Each test builds one right result, confirms the check accepts it, then
breaks one property and confirms the check rejects it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import riskclaim as rc  # noqa: E402

import checks  # noqa: E402
from workloads import Op  # noqa: E402

UNIF = rc.Uniform(0.0, 2.0)


class Decreasing(rc.Payoff):
    """Pays more in cheap states than in expensive ones."""

    def value(self, x: float) -> float:
        return min(max(1.0 - 0.5 * x, 0.0), 1.0)

    def max_level(self) -> float:
        return 1.0


def test_budget_off_is_rejected():
    sol = rc.solve_avar(UNIF, 0.75, 0.5)
    assert checks.claim_failures(sol.payoff, UNIF, 0.5, 1.0, sol.risk, 0.5) == []
    assert "budget" in checks.claim_failures(sol.payoff, UNIF, 0.5 + 1e-6, 1.0, sol.risk, 0.5)


def test_budget_of_a_rising_claim_is_priced():
    sol = rc.solve_robust_utility(UNIF, rc.Power(2.0), 0.75, 0.5)
    assert abs(checks.claim_price(sol.payoff, UNIF) - 0.5) <= 1e-10


def test_decreasing_payoff_is_rejected():
    sol = rc.solve_avar(UNIF, 0.75, 0.5)
    assert checks.payoff_failures(sol.payoff, UNIF, 1.0) == []
    assert "payoff_not_increasing" in checks.payoff_failures(Decreasing(), UNIF, 1.0)


def test_risk_above_constant_claim_is_rejected():
    op = Op("quantile/paper", "quantile", UNIF, 0.7, weight=rc.two_level_weight(0.6, 0.5))
    sol = op.run()
    oracle = checks.oracle_risk(op)
    assert checks.solution_failures(op, sol, oracle) == []
    wrong = replace(sol, risk=0.7 + 1e-3)
    assert "risk_bounds" in checks.solution_failures(op, wrong, oracle)


def test_shifted_level_off_by_1e_4_is_rejected():
    loss = rc.Exponential(1.0)
    op = Op("shifted", "shifted", UNIF, 0.5, lam=0.75, loss=loss, x0=1.0)
    oracle = checks.oracle_risk(op)
    # the entropic identity gives the optimal shifted level from the robust optimum
    level = math.log(rc.solve_robust_utility(UNIF, loss, 0.75, 0.5).risk)
    assert checks.shifted_level_failures(level, oracle, 1.0, 1.0) == []
    assert checks.shifted_level_failures(level + 1e-4, oracle, 1.0, 1.0) == ["shifted_level"]


def test_failed_verify_report_is_rejected():
    assert checks.verify_report_failures({"pass": True, "gap": 1e-6}) == []
    assert checks.verify_report_failures({"pass": False, "gap": 0.1}) == ["verify_not_pass"]


def test_bad_curve_is_rejected():
    csv = "v,risk,regime,beta_or_xstar\n0.1,0.1,classical,0\n0.2,0.2,classical,0\n"
    good = {"monotone": True, "convexity": "ok", "failed_points": []}
    assert checks.curve_failures(csv, good, True, 2) == []
    assert "curve_rows" in checks.curve_failures(csv.replace("0.2,0.2", "0.2,NA"), good, True, 2)
    assert "curve_monotone" in checks.curve_failures(csv, dict(good, monotone=False), True, 2)
    assert "curve_convexity" in checks.curve_failures(csv, dict(good, convexity="violated"), True, 2)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checks reject what they should")
