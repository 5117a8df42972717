"""Correctness checks, run after the timed phase.

Each check returns a list of failure names; an empty list means the result
holds. Nothing here compares against stored solver output. Prices are
integrated in quantile space by the benchmark's own Gauss-Legendre rule,
risk bounds come from the feasible constant claim, and the gap is taken to
the brute-force oracle on a discretized density, which shares no code with
the solvers.
"""

from __future__ import annotations

import math

import numpy as np

import riskclaim as rc

BUDGET_TOL = 1e-8  # |price - v| <= BUDGET_TOL * cap
BOUND_TOL = 1e-8  # slack on the risk bounds, relative to max(1, |bound|)
RESCORE_TOL = {"shifted": 1e-7}  # the damped fixed point stops at 1e-8
RESCORE_DEFAULT_TOL = 1e-9
ORACLE_GAP_TOL = 2e-3
ORACLE_ATOMS = {"avar": 2000, "quantile": 2000, "robust": 300, "shifted": 1000}
SHIFTED_LEVEL_TOL = 1e-5
CLI_REEVAL_TOL = 1e-12
SAMPLE_LEVELS = np.linspace(0.0, 1.0, 257)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _gauss(g, a: float, b: float) -> float:
    """Gauss-Legendre on panels graded toward t = 1: each panel halves the
    distance 1 - t, so an upper tail with q(t) ~ log(1 / (1 - t)) stays
    smooth on every panel."""
    edges = [a]
    while 1.0 - 0.5 * (1.0 - edges[-1]) < b and len(edges) < 64:
        edges.append(1.0 - 0.5 * (1.0 - edges[-1]))
    edges.append(b)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        ts = 0.5 * (lo + hi) + half * _GL_X
        total += half * float(np.dot(_GL_W, [g(float(t)) for t in ts]))
    return total


def claim_price(payoff, d) -> float:
    """E[phi f(phi)] = int_0^1 q(t) f(q(t)) dt, from the density's primitives.

    Flat stretches of the payoff cost level * (Phi(t1) - Phi(t0)); a rising
    stretch is integrated by Gauss-Legendre between quantile kinks.
    """
    phi = lambda t: float(d.capital_integral(min(max(t, 0.0), 1.0)))
    mean = d.mean()
    if isinstance(payoff, rc.Constant):
        return payoff.level * mean
    if isinstance(payoff, rc.TwoStep):
        ta = float(d.cdf(payoff.a)) if payoff.a > 0.0 else 0.0
        tb = float(d.cdf(payoff.b)) if math.isfinite(payoff.b) else 1.0
        return payoff.beta * (phi(tb) - phi(ta)) + payoff.cap * (mean - phi(tb))
    if isinstance(payoff, rc.CappedInverse):
        lo, hi = payoff.rise_interval()
        t1 = float(d.cdf(lo))
        # q(1) may be infinite; the last 1e-15 of levels costs below 1e-13
        t2 = min(float(d.cdf(hi)) if math.isfinite(hi) else 1.0, 1.0 - 1e-15)
        flat = payoff.value(0.0) * phi(t1) + payoff.cap * (mean - phi(t2))
        return flat + _rising(payoff, d, t1, t2)
    return _rising(payoff, d, 0.0, 1.0 - 1e-15)


def _rising(payoff, d, t1: float, t2: float) -> float:
    if t2 <= t1:
        return 0.0
    cuts = [t1] + [k for k in d.quantile_kink_levels() if t1 < k < t2] + [t2]
    g = lambda t: float(d.quantile(t)) * payoff.value(float(d.quantile(t)))
    return sum(_gauss(g, a, b) for a, b in zip(cuts[:-1], cuts[1:]))


def payoff_failures(payoff, d, cap: float) -> list[str]:
    """The claim must be increasing in phi and stay in [0, cap]."""
    xs = sorted(
        {float(d.quantile(float(t))) for t in SAMPLE_LEVELS[:-1]}
        | {x * s for x in payoff.breakpoints() for s in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)}
    )
    vals = np.asarray([payoff.value(x) for x in xs])
    fails = []
    if np.any(np.diff(vals) < -1e-12 * cap):
        fails.append("payoff_not_increasing")
    if vals.min() < -1e-12 * cap or vals.max() > cap * (1.0 + 1e-12):
        fails.append("payoff_out_of_range")
    return fails


def constant_claim_risk(solver: str, v: float, cap: float, loss=None, x0=None) -> float:
    """Risk of Constant(v), which is feasible: it costs v * E[phi] = v."""
    if solver in ("avar", "var", "quantile"):
        return v
    if solver == "robust":
        return loss.value(v)
    # shifted, exponential loss: exp(a (v - m)) = x0
    return v - math.log(x0) / loss.a


def claim_failures(payoff, d, v: float, cap: float, risk: float, bound: float) -> list[str]:
    """Budget binds, claim increasing in [0, cap], risk in [0, bound]."""
    fails = []
    if not abs(claim_price(payoff, d) - v) <= BUDGET_TOL * cap:
        fails.append("budget")
    fails += payoff_failures(payoff, d, cap)
    slack = BOUND_TOL * max(1.0, abs(bound))
    if not (-slack <= risk <= bound + slack):
        fails.append("risk_bounds")
    return fails


def rescore(op, payoff) -> float:
    """The measure's own evaluator on the returned claim."""
    if op.solver == "avar":
        return rc.avar_risk(op.lam, payoff, op.density)
    if op.solver == "var":
        return rc.var_risk(op.lam, payoff, op.density)
    if op.solver == "quantile":
        return rc.quantile_risk(op.weight, payoff, op.density)
    if op.solver == "robust":
        return rc.robust_risk(op.loss, op.lam, payoff, op.density)
    return rc.shifted_risk(op.loss, op.lam, op.x0, payoff, op.density)


def oracle_risk(op) -> float | None:
    """Brute-force optimum on n equal-probability atoms, or None where the
    oracle does not apply (VaR) or n atoms cannot resolve the budget."""
    n = ORACLE_ATOMS.get(op.solver)
    if n is None or min(op.v, op.cap - op.v) < 2.0 * op.cap / n:
        return None
    atoms = rc.discretize(op.density, n)
    if op.solver in ("robust", "shifted"):
        return rc.oracle_robust(rc.DiscreteInstance(atoms, op.v, op.cap), op.loss, op.lam).risk
    weight = rc.avar_weight(op.lam) if op.solver == "avar" else op.weight
    return rc.oracle_quantile_based(rc.DiscreteInstance(atoms, op.v, 1.0), weight).risk


def shifted_level_failures(level: float, robust_oracle: float, a: float, x0: float) -> list[str]:
    """Entropic identity: the optimal shifted level is (1/a) log(rho*/x0),
    with rho* the optimal worst-case expected exp(a X)."""
    expected = math.log(robust_oracle / x0) / a
    return [] if abs(level - expected) <= SHIFTED_LEVEL_TOL else ["shifted_level"]


def solution_failures(op, sol, oracle: float | None) -> list[str]:
    """All checks for one in-process solver result."""
    bound = constant_claim_risk(op.solver, op.v, op.cap, op.loss, op.x0)
    fails = claim_failures(sol.payoff, op.density, op.v, op.cap, sol.risk, bound)
    tol = RESCORE_TOL.get(op.solver, RESCORE_DEFAULT_TOL)
    if not abs(rescore(op, sol.payoff) - sol.risk) <= tol * max(1.0, abs(sol.risk)):
        fails.append("rescore")
    if oracle is not None:
        if op.solver == "shifted":
            fails += shifted_level_failures(sol.risk, oracle, op.loss.a, op.x0)
        elif not abs(sol.risk - oracle) <= ORACLE_GAP_TOL:
            fails.append("oracle_gap")
    return fails


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def solve_doc_failures(doc: dict) -> list[str]:
    """A `solve` document: claim checks plus re-evaluation to 1e-12."""
    from riskclaim.cli import reevaluate_solution

    measure = rc.measure_from_dict(doc["measure"])
    density = rc.density_from_dict(doc["density"])
    payoff = rc.payoff_from_dict(doc["payoff"])
    v, cap, risk = float(doc["v"]), float(doc["cap"]), float(doc["risk"])
    kind = {rc.AVaRMeasure: "avar", rc.VaRMeasure: "var", rc.QuantileMeasure: "quantile"}.get(
        type(measure), "robust"
    )
    bound = constant_claim_risk(kind, v, cap, getattr(measure, "loss", None))
    fails = claim_failures(payoff, density, v, cap, risk, bound)
    _, again = reevaluate_solution(doc)
    if not abs(again - risk) <= CLI_REEVAL_TOL * max(1.0, abs(risk)):
        fails.append("reevaluate")
    return fails


def verify_report_failures(report: dict) -> list[str]:
    return [] if report.get("pass") is True else ["verify_not_pass"]


def curve_failures(csv_text: str, sidecar: dict, convex: bool, n_points: int) -> list[str]:
    rows = csv_text.strip().splitlines()[1:]
    fails = []
    if len(rows) != n_points or any("NA" in row.split(",") for row in rows):
        fails.append("curve_rows")
    if sidecar.get("monotone") is not True or sidecar.get("failed_points"):
        fails.append("curve_monotone")
    convexity = sidecar.get("convexity", "")
    if (convexity != "ok") if convex else not convexity.startswith("skipped"):
        fails.append("curve_convexity")
    return fails
