"""Optimal contingent claims under a budget constraint, measure by measure.

The problem throughout: minimize the risk of the liability -X over claims
0 <= X <= K priced at E[phi X] = v, where every candidate is an increasing
function of the price density phi. Each measure gets its own route:

    solve_avar             closed form. Below a critical budget v_lam the
                           optimum is the cheapest digital option (the
                           classical Neyman-Pearson test); above it, a
                           risk-free floor beta plus a scaled digital.
    solve_quantile_based   two-parameter reduction: the candidate two-step
                           claims are indexed by quantile levels (x, y) with
                           budget-determined middle level beta(x, y), and
                           the risk R(x, y) is minimized over the triangle
                           0 <= x < z_v < y <= 1 by grid + refinement with
                           the boundary families checked explicitly.
    solve_robust_utility   the risk is convex in the risk-free floor beta, so
                           the optimal floor is a bracketed root of its slope
                           (or an end of the feasible range, by one sign test
                           each); for each beta an inner root-find gives the
                           multiplier c that matches the budget of
                           beta v I(c phi) ^ K on the tail.
    solve_shifted          one robust-utility solve; R re-scored by the
                           certainty-equivalent evaluator (an exponential
                           loss factors the shift out, so the robust
                           minimizer is the shifted minimizer).
    solve_var              direct budget algebra: zero risk when the budget
                           fits strictly inside the top lam-tail, otherwise
                           a flat level r below the tail plus full cap on it.

`risk_curve` maps any of these over a budget grid and checks the shape the
theory demands (continuous, strictly increasing, convex for the convex
measures). `huber_strassen_pi` exposes the least-favorable density
lam * (x v q(y_lam)) associated with the AVaR solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .densities import PriceDensity, require_solver_grade
from .errors import (
    CurveShapeViolation,
    InvalidParameter,
    NonConvergence,
    RiskclaimError,
)
from .measures import (
    AVaRMeasure,
    CappedInverse,
    Constant,
    LossFunction,
    Measure,
    Payoff,
    QuantileMeasure,
    RobustMeasure,
    Shifted,
    ShiftedMeasure,
    TwoStep,
    VaRMeasure,
    WeightFunction,
    measure_is_convex,
    price,
    robust_risk,
    shifted_risk,
)
from .numerics import (
    Bracket,
    geometric_bracket,
    minimize_1d,
    minimize_2d,
    root_bracketed,
)


_BUDGET_ROOT = 1e-10  # tolerance of the multiplier, floor and critical-budget roots
_CLASSICAL_BETA = 1e-9  # a floor or middle level this close to 0 (or 1) is classical


@dataclass(frozen=True)
class Solution:
    payoff: Payoff
    risk: float
    budget_residual: float
    regime: str  # "classical" | "diversified" | "boundary"
    params: dict
    critical_value: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "payoff": self.payoff.to_dict(),
            "risk": self.risk,
            "budget_residual": self.budget_residual,
            "regime": self.regime,
            "params": dict(self.params),
            "critical_value": self.critical_value,
            "diagnostics": dict(self.diagnostics),
        }


@dataclass(frozen=True)
class ProblemSpec:
    measure: Measure
    density: PriceDensity
    budget: float
    cap: float = 1.0

    def __post_init__(self) -> None:
        if not (self.cap > 0.0 and math.isfinite(self.cap)):
            raise InvalidParameter(f"cap must be positive, got {self.cap}")
        if not 0.0 <= self.budget <= self.cap:
            raise InvalidParameter(f"budget must lie in [0, cap], got {self.budget}")
        issues = self.density.validate()
        if issues:
            raise InvalidParameter(
                "density fails validation: " + "; ".join(i.message for i in issues)
            )


# ---------------------------------------------------------------------------
# AVaR: critical level and closed form
# ---------------------------------------------------------------------------


_Y_LAMBDA_RESIDUAL = 1e-11


def y_lambda(d: PriceDensity, lam: float) -> float:
    """Maximizer of y -> (y + lam - 1) / Phi(y) on (0, 1].

    Interior solutions solve q(y) (y + lam - 1) = Phi(y); they exist exactly
    when the density is unbounded beyond 1/lam, otherwise the boundary y = 1
    is the maximizer.
    """
    if not 0.0 < lam < 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1), got {lam}")
    require_solver_grade(d)
    if d.ess_sup() <= 1.0 / lam:
        return 1.0

    def g(y: float) -> float:
        return d.quantile(y) * (y + lam - 1.0) - float(d.capital_integral(y))

    return root_bracketed(g, Bracket(1.0 - lam, 1.0), tol=_Y_LAMBDA_RESIDUAL)


def solve_avar(d: PriceDensity, lam: float, v: float) -> Solution:
    """Closed-form optimum for average value at risk (cap normalized to 1)."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    if not 0.0 <= v <= 1.0:
        raise InvalidParameter(f"budget must lie in [0, 1], got {v}")
    require_solver_grade(d)
    if v == 0.0 or v == 1.0:
        payoff = Constant(v)
        return Solution(payoff, v, price(payoff, d) - v, "boundary", {"beta": v})

    if lam == 1.0:
        z = d.z_of_v(v)
        b0 = float(d.quantile(z))
        payoff = TwoStep(0.0, b0, b0, 1.0)
        return Solution(
            payoff,
            1.0 - z,
            price(payoff, d) - v,
            "classical",
            {"z_v": z, "b0": b0, "beta": 0.0},
        )

    y_l = y_lambda(d, lam)
    phi_y = float(d.capital_integral(y_l))
    v_l = 1.0 - phi_y
    c_l = (y_l + lam - 1.0) / phi_y
    if v <= v_l:
        z = d.z_of_v(v)
        b0 = float(d.quantile(z))
        payoff = TwoStep(0.0, b0, b0, 1.0)
        risk = (1.0 - z) / lam
        return Solution(
            payoff,
            risk,
            price(payoff, d) - v,
            "classical",
            {"z_v": z, "b0": b0, "beta": 0.0, "y_lambda": y_l, "C_lambda": c_l},
            critical_value=v_l,
        )
    beta = (v - 1.0 + phi_y) / phi_y
    b1 = float(d.quantile(y_l))
    payoff = TwoStep(beta, 0.0, b1, 1.0)
    risk = 1.0 - c_l * (1.0 - v) / lam
    return Solution(
        payoff,
        risk,
        price(payoff, d) - v,
        "diversified",
        {"beta": beta, "b1": b1, "y_lambda": y_l, "C_lambda": c_l},
        critical_value=v_l,
    )


def huber_strassen_pi(d: PriceDensity, lam: float, x: float) -> float:
    """Least-favorable density lam * (x v q(y_lam)); needs ess sup > 1/lam."""
    if x < 0.0:
        raise InvalidParameter(f"x must be nonnegative, got {x}")
    if not 0.0 < lam < 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1), got {lam}")
    require_solver_grade(d)
    if d.ess_sup() <= 1.0 / lam:
        raise InvalidParameter(
            f"least-favorable density needs ess sup phi > 1/lambda = {1.0 / lam}"
        )
    return lam * max(x, float(d.quantile(y_lambda(d, lam))))


# ---------------------------------------------------------------------------
# General quantile-weighted measures: two-parameter reduction
# ---------------------------------------------------------------------------


_TIE_WINDOW = 1e-9


def solve_quantile_based(d: PriceDensity, k: WeightFunction, v: float) -> Solution:
    """Minimize the two-step risk surface R(x, y) over the budget triangle.

    Candidates are beta(x, y) on [q(x), q(y)) and the full cap beyond q(y),
    with beta pinned by the budget. The surface is swept on a coarse grid
    with nested refinement; the boundary families x = 0, y = 1 and the
    corner (z_v, z_v) are refined separately so the known degeneracies are
    hit exactly. Ties within `_TIE_WINDOW` resolve to the lexicographically
    smallest (x, y) and all near-minimizers are reported in diagnostics.
    """
    if not 0.0 <= v <= 1.0:
        raise InvalidParameter(f"budget must lie in [0, 1], got {v}")
    require_solver_grade(d)
    if v == 0.0 or v == 1.0:
        payoff = Constant(v)
        return Solution(payoff, v, price(payoff, d) - v, "boundary", {"beta": v})

    z = d.z_of_v(v)

    def beta_of(px, py):
        num = v - 1.0 + py
        den = py - px
        return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)

    def r_vec(x, y):
        px = np.asarray(d.capital_integral(x))
        py = np.asarray(d.capital_integral(y))
        beta = beta_of(px, py)
        gx = k.gamma(x)
        gy = k.gamma(y)
        return beta * (gy - gx) + 1.0 - gy

    def r_scalar(x: float, y: float) -> float:
        return float(r_vec(np.asarray(x, float), np.asarray(y, float)))

    grid = minimize_2d(r_vec, (0.0, z), (z, 1.0), vectorized=True)
    candidates = [(grid.x, grid.y, grid.fmin)]
    candidates.append((z, z, r_scalar(z, z)))
    if z > 0.0:
        edge_y = minimize_1d(lambda y: r_scalar(0.0, y), z, 1.0)
        candidates.append((0.0, edge_y.argmin, edge_y.fmin))
        edge_x = minimize_1d(lambda x: r_scalar(x, 1.0), 0.0, z)
        candidates.append((edge_x.argmin, 1.0, edge_x.fmin))

    fmin = min(c[2] for c in candidates)
    near = sorted(c for c in candidates if c[2] <= fmin + _TIE_WINDOW)
    x_star, y_star, _ = near[0]

    phi_x = float(d.capital_integral(x_star))
    phi_y = float(d.capital_integral(y_star))
    den = phi_y - phi_x
    beta = min(max((v - 1.0 + phi_y) / den, 0.0), 1.0) if den > 0.0 else 0.0
    # score the claim actually returned, with its middle level clipped to [0, 1]
    gamma_x, gamma_y = float(k.gamma(x_star)), float(k.gamma(y_star))
    risk = beta * (gamma_y - gamma_x) + 1.0 - gamma_y
    a = float(d.quantile(x_star))
    b = float(d.quantile(y_star))
    payoff = TwoStep(beta, a, b, 1.0)
    classical = beta <= _CLASSICAL_BETA or beta >= 1.0 - _CLASSICAL_BETA or x_star == y_star
    return Solution(
        payoff,
        risk,
        price(payoff, d) - v,
        "classical" if classical else "diversified",
        {"x_star": x_star, "y_star": y_star, "beta": beta, "a": a, "b": b, "z_v": z},
        diagnostics={
            "flat_r": grid.flat,
            "grid_evaluations": grid.evaluations,
            "near_minimizers": [[c[0], c[1], c[2]] for c in near],
        },
    )


# ---------------------------------------------------------------------------
# Robust utility functionals: slope root in beta, budget root in c
# ---------------------------------------------------------------------------


class _RobustKernel:
    """Shared tail machinery for one (density, loss, lambda, cap) instance.

    Where the claim follows the inverse marginal loss it is smooth in the
    density value, so the price of that part is one sum on the density's
    `quantile_rule`, exact to roundoff and cheap inside the nested
    root-finds.
    """

    def __init__(self, d: PriceDensity, loss: LossFunction, lam: float, cap: float):
        self.d = d
        self.loss = loss
        self.cap = cap
        self.q_level = 1.0 - lam
        self.low_capital = float(d.capital_integral(self.q_level))  # E[phi; phi < q]
        self.tail_capital = d.mean() - self.low_capital
        self._solved: dict[tuple[float, float], float] = {}
        self._last_c = 1.0
        self.inner_iterations = 0

    def _cut_levels(self, beta: float, c: float) -> tuple[float, float]:
        """Quantile levels between which the claim follows I(c q(t))."""
        x1 = self.loss.derivative(beta) / c
        x2 = self.loss.derivative(self.cap) / c
        t1 = min(max(float(self.d.cdf(x1)), self.q_level), 1.0)
        t2 = min(max(float(self.d.cdf(x2)), t1), 1.0)
        return t1, t2

    def tail_price(self, beta: float, c: float) -> float:
        """E[phi f(phi); phi >= q] for f = beta v I(c phi) ^ cap."""
        t1, t2 = self._cut_levels(beta, c)
        low = beta * (float(self.d.capital_integral(t1)) - self.low_capital)
        top = self.cap * (self.d.mean() - float(self.d.capital_integral(t2)))
        if t2 <= t1:  # most probes of a low budget never reach the rising part
            return low + top
        q, w = self.d.quantile_rule(t1, t2)
        f = np.clip(self.loss.inverse_derivative_array(c * q), beta, self.cap)
        return low + float(np.dot(w, q * f)) + top

    def solve_c(self, beta: float, v: float) -> float:
        """Multiplier making the tail price hit v - beta * E[phi; phi < q].

        Solves are kept: asking again for the same (beta, v) costs nothing,
        and a new solve starts its bracket from the last multiplier found.
        """
        c = self._solved.get((beta, v))
        if c is not None:
            return c
        target = v - beta * self.low_capital
        h = lambda c: self.tail_price(beta, c) - target
        bracket = geometric_bracket(h, self._last_c, 1e-220, 1e220)
        c = root_bracketed(h, bracket, tol=_BUDGET_ROOT)
        self._solved[(beta, v)] = self._last_c = c
        self.inner_iterations += 1
        return c

    def objective_slope(self, beta: float, v: float) -> float:
        """dL/dbeta along the budget-feasible family.

        Raising the floor costs l'(beta) on [q, y) and relaxes the budget
        by E[phi; phi < y], which the multiplier absorbs; the envelope
        derivative is l'(beta) * P[q <= phi < y] - c * E[phi; phi < y].
        """
        c = self.solve_c(beta, v)
        t1, _ = self._cut_levels(beta, c)
        return self.loss.derivative(beta) * (t1 - self.q_level) - c * float(
            self.d.capital_integral(t1)
        )

    def floor_range(self, v: float) -> tuple[float, float]:
        """Lowest budget-feasible floor, and the highest floor probed.

        Below `lo` the tail alone cannot raise v. The top stays 1e-9 short
        of v: at beta = v the claim is the constant v and the multiplier is
        not identified.
        """
        top = v * (1.0 - 1e-9)
        lo = 0.0
        if self.low_capital > 1e-15:
            lo = max(0.0, (v - self.cap * self.tail_capital) / self.low_capital)
            if lo > 0.0:
                lo += 1e-9 * self.cap
        return min(lo, top), top


def solve_robust_utility(
    d: PriceDensity,
    loss: LossFunction,
    lam: float,
    v: float,
    cap: float = 1.0,
) -> Solution:
    """Optimal claim for the worst-case expected-loss functional.

    The optimum is beta v I(c* phi) ^ cap, reported as a CappedInverse with
    y = l'(beta)/c so the flat part ends exactly where the inverse marginal
    loss takes over. For each floor beta an inner root-find matches the
    tail budget; the risk L(beta) of the budget-matched claim is the value
    of a convex program after minimizing over the rest, so L is convex and
    the optimal floor is a bracketed root of its slope, to the budget
    tolerance the slope itself is computed at. One sign test per
    end of [beta_lo, v (1 - 1e-9)] catches the boundary optima first;
    `diagnostics["floor"]` says which case held: "lower" (the lowest
    feasible floor, 0 unless the tail alone cannot raise v), "budget" (the
    constant claim, up to the 1e-9 margin) or "interior".
    """
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    if not (cap > 0.0 and math.isfinite(cap)):
        raise InvalidParameter(f"cap must be positive, got {cap}")
    if not 0.0 <= v <= cap:
        raise InvalidParameter(f"budget must lie in [0, cap], got {v}")
    require_solver_grade(d)
    if v == 0.0 or v == cap:
        payoff = Constant(v)
        risk = robust_risk(loss, lam, payoff, d)
        return Solution(payoff, risk, price(payoff, d) - v, "boundary", {"beta": v})

    kernel = _RobustKernel(d, loss, lam, cap)
    beta_lo, top = kernel.floor_range(v)
    slope = lambda b: kernel.objective_slope(b, v)
    if slope(beta_lo) >= 0.0:
        beta, floor = beta_lo, "lower"
    elif slope(top) <= 0.0:
        beta, floor = top, "budget"
    else:
        # the slope carries the error of the budget root, so ask no more of it
        beta = root_bracketed(slope, Bracket(beta_lo, top), tol=_BUDGET_ROOT)
        floor = "interior"
    c = kernel.solve_c(beta, v)
    y = kernel.loss.derivative(beta) / c
    payoff = CappedInverse(beta, c, y, cap, loss)
    risk = robust_risk(loss, lam, payoff, d)
    residual = price(payoff, d) - v
    regime = "classical" if beta <= _CLASSICAL_BETA else "diversified"
    return Solution(
        payoff,
        risk,
        residual,
        regime,
        {"beta": beta, "c": c, "y": y},
        diagnostics={"inner_root_solves": kernel.inner_iterations, "floor": floor},
    )


def critical_value_robust(
    d: PriceDensity,
    loss: LossFunction,
    lam: float,
    cap: float = 1.0,
) -> float:
    """Budget level where the optimal risk-free floor turns positive.

    The floor is zero exactly while the slope of the risk at a zero floor
    is nonnegative, so the critical budget is the root in v of that slope
    on [1e-3 upper, upper (1 - 1e-9)], where upper = cap * E[phi; phi >= q]
    is the bound the diversification argument imposes. NonConvergence when
    the slope does not change sign there.
    """
    if not 0.0 < lam < 1.0:
        raise InvalidParameter(
            f"critical value defined for lambda in (0, 1) only, got {lam}"
        )
    require_solver_grade(d)
    kernel = _RobustKernel(d, loss, lam, cap)
    upper = cap * kernel.tail_capital
    lo, hi = 1e-3 * upper, upper * (1.0 - 1e-9)
    slope = lambda v: kernel.objective_slope(0.0, v)
    if slope(lo) < 0.0:
        raise NonConvergence(f"risk-free floor already positive at budget {lo:.6g}")
    if slope(hi) >= 0.0:
        raise NonConvergence(
            f"risk-free floor still zero at the tail-capital bound {upper:.6g}"
        )
    return root_bracketed(slope, Bracket(lo, hi), tol=_BUDGET_ROOT)


def solve_shifted(
    d: PriceDensity,
    loss: LossFunction,
    lam: float,
    v: float,
    x0: float,
    cap: float = 1.0,
) -> Solution:
    """Optimal claim for the translation-invariant certainty-equivalent risk.

    One robust-utility solve; R re-scored by the certainty-equivalent
    evaluator. One solve suffices because every loss defined on the reals,
    an `Exponential` or a `Shifted` exponential, factors the shift out:
    E[exp(a(X - m))] = exp(-a m) E[exp(a X)], so the level solving
    (1/lam) E[loss(X - R); tail] = x0 is R = (1/a) log(robust risk / x0),
    the entropic certainty equivalent. R is increasing in the robust risk,
    hence the robust minimizer is the shifted minimizer. A future loss on
    the reals that does not factor gets a bracketed root for R, never a
    fixed-point loop.
    """
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    if not loss.defined_on_reals:
        raise InvalidParameter("the shifted problem needs a loss defined on all reals")
    if not loss.interior_contains(x0):
        raise InvalidParameter(f"x0 = {x0} is not interior to the loss range")
    if not 0.0 <= v <= cap:
        raise InvalidParameter(f"budget must lie in [0, cap], got {v}")
    require_solver_grade(d)
    if v == 0.0 or v == cap:
        payoff = Constant(v)
        risk = shifted_risk(loss, lam, x0, payoff, d)
        return Solution(
            payoff, risk, price(payoff, d) - v, "boundary", {"alpha": v, "R": risk}
        )

    robust = solve_robust_utility(d, loss, lam, v, cap)
    level = shifted_risk(loss, lam, x0, robust.payoff, d)
    shifted = Shifted(loss, level)
    alpha, z = robust.params["beta"], robust.params["y"]
    # the multiplier of the loss shifted by R: the claim leaves its floor at z
    gamma = shifted.derivative(alpha) / z
    residual = abs(robust_risk(shifted, lam, robust.payoff, d) - x0)
    return Solution(
        robust.payoff,
        level,
        robust.budget_residual,
        robust.regime,
        {"alpha": alpha, "gamma": gamma, "z": z, "R": level},
        diagnostics={"iterations": 1, "last_residual": residual},
    )


# ---------------------------------------------------------------------------
# Value at risk: direct budget algebra
# ---------------------------------------------------------------------------


def solve_var(d: PriceDensity, lam: float, v: float) -> Solution:
    """Optimal claim under value at risk (cap normalized to 1).

    When z_v exceeds the level 1 - lam, the cheapest digital option lives
    strictly inside the top lam-tail and the risk is exactly zero (one
    canonical representative of a continuum). Otherwise the unique optimum
    is a flat level r below the tail plus the full cap on it, r pinned by
    the budget.
    """
    if not 0.0 < lam < 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1), got {lam}")
    if not 0.0 <= v <= 1.0:
        raise InvalidParameter(f"budget must lie in [0, 1], got {v}")
    require_solver_grade(d)
    if v == 0.0 or v == 1.0:
        payoff = Constant(v)
        return Solution(payoff, v, price(payoff, d) - v, "boundary", {"r": v})

    z = d.z_of_v(v)
    q_level = 1.0 - lam
    if z > q_level:
        b = float(d.quantile(z))
        payoff = TwoStep(0.0, b, b, 1.0)
        return Solution(
            payoff, 0.0, price(payoff, d) - v, "boundary", {"z_v": z, "b": b, "r": 0.0}
        )
    q_value = float(d.quantile(q_level))
    tail = float(d.tail_capital(q_value))
    r = min(max((v - tail) / (1.0 - tail), 0.0), 1.0)
    payoff = TwoStep(r, 0.0, q_value, 1.0)
    return Solution(
        payoff,
        r,
        price(payoff, d) - v,
        "classical" if r <= _CLASSICAL_BETA else "diversified",
        {"r": r, "q": q_value, "z_v": z},
    )


# ---------------------------------------------------------------------------
# Dispatch, scaling, and minimal-risk curves
# ---------------------------------------------------------------------------


def _scale_solution(sol: Solution, cap: float) -> Solution:
    """Lift a cap-1 solution to cap K by positive homogeneity."""
    if cap == 1.0:
        return sol
    p = sol.payoff
    if isinstance(p, Constant):
        payoff: Payoff = Constant(p.level * cap)
    elif isinstance(p, TwoStep):
        payoff = TwoStep(p.beta * cap, p.a, p.b, p.cap * cap)
    else:
        raise InvalidParameter(f"cannot rescale payoff type {type(p).__name__}")
    params = dict(sol.params)
    for key in ("beta", "r"):
        if key in params:
            params[key] = params[key] * cap
    return Solution(
        payoff,
        sol.risk * cap,
        sol.budget_residual * cap,
        sol.regime,
        params,
        None if sol.critical_value is None else sol.critical_value * cap,
        sol.diagnostics,
    )


def solve_problem(spec: ProblemSpec) -> Solution:
    """Route a problem spec to its solver, handling cap scaling for the
    positively homogeneous measures."""
    m, d, v, cap = spec.measure, spec.density, spec.budget, spec.cap
    if isinstance(m, AVaRMeasure):
        return _scale_solution(solve_avar(d, m.lam, v / cap), cap)
    if isinstance(m, QuantileMeasure):
        return _scale_solution(solve_quantile_based(d, m.weight, v / cap), cap)
    if isinstance(m, VaRMeasure):
        return _scale_solution(solve_var(d, m.lam, v / cap), cap)
    if isinstance(m, RobustMeasure):
        return solve_robust_utility(d, m.loss, m.lam, v, cap)
    if isinstance(m, ShiftedMeasure):
        return solve_shifted(d, m.loss, m.lam, v, m.x0, cap)
    raise InvalidParameter(f"unknown measure {type(m).__name__}")


@dataclass(frozen=True)
class CurvePoint:
    v: float
    solution: Solution | None
    error: str | None = None


@dataclass(frozen=True)
class CurveResult:
    points: tuple[CurvePoint, ...]
    monotone: bool
    convexity: str  # "ok" | "violated" | "skipped"
    max_violation: float

    def risks(self) -> list[float]:
        return [p.solution.risk for p in self.points if p.solution is not None]


_CURVE_SLACK = 1e-7


def risk_curve(
    spec: ProblemSpec, v_grid: Sequence[float], strict: bool = True
) -> CurveResult:
    """Solve along an ascending budget grid and check the curve's shape.

    Convex measures must produce a nondecreasing, discretely convex curve
    (slack `_CURVE_SLACK`); the convexity check is skipped for value at risk,
    which is not convex. Per-point solver failures are recorded, not raised.
    """
    grid = [float(v) for v in v_grid]
    if any(b < a for a, b in zip(grid[:-1], grid[1:])):
        raise InvalidParameter("budget grid must be ascending")
    if grid and (grid[0] < 0.0 or grid[-1] > spec.cap):
        raise InvalidParameter("budget grid must lie within [0, cap]")
    points: list[CurvePoint] = []
    for v in grid:
        try:
            points.append(CurvePoint(v, solve_problem(replace(spec, budget=v))))
        except RiskclaimError as exc:
            points.append(CurvePoint(v, None, f"{type(exc).__name__}: {exc}"))

    ok = [(p.v, p.solution.risk) for p in points if p.solution is not None]
    violation = 0.0
    monotone = True
    for (_, r0), (_, r1) in zip(ok[:-1], ok[1:]):
        if r1 - r0 < -_CURVE_SLACK:
            monotone = False
            violation = max(violation, r0 - r1)
    if measure_is_convex(spec.measure):
        convex = True
        for (v0, r0), (v1, r1), (v2, r2) in zip(ok[:-2], ok[1:-1], ok[2:]):
            if v1 > v0 and v2 > v1:
                bend = (r2 - r1) / (v2 - v1) - (r1 - r0) / (v1 - v0)
                if bend < -_CURVE_SLACK:
                    convex = False
                    violation = max(violation, -bend)
        convexity = "ok" if convex else "violated"
    else:
        convexity = "skipped"
    result = CurveResult(tuple(points), monotone, convexity, violation)
    if strict and (not monotone or convexity == "violated"):
        raise CurveShapeViolation(
            f"risk curve shape check failed (monotone={monotone}, "
            f"convexity={convexity}, violation={violation:.3e})"
        )
    return result
