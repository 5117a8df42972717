"""Independent brute-force solvers on discretized densities.

Nothing here consults the closed-form machinery: the two-step search rests
only on prefix sums of the atoms, and the convex search pools the atoms once
by a pool-adjacent-violators pass on their ratios, then bisects on the
Lagrange multiplier over the pooled blocks. That keeps the oracle usable as
ground truth for the solvers module.

The two-step enumeration is justified by the structure of the feasible set:
the extreme points of {increasing f, 0 <= f <= 1, E[phi f(phi)] = v} are
exactly the payoffs taking at most one value strictly between 0 and the
cap, so the optimum of a linear (quantile-weighted) objective lives among
candidates with breakpoints at atom values and a budget-determined middle
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .densities import EmpiricalDiscrete, PriceDensity
from .errors import Infeasible, InvalidParameter, NonConvergence
from .measures import LossFunction, Payoff, StepVector, TwoStep, WeightFunction

BUDGET_TOL = 1e-9
_BETA_SLACK = 1e-12


def discretize(d: PriceDensity, n: int) -> EmpiricalDiscrete:
    """n equal-probability atoms at cell-conditional means of the quantile.

    phi_i = n * (Phi(i/n) - Phi((i-1)/n)) reproduces E[phi] exactly by
    telescoping and prices digital claims at cell boundaries without any
    discretization error, which keeps oracle/solver comparisons sharp.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParameter(f"discretization needs an integer n >= 2, got {n}")
    edges = np.linspace(0.0, 1.0, n + 1)
    phi = np.asarray(d.capital_integral(edges))
    values = n * np.diff(phi)
    probs = np.full(n, 1.0 / n)
    return EmpiricalDiscrete(tuple(values.tolist()), tuple(probs.tolist()))


@dataclass(frozen=True)
class DiscreteInstance:
    """Atoms plus the problem data (budget, cap) the oracle searches under."""

    density: EmpiricalDiscrete
    budget: float
    cap: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget <= self.cap:
            raise InvalidParameter(
                f"budget must lie in [0, cap], got {self.budget} with cap {self.cap}"
            )
        v = np.asarray(self.density.values)
        if np.any(v <= 0.0):
            raise InvalidParameter("atoms must be strictly positive")
        if np.any(np.diff(v) <= 0.0):
            raise InvalidParameter("atoms must be strictly ascending")
        psum = float(np.sum(self.density.probs))
        if abs(psum - 1.0) > BUDGET_TOL:
            raise InvalidParameter(f"atom probabilities must sum to 1, got {psum}")
        if abs(self.density.mean() - 1.0) > BUDGET_TOL:
            raise InvalidParameter(
                f"atom mean must be 1 within {BUDGET_TOL}, got {self.density.mean()}"
            )

    @property
    def n_atoms(self) -> int:
        return self.density.n_atoms


@dataclass(frozen=True)
class OracleQuantileResult:
    risk: float
    payoff: TwoStep
    beta: float
    zero_prefix: int  # atoms below this index pay 0
    cap_suffix: int  # atoms from this index on pay the cap
    price: float
    levels: tuple[float, ...] = field(repr=False, default=())


def oracle_quantile_based(
    inst: DiscreteInstance, k: WeightFunction, chunk: int = 256
) -> OracleQuantileResult:
    """Exhaustive two-step search for a quantile-weighted measure (cap = 1).

    Enumerates every split 0 <= i < j <= n (zeros below atom i, a middle
    level on atoms i..j-1, the cap from atom j on; i = 0 or j = n give the
    degenerate one-interval families, i = j budget-permitting collapses to
    a pure indicator via beta in {0, 1}). The middle level is solved exactly
    from the budget and rejected outside [0, 1]; risk is the exact discrete
    quantile integral. First lexicographic (i, j) wins ties.
    """
    if inst.cap != 1.0:
        raise InvalidParameter("two-step oracle runs on cap-normalized instances")
    d = inst.density
    v = inst.budget
    n = d.n_atoms
    w = np.concatenate([[0.0], np.cumsum(np.asarray(d.probs) * np.asarray(d.values))])
    cells = d.cell_bounds
    g = np.asarray(k.gamma(cells))
    total_w, total_g = w[-1], g[-1]

    best = (math.inf, -1, -1, 0.0)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        i_idx = np.arange(i0, i1)[:, None]
        j_idx = np.arange(1, n + 1)[None, :]
        den = w[j_idx] - w[i_idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = (v - total_w + w[j_idx]) / den
        valid = (j_idx > i_idx) & (beta >= -_BETA_SLACK) & (beta <= 1.0 + _BETA_SLACK)
        beta = np.clip(beta, 0.0, 1.0)
        risk = beta * (g[j_idx] - g[i_idx]) + total_g - g[j_idx]
        risk = np.where(valid, risk, math.inf)
        flat = int(np.argmin(risk))
        bi, bj = divmod(flat, risk.shape[1])
        cand = float(risk[bi, bj])
        if cand < best[0]:
            best = (cand, i0 + bi, int(j_idx[0, bj]), float(beta[bi, bj]))

    risk_star, i_star, j_star, beta_star = best
    if not math.isfinite(risk_star):
        raise Infeasible("no feasible two-step candidate (budget outside [0, 1]?)")
    a = float(d.values[i_star]) if i_star > 0 else 0.0
    b = float(d.values[j_star]) if j_star < n else math.inf
    payoff = TwoStep(beta_star, a, b, 1.0)
    levels = np.full(n, beta_star)
    levels[:i_star] = 0.0
    levels[j_star:] = 1.0
    payoff_price = beta_star * (w[j_star] - w[i_star]) + (total_w - w[j_star])
    return OracleQuantileResult(
        risk_star, payoff, beta_star, i_star, j_star, payoff_price, tuple(levels.tolist())
    )


def tail_weights(d: EmpiricalDiscrete, lam: float) -> np.ndarray:
    """w_i = (1/lam) * |quantile cell of atom i  intersect  [1-lam, 1)|."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    c = d.cell_bounds
    overlap = np.clip(np.minimum(c[1:], 1.0) - np.maximum(c[:-1], 1.0 - lam), 0.0, None)
    return overlap / lam


@dataclass(frozen=True)
class OracleRobustResult:
    risk: float
    payoff: StepVector
    levels: tuple[float, ...]
    multiplier: float
    price: float
    iterations: int
    stationarity: float


def oracle_robust(
    inst: DiscreteInstance,
    loss: LossFunction,
    lam: float,
    budget_tol: float = BUDGET_TOL,
) -> OracleRobustResult:
    """Exact minimizer of sum_i w_i loss(x_i) over the monotone box with a
    linear budget.

    The Lagrangian subproblem min sum_i [w_i loss(x_i) - theta a_i x_i] over
    0 <= x_1 <= ... <= x_n <= cap separates into convex per-coordinate costs.
    A pooled block takes clip(I(theta * sa/sw), 0, cap), nondecreasing in its
    ratio sa/sw for every theta > 0, so the pooling is the weighted isotonic
    regression of a_i/w_i, computed once; the budget is then matched by
    bisection on theta, which is monotone. Stationarity is reported as the
    largest per-block KKT residual.
    """
    d = inst.density
    w = tail_weights(d, lam)
    a = np.asarray(d.probs) * np.asarray(d.values)
    cap = inst.cap
    v = inst.budget
    sw, sa, counts = _pool_ratios(w, a)
    weighted = sw > 0.0
    sw_safe = np.where(weighted, sw, 1.0)

    def block_levels(theta: float) -> np.ndarray:
        with np.errstate(over="ignore"):
            val = loss.inverse_derivative_array(theta * sa / sw_safe)
        return np.where(weighted, np.clip(val, 0.0, cap), cap if theta > 0.0 else 0.0)

    def atom_levels(theta: float) -> np.ndarray:
        return np.repeat(block_levels(theta), counts)

    def budget(theta: float) -> float:
        return float(np.dot(sa, block_levels(theta)))

    iterations = 0
    max_budget = cap * float(np.sum(a))
    if v >= max_budget - budget_tol:
        theta = math.inf
        x = np.full(d.n_atoms, cap)
    else:
        hi, b_hi = 1.0, budget(1.0)
        while b_hi < v:
            hi *= 4.0
            b_hi = budget(hi)
            iterations += 1
            if hi > 1e18:
                raise NonConvergence("budget not reachable within the multiplier range")
        lo = 0.0
        for _ in range(200):
            iterations += 1
            mid = 0.5 * (lo + hi)
            if budget(mid) < v:
                lo = mid
            else:
                hi = mid
        theta = hi
        x = atom_levels(theta)
        if abs(float(np.dot(a, x)) - v) > budget_tol:
            # land exactly on the budget by blending the bracketing fits
            x_lo = atom_levels(lo)
            b_lo, b_cur = float(np.dot(a, x_lo)), float(np.dot(a, x))
            if b_cur > b_lo:
                t = (v - b_lo) / (b_cur - b_lo)
                x = (1.0 - t) * x_lo + t * x
    x = np.maximum.accumulate(np.clip(x, 0.0, cap))
    risk = float(np.dot(w, loss.value_array(x)))
    reached = float(np.dot(a, x))
    stationarity = _kkt_residual(x, w, a, loss, theta, cap)
    payoff = StepVector(d.values, tuple(float(t) for t in x), cap)
    return OracleRobustResult(
        risk, payoff, tuple(float(t) for t in x), theta, reached, iterations, stationarity
    )


def _pool_ratios(w: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks (sum w, sum a, atom count) of the weighted isotonic regression
    of a_i/w_i with weights w_i, by pool-adjacent-violators.

    Ratios are compared by cross-multiplication, so an atom with w_i = 0
    (below the tail) has ratio +inf without a division.
    """
    blocks: list[list[float]] = []  # [sum_w, sum_a, count]
    for wi, ai in zip(w.tolist(), a.tolist()):
        blocks.append([wi, ai, 1])
        while len(blocks) >= 2 and blocks[-2][1] * blocks[-1][0] > blocks[-1][1] * blocks[-2][0]:
            last = blocks.pop()
            prev = blocks[-1]
            prev[0] += last[0]
            prev[1] += last[1]
            prev[2] += last[2]
    sw, sa, counts = zip(*blocks)
    return np.asarray(sw), np.asarray(sa), np.asarray(counts)


def _kkt_residual(
    x: np.ndarray, w: np.ndarray, a: np.ndarray, loss: LossFunction, theta: float, cap: float
) -> float:
    """Largest block-summed gradient of the Lagrangian over free blocks."""
    if not math.isfinite(theta):
        return 0.0
    starts = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    level = x[starts]
    free = (level > 0.0) & (level < cap)
    if not np.any(free):
        return 0.0
    deriv = np.asarray([loss.derivative(float(t)) for t in level[free]])
    grad = np.add.reduceat(w, starts)[free] * deriv - theta * np.add.reduceat(a, starts)[free]
    return float(np.max(np.abs(grad)))


def oracle_avar_dual(inst: DiscreteInstance, lam: float, levels: Sequence[float]) -> float:
    """Exact dual value: fill probability mass lam greedily at density 1/lam
    onto the largest payoff levels, splitting the marginal atom fractionally."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    x = np.asarray(levels, dtype=float)
    p = np.asarray(inst.density.probs)
    if x.shape != p.shape:
        raise InvalidParameter("payoff vector must have one level per atom")
    order = np.argsort(-x, kind="stable")
    remaining = lam
    value = 0.0
    for idx in order:
        take = min(float(p[idx]), remaining)
        value += take * float(x[idx])
        remaining -= take
        if remaining <= 0.0:
            break
    return value / lam


def payoff_distance(inst: DiscreteInstance, payoff: Payoff, levels: Sequence[float]) -> float:
    """Sup distance between a payoff and an oracle level vector on the atoms."""
    vals = [payoff.value(v) for v in inst.density.values]
    return float(max(abs(a - b) for a, b in zip(vals, levels)))


def verification_report(
    inst: DiscreteInstance,
    solver_risk: float,
    solver_payoff: Payoff,
    oracle_risk: float,
    oracle_levels: Sequence[float],
    tolerance: float = 2e-3,
) -> dict:
    """Solver-versus-oracle comparison in the wire format the CLI emits."""
    gap = abs(solver_risk - oracle_risk)
    return {
        "solver_risk": solver_risk,
        "oracle_risk": oracle_risk,
        "gap": gap,
        "n_atoms": inst.n_atoms,
        "payoff_distance": payoff_distance(inst, solver_payoff, oracle_levels),
        "pass": bool(gap <= tolerance),
    }
