"""Shared generators for randomized tests, and a reference robust oracle.

Densities are always normalized to mean 1 so they satisfy the pricing
convention; payoff generators produce increasing step claims in [0, cap].
"""

from __future__ import annotations

import math

import numpy as np

from riskclaim import (
    Constant,
    DiscreteInstance,
    EmpiricalDiscrete,
    NonConvergence,
    PiecewiseLinearQuantile,
    StepVector,
    TwoStep,
    Uniform,
    WeightFunction,
    avar_weight,
    two_level_weight,
)
from riskclaim.measures import LossFunction
from riskclaim.numerics import merged_breakpoints
from riskclaim.oracle import OracleRobustResult, tail_weights


def random_uniform_density(rng: np.random.Generator) -> Uniform:
    width = rng.uniform(0.2, 1.9)
    return Uniform(1.0 - width / 2.0, 1.0 + width / 2.0)


def random_plq_density(rng: np.random.Generator, n_knots: int = 5) -> PiecewiseLinearQuantile:
    levels = np.sort(rng.uniform(0.05, 0.95, size=n_knots - 2))
    levels = np.concatenate([[0.0], levels, [1.0]])
    values = np.cumsum(rng.uniform(0.05, 1.0, size=n_knots))
    values = values - values[0] + rng.uniform(0.0, 0.3)
    mean = float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(levels)))
    values = values / mean
    return PiecewiseLinearQuantile(tuple(levels.tolist()), tuple(values.tolist()))


def random_continuous_density(rng: np.random.Generator):
    return random_uniform_density(rng) if rng.random() < 0.5 else random_plq_density(rng)


def random_discrete_density(rng: np.random.Generator, n: int) -> EmpiricalDiscrete:
    values = np.sort(rng.uniform(0.05, 3.0, size=n))
    values = values + np.arange(n) * 1e-6  # enforce strict ascent
    probs = rng.dirichlet(np.ones(n))
    probs = np.maximum(probs, 1e-4)
    probs = probs / probs.sum()
    values = values / float(np.dot(probs, values))
    return EmpiricalDiscrete(tuple(values.tolist()), tuple(probs.tolist()))


def random_weight(rng: np.random.Generator) -> WeightFunction:
    kind = rng.integers(0, 3)
    if kind == 0:
        return avar_weight(float(rng.uniform(0.1, 1.0)))
    if kind == 1:
        return two_level_weight(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.0, 0.9)))
    m = int(rng.integers(2, 6))
    thresholds = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=m - 1))])
    raw = np.cumsum(rng.uniform(0.05, 1.0, size=m))
    edges = np.concatenate([thresholds, [1.0]])
    total = float(np.dot(raw, np.diff(edges)))
    return WeightFunction(tuple(thresholds.tolist()), tuple((raw / total).tolist()))


def random_step_payoff(rng: np.random.Generator, cap: float = 1.0):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Constant(float(rng.uniform(0.0, cap)))
    if kind == 1:
        beta = float(rng.uniform(0.0, cap))
        a = float(rng.uniform(0.0, 1.5))
        b = a + float(rng.uniform(0.0, 1.5))
        return TwoStep(beta, a, b, cap)
    m = int(rng.integers(2, 6))
    points = np.cumsum(rng.uniform(0.05, 0.8, size=m))
    levels = np.sort(rng.uniform(0.0, cap, size=m))
    return StepVector(tuple(points.tolist()), tuple(levels.tolist()), cap)


def mix_payoffs(alpha: float, first, second, cap: float) -> StepVector:
    """Convex combination of two step-type payoffs as a StepVector."""
    pts = merged_breakpoints([0.0], first.breakpoints(), second.breakpoints())
    lv = tuple(alpha * first.value(p) + (1.0 - alpha) * second.value(p) for p in pts)
    return StepVector(tuple(pts), lv, cap)


def random_tail_density(rng: np.random.Generator) -> PiecewiseLinearQuantile:
    """2 to 4 knots up to a level in [0.8, 0.95], then an exponential tail."""
    n_knots = int(rng.integers(2, 5))
    top = float(rng.uniform(0.8, 0.95))
    levels = np.concatenate([[0.0], np.sort(rng.uniform(0.05, top - 0.03, size=n_knots - 2)), [top]])
    values = rng.uniform(0.0, 0.3) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=n_knots - 1))]
    )
    raw = PiecewiseLinearQuantile(
        tuple(levels.tolist()), tuple(values.tolist()), float(rng.uniform(0.1, 0.5))
    )
    return scaled_to_mean_one(raw)


def scaled_to_mean_one(d: PiecewiseLinearQuantile) -> PiecewiseLinearQuantile:
    """The mean is linear in (values, tail_theta) jointly: one scale normalizes it."""
    m = d.mean()
    theta = None if d.tail_theta is None else d.tail_theta / m
    return PiecewiseLinearQuantile(d.levels, tuple(q / m for q in d.values), theta)


def quad_price(payoff, d: PiecewiseLinearQuantile) -> float:
    """E[phi f(phi)] by scipy quad in density space, independent of quantile space.

    Between knots phi is uniform with density dt/dq; in the exponential tail
    its density is (1 - t_m)/theta * exp(-(x - q_m)/theta). Every piece is
    cut at the payoff's breakpoints.
    """
    from scipy.integrate import quad

    g = lambda x: x * payoff.value(x)
    breaks = payoff.breakpoints()

    def pieces(a: float, b: float) -> list[tuple[float, float]]:
        cuts = [a] + sorted(x for x in breaks if a < x < b) + [b]
        return list(zip(cuts[:-1], cuts[1:]))

    total = 0.0
    knots = list(zip(d.levels, d.values))
    for (t0, q0), (t1, q1) in zip(knots[:-1], knots[1:]):
        for a, b in pieces(q0, q1):
            total += quad(g, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0] * (t1 - t0) / (q1 - q0)
    if d.tail_theta is not None:
        tm, qm, theta = d.levels[-1], d.values[-1], d.tail_theta
        dens = lambda x: g(x) * (1.0 - tm) / theta * math.exp(-(x - qm) / theta)
        cuts = [qm] + sorted(x for x in breaks if x > qm)
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += quad(dens, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        total += quad(dens, cuts[-1], math.inf, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return total


def found_tail_density() -> PiecewiseLinearQuantile:
    """A plq density with an exponential tail on which the robust solver once
    missed its budget by 4.7e-6 (the rule then ran in t up to t -> 1)."""
    raw = PiecewiseLinearQuantile((0.0, 0.1074, 0.8553), (0.2330, 0.4917, 1.3404), 0.5666)
    return scaled_to_mean_one(raw)


def reference_oracle_robust(
    inst: DiscreteInstance, loss: LossFunction, lam: float, budget_tol: float = 1e-9
) -> OracleRobustResult:
    """The robust oracle with a fresh scalar pool-adjacent-violators pass at
    every multiplier, pooling on clipped block values: the reference that the
    pool-once oracle must reproduce."""
    d = inst.density
    w = tail_weights(d, lam)
    a = np.asarray(d.probs) * np.asarray(d.values)
    cap = inst.cap
    v = inst.budget

    def block_value(sw: float, sa: float, theta: float) -> float:
        if sw <= 0.0:
            return cap if theta > 0.0 else 0.0
        val = loss.inverse_derivative(theta * sa / sw)
        if val == -math.inf:
            return 0.0
        if val == math.inf:
            return cap
        return min(max(val, 0.0), cap)

    def monotone_fit(theta: float) -> np.ndarray:
        blocks: list[list[float]] = []  # [sum_w, sum_a, count, value]
        for wi, ai in zip(w, a):
            blocks.append([wi, ai, 1.0, block_value(wi, ai, theta)])
            while len(blocks) >= 2 and blocks[-2][3] > blocks[-1][3]:
                sw = blocks[-2][0] + blocks[-1][0]
                sa = blocks[-2][1] + blocks[-1][1]
                cnt = blocks[-2][2] + blocks[-1][2]
                blocks[-2:] = [[sw, sa, cnt, block_value(sw, sa, theta)]]
        return np.repeat([b[3] for b in blocks], [int(b[2]) for b in blocks])

    def budget(theta: float) -> float:
        return float(np.dot(a, monotone_fit(theta)))

    iterations = 0
    if v >= cap * float(np.sum(a)) - budget_tol:
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
        x = monotone_fit(theta)
        if abs(float(np.dot(a, x)) - v) > budget_tol:
            x_lo = monotone_fit(lo)
            b_lo, b_cur = float(np.dot(a, x_lo)), float(np.dot(a, x))
            if b_cur > b_lo:
                t = (v - b_lo) / (b_cur - b_lo)
                x = (1.0 - t) * x_lo + t * x
    x = np.maximum.accumulate(np.clip(x, 0.0, cap))
    risk = float(np.dot(w, [loss.value(float(xi)) for xi in x]))
    stationarity = 0.0
    if math.isfinite(theta):
        i = 0
        while i < len(x):
            j = i
            while j + 1 < len(x) and x[j + 1] == x[i]:
                j += 1
            if 0.0 < x[i] < cap:
                grad = sum(w[t] * loss.derivative(float(x[i])) - theta * a[t] for t in range(i, j + 1))
                stationarity = max(stationarity, abs(grad))
            i = j + 1
    levels = tuple(float(t) for t in x)
    payoff = StepVector(d.values, levels, cap)
    return OracleRobustResult(
        risk, payoff, levels, theta, float(np.dot(a, x)), iterations, stationarity
    )
