"""Risk measures on payoffs that are increasing functions of the price density.

Supported measures, all law-invariant:

    avar_risk       average value at risk, (1/lam) * int_{1-lam}^1 q_X(t) dt
    quantile_risk   weighted quantile integral int_0^1 k(t) q_X(t) dt for an
                    increasing right-continuous weight k with unit integral
    robust_risk     worst-case expected loss over priors with density bound
                    1/lam, which for increasing payoffs reduces to the tail
                    expectation (1/lam) * E[loss(X); phi >= q(1-lam)]
    shifted_risk    the translation-invariant modification: smallest m such
                    that the worst-case expected loss of X - m is below x0
    var_risk        value at risk, smallest m with P[X > m] <= lam

Because every payoff here is an increasing function f of phi, quantiles
compose: q_{f(phi)}(t) = f(q_phi(t)) almost everywhere. All evaluators
exploit that identity, integrating in quantile space: step payoffs are
exact sums over their quantile cells, and the rising part of a
`CappedInverse` runs on the density's own `quantile_rule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .densities import EmpiricalDiscrete, PriceDensity
from .errors import ConfigError, InvalidParameter, UnsupportedDensity
from .numerics import gauss_legendre, merged_breakpoints

WEIGHT_INTEGRAL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Weight functions (piecewise-constant, right-continuous, unit integral)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFunction:
    """k(t) = values[j] on [thresholds[j], thresholds[j+1]), nondecreasing."""

    thresholds: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        th = tuple(float(t) for t in self.thresholds)
        kv = tuple(float(k) for k in self.values)
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "values", kv)
        if len(th) != len(kv) or not th:
            raise InvalidParameter("thresholds and values must match and be nonempty")
        if th[0] != 0.0:
            raise InvalidParameter("first threshold must be 0")
        if any(b <= a for a, b in zip(th[:-1], th[1:])) or th[-1] >= 1.0:
            raise InvalidParameter("thresholds must increase strictly within [0, 1)")
        if any(k < 0.0 for k in kv):
            raise InvalidParameter("weight values must be nonnegative")
        if any(b < a for a, b in zip(kv[:-1], kv[1:])):
            raise InvalidParameter("weight values must be nondecreasing")
        edges = np.asarray(th + (1.0,))
        va = np.asarray(kv)
        cum = np.concatenate([[0.0], np.cumsum(va * np.diff(edges))])
        total = float(cum[-1])
        if abs(total - 1.0) > WEIGHT_INTEGRAL_TOL:
            raise InvalidParameter(f"weight must integrate to 1, got {total}")
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_vals", va)
        object.__setattr__(self, "_cum", cum)

    @staticmethod
    def _unit_levels(x, name: str) -> np.ndarray:
        xa = np.asarray(x, float)
        if np.any(xa < -1e-9) or np.any(xa > 1.0 + 1e-9):
            raise InvalidParameter(f"{name} argument must lie in [0, 1], got {x}")
        return np.clip(xa, 0.0, 1.0)  # roundoff excursions are clamped

    def value_at(self, t):
        """k(t), right-continuous; at t = 1 returns the final level."""
        scalar = isinstance(t, (float, int))
        ta = self._unit_levels(t, "weight")
        j = np.clip(np.searchsorted(self._edges, ta, side="right") - 1, 0, len(self._vals) - 1)
        out = self._vals[j]
        return float(out) if scalar else out

    def gamma(self, x):
        """Gamma(x) = int_0^x k(t) dt, exact piecewise-linear accumulation."""
        scalar = isinstance(x, (float, int))
        xa = self._unit_levels(x, "gamma")
        j = np.clip(np.searchsorted(self._edges, xa, side="right") - 1, 0, len(self._vals) - 1)
        out = self._cum[j] + self._vals[j] * (xa - self._edges[j])
        return float(out) if scalar else out

    def to_dict(self) -> dict:
        return {"thresholds": list(self.thresholds), "values": list(self.values)}


def avar_weight(lam: float) -> WeightFunction:
    """k = (1/lam) on [1-lam, 1), zero below; lam = 1 gives k identically 1."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    if lam == 1.0:
        return WeightFunction((0.0,), (1.0,))
    return WeightFunction((0.0, 1.0 - lam), (0.0, 1.0 / lam))


def two_level_weight(xi: float, low: float) -> WeightFunction:
    """Two levels: `low` on [0, xi), then the value that normalizes the integral."""
    if not 0.0 < xi < 1.0:
        raise InvalidParameter(f"xi must lie in (0, 1), got {xi}")
    if not 0.0 <= low <= 1.0:
        raise InvalidParameter(f"low level must lie in [0, 1], got {low}")
    high = (1.0 - low * xi) / (1.0 - xi)
    return WeightFunction((0.0, xi), (low, high))


def gamma_value(k: WeightFunction, x):
    """Gamma(x) = int_0^x k(t) dt."""
    return k.gamma(x)


# ---------------------------------------------------------------------------
# Loss functions (convex, strictly increasing) with extended inverse of the
# derivative: I(z) = (l')^{-1}(z) inside the range of l', -inf below it.
# ---------------------------------------------------------------------------


class LossFunction:
    defined_on_reals: bool = False

    def value(self, x: float) -> float:
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        raise NotImplementedError

    def inverse_derivative(self, z: float) -> float:
        raise NotImplementedError

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return np.asarray([self.value(float(t)) for t in np.ravel(x)]).reshape(np.shape(x))

    def inverse_derivative_array(self, z: np.ndarray) -> np.ndarray:
        vals = [self.inverse_derivative(float(t)) for t in np.ravel(z)]
        return np.asarray(vals).reshape(np.shape(z))

    def interior_contains(self, y: float) -> bool:
        """Whether y is an interior point of the loss range."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(LossFunction):
    """l(x) = exp(a x) on all of R."""

    a: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise InvalidParameter(f"exponential rate must be positive, got {self.a}")

    defined_on_reals = True

    def _exp(self, x: float) -> float:
        try:
            return math.exp(self.a * x)
        except OverflowError:
            raise InvalidParameter(
                f"exponential loss exp({self.a} * x) overflows at x = {x}"
            ) from None

    def value(self, x: float) -> float:
        return self._exp(x)

    def derivative(self, x: float) -> float:
        return self.a * self._exp(x)

    def inverse_derivative(self, z: float) -> float:
        if z <= 0.0:
            return -math.inf
        if math.isinf(z):
            return math.inf
        return math.log(z / self.a) / self.a

    def value_array(self, x: np.ndarray) -> np.ndarray:
        try:
            with np.errstate(over="raise"):
                return np.exp(self.a * np.asarray(x, float))
        except FloatingPointError:
            raise InvalidParameter(
                f"exponential loss exp({self.a} * x) overflows at x = {np.max(x)}"
            ) from None

    def inverse_derivative_array(self, z: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(z > 0.0, np.log(np.maximum(z, 1e-300) / self.a) / self.a, -math.inf)

    def interior_contains(self, y: float) -> bool:
        return y > 0.0

    def to_dict(self) -> dict:
        return {"kind": "exp", "a": self.a}


@dataclass(frozen=True)
class Power(LossFunction):
    """l(x) = x**p on x >= 0, p > 1."""

    p: float

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise InvalidParameter(f"power exponent must exceed 1, got {self.p}")

    defined_on_reals = False

    def _pow(self, x: float, e: float) -> float:
        if x < 0.0:
            raise InvalidParameter(f"power loss undefined for negative argument {x}")
        try:
            return x**e
        except OverflowError:
            raise InvalidParameter(f"power loss x**{self.p} overflows at x = {x}") from None

    def value(self, x: float) -> float:
        return self._pow(x, self.p)

    def derivative(self, x: float) -> float:
        return self.p * self._pow(x, self.p - 1.0)

    def inverse_derivative(self, z: float) -> float:
        if z < 0.0:
            return -math.inf
        try:
            return (z / self.p) ** (1.0 / (self.p - 1.0))
        except OverflowError:
            return math.inf

    def value_array(self, x: np.ndarray) -> np.ndarray:
        if np.any(x < 0.0):
            raise InvalidParameter("power loss undefined for negative arguments")
        try:
            with np.errstate(over="raise"):
                return x**self.p
        except FloatingPointError:
            raise InvalidParameter(
                f"power loss x**{self.p} overflows at x = {np.max(x)}"
            ) from None

    def inverse_derivative_array(self, z: np.ndarray) -> np.ndarray:
        return np.where(z >= 0.0, (np.maximum(z, 0.0) / self.p) ** (1.0 / (self.p - 1.0)), -math.inf)

    def interior_contains(self, y: float) -> bool:
        return y > 0.0

    def to_dict(self) -> dict:
        return {"kind": "pow", "p": self.p}


@dataclass(frozen=True)
class Shifted(LossFunction):
    """l_m(x) = base(x - m); inverse derivative shifts accordingly."""

    base: LossFunction
    shift: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.shift):
            raise InvalidParameter("shift must be finite")

    @property
    def defined_on_reals(self) -> bool:  # type: ignore[override]
        return self.base.defined_on_reals

    def value(self, x: float) -> float:
        return self.base.value(x - self.shift)

    def derivative(self, x: float) -> float:
        return self.base.derivative(x - self.shift)

    def inverse_derivative(self, z: float) -> float:
        base = self.base.inverse_derivative(z)
        return base + self.shift if math.isfinite(base) else base

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return self.base.value_array(x - self.shift)

    def inverse_derivative_array(self, z: np.ndarray) -> np.ndarray:
        base = self.base.inverse_derivative_array(z)
        return np.where(np.isfinite(base), base + self.shift, base)

    def interior_contains(self, y: float) -> bool:
        return self.base.interior_contains(y)

    def to_dict(self) -> dict:
        return {"kind": "shifted", "base": self.base.to_dict(), "shift": self.shift}


# ---------------------------------------------------------------------------
# Payoffs: increasing functions of the density value with range in [0, cap]
# ---------------------------------------------------------------------------


class Payoff:
    def value(self, x: float) -> float:
        raise NotImplementedError

    def value_left(self, x: float) -> float:
        """Left limit of the payoff at x."""
        return self.value(x)

    def breakpoints(self) -> list[float]:
        """Density values where the payoff changes shape (finite ones only)."""
        return []

    def max_level(self) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Payoff):
    level: float

    def __post_init__(self) -> None:
        if not (self.level >= 0.0 and math.isfinite(self.level)):
            raise InvalidParameter(f"constant payoff level must be >= 0, got {self.level}")

    def value(self, x: float) -> float:
        return self.level

    def max_level(self) -> float:
        return self.level

    def to_dict(self) -> dict:
        return {"variant": "constant", "level": self.level}


@dataclass(frozen=True)
class TwoStep(Payoff):
    """0 below a, beta on [a, b), cap from b on. b may be +inf."""

    beta: float
    a: float
    b: float
    cap: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= self.cap:
            raise InvalidParameter(f"beta must lie in [0, cap], got {self.beta}")
        if not 0.0 <= self.a <= self.b:
            raise InvalidParameter(f"need 0 <= a <= b, got a={self.a}, b={self.b}")

    def value(self, x: float) -> float:
        if x >= self.b:
            return self.cap
        if x >= self.a:
            return self.beta
        return 0.0

    def value_left(self, x: float) -> float:
        if x > self.b:
            return self.cap
        if x > self.a:
            return self.beta
        return 0.0

    def breakpoints(self) -> list[float]:
        return [p for p in (self.a, self.b) if math.isfinite(p)]

    def max_level(self) -> float:
        return self.cap if math.isfinite(self.b) else self.beta

    def to_dict(self) -> dict:
        return {"variant": "two_step", "beta": self.beta, "a": self.a, "b": self.b, "cap": self.cap}


@dataclass(frozen=True)
class StepVector(Payoff):
    """0 below the first breakpoint, then levels[j] on [b_j, b_{j+1})."""

    points: tuple[float, ...]
    levels: tuple[float, ...]
    cap: float = 1.0

    def __post_init__(self) -> None:
        pts = tuple(float(x) for x in self.points)
        lv = tuple(float(x) for x in self.levels)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "levels", lv)
        if len(pts) != len(lv) or not pts:
            raise InvalidParameter("points and levels must match and be nonempty")
        if any(b <= a for a, b in zip(pts[:-1], pts[1:])):
            raise InvalidParameter("breakpoints must be strictly ascending")
        if any(b < a for a, b in zip(lv[:-1], lv[1:])):
            raise InvalidParameter("levels must be nondecreasing")
        if lv[0] < 0.0 or lv[-1] > self.cap + 1e-12:
            raise InvalidParameter("levels must lie within [0, cap]")
        object.__setattr__(self, "_pts", np.asarray(pts))
        object.__setattr__(self, "_lvl", np.asarray(lv))

    def value(self, x: float) -> float:
        j = int(np.searchsorted(self._pts, x, side="right")) - 1
        return float(self._lvl[j]) if j >= 0 else 0.0

    def value_left(self, x: float) -> float:
        j = int(np.searchsorted(self._pts, x, side="left")) - 1
        return float(self._lvl[j]) if j >= 0 else 0.0

    def breakpoints(self) -> list[float]:
        return [p for p in self.points if math.isfinite(p)]

    def max_level(self) -> float:
        return float(self._lvl[-1])

    def to_dict(self) -> dict:
        return {
            "variant": "step_vector",
            "points": list(self.points),
            "levels": list(self.levels),
            "cap": self.cap,
        }


@dataclass(frozen=True)
class CappedInverse(Payoff):
    """beta + (I(c (x v y)) - I(c y)) ^ (cap - beta) for a loss inverse I.

    Flat at beta up to y, then follows the inverse marginal loss I(c x)
    shifted to continuity, capped at cap. Continuous in x.
    """

    beta: float
    c: float
    y: float
    cap: float
    loss: LossFunction

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise InvalidParameter(f"c must be positive, got {self.c}")
        if not 0.0 <= self.beta <= self.cap:
            raise InvalidParameter(f"beta must lie in [0, cap], got {self.beta}")
        if self.y < 0.0:
            raise InvalidParameter(f"y must be nonnegative, got {self.y}")

    def _anchor(self) -> float:
        return self.loss.inverse_derivative(self.c * self.y)

    def value(self, x: float) -> float:
        anchor = self._anchor()
        raw = self.loss.inverse_derivative(self.c * max(x, self.y))
        if not math.isfinite(anchor) or not math.isfinite(raw):
            incr = 0.0 if raw == anchor else (math.inf if raw > anchor else 0.0)
        else:
            incr = max(raw - anchor, 0.0)
        return self.beta + min(incr, self.cap - self.beta)

    def value_array(self, x: np.ndarray) -> np.ndarray:
        """`value` at every element of x."""
        anchor = self._anchor()
        raw = self.loss.inverse_derivative_array(self.c * np.maximum(x, self.y))
        with np.errstate(invalid="ignore"):
            incr = np.where(raw == anchor, 0.0, raw - anchor)
        return self.beta + np.clip(incr, 0.0, self.cap - self.beta)

    def breakpoints(self) -> list[float]:
        anchor = self._anchor()
        top = self.cap - self.beta + anchor if math.isfinite(anchor) else self.cap
        x_top = self.loss.derivative(top) / self.c if math.isfinite(top) else math.inf
        return [p for p in (self.y, x_top) if math.isfinite(p) and p > 0.0]

    def rise_interval(self) -> tuple[float, float]:
        """Density values between which the payoff strictly increases."""
        pts = self.breakpoints()
        lo = self.y
        hi = pts[-1] if len(pts) >= 1 and pts[-1] >= self.y else math.inf
        return lo, hi

    def max_level(self) -> float:
        return self.cap

    def to_dict(self) -> dict:
        return {
            "variant": "capped_inverse",
            "beta": self.beta,
            "c": self.c,
            "y": self.y,
            "cap": self.cap,
            "loss": self.loss.to_dict(),
        }


AnyPayoff = Union[Constant, TwoStep, StepVector, CappedInverse]
_STEP_PAYOFFS = (Constant, TwoStep, StepVector)


def payoff_from_dict(data: dict) -> Payoff:
    variant = data.get("variant")
    if variant == "constant":
        return Constant(float(data["level"]))
    if variant == "two_step":
        return TwoStep(float(data["beta"]), float(data["a"]), float(data["b"]), float(data["cap"]))
    if variant == "step_vector":
        return StepVector(tuple(data["points"]), tuple(data["levels"]), float(data["cap"]))
    if variant == "capped_inverse":
        return CappedInverse(
            float(data["beta"]),
            float(data["c"]),
            float(data["y"]),
            float(data["cap"]),
            loss_from_dict(data["loss"]),
        )
    raise InvalidParameter(f"unknown payoff variant {variant!r}")


def loss_from_dict(data: dict) -> LossFunction:
    kind = data.get("kind")
    if kind == "exp":
        return Exponential(float(data["a"]))
    if kind == "pow":
        return Power(float(data["p"]))
    if kind == "shifted":
        return Shifted(loss_from_dict(data["base"]), float(data["shift"]))
    raise InvalidParameter(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# Quantile-space integration shared by the evaluators
# ---------------------------------------------------------------------------


def _step_cells(d: PriceDensity, p: Payoff, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Levels of a step payoff and the quantile cuts of their cells in [lo, hi].

    The payoff takes levels[j] for t in [cuts[j], cuts[j+1]); a cell starts
    at P[phi < breakpoint], which is exact on atoms too.
    """
    pts = p.breakpoints()
    levels = [p.value(0.0)] + [p.value(x) for x in pts]
    cuts = [lo] + [min(max(float(d.cdf_left(x)), lo), hi) for x in pts] + [hi]
    return np.asarray(levels), np.asarray(cuts)


def _rise_levels(d: PriceDensity, p: CappedInverse, lo: float, hi: float) -> tuple[float, float]:
    """Quantile levels in [lo, hi] between which a CappedInverse rises."""
    lo_x, hi_x = p.rise_interval()
    t1 = min(max(float(d.cdf(lo_x)), lo), hi)
    t2 = min(max(float(d.cdf(hi_x)), t1), hi) if math.isfinite(hi_x) else hi
    return t1, t2


def _quantile_levels(
    d: PriceDensity, payoff: Payoff, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Levels of f(q(t)) on [lo, hi] and their positive weights in t.

    The cells of a step payoff, exactly. A CappedInverse is flat below and
    above its rising part, which runs on the density's rule.
    """
    if isinstance(payoff, CappedInverse):
        t1, t2 = _rise_levels(d, payoff, lo, hi)
        levels = np.asarray([payoff.beta, payoff.cap])
        weights = np.asarray([t1 - lo, hi - t2])
        if t2 > t1:
            q, w = d.quantile_rule(t1, t2)
            levels = np.concatenate([levels, payoff.value_array(q)])
            weights = np.concatenate([weights, w])
    elif isinstance(payoff, _STEP_PAYOFFS):
        levels, cuts = _step_cells(d, payoff, lo, hi)
        weights = np.diff(cuts)
    else:
        raise InvalidParameter(f"unsupported payoff type {type(payoff).__name__}")
    used = weights > 0.0
    return levels[used], weights[used]


def _transform_integral(
    d: PriceDensity,
    h: Callable[[np.ndarray], np.ndarray],
    payoff: Payoff,
    lo: float,
    hi: float,
) -> float:
    """int_{lo}^{hi} h(f(q(t))) dt with f the payoff and h vectorized.

    h is evaluated only where the weight is positive, so an empty range
    costs no evaluation.
    """
    levels, weights = _quantile_levels(d, payoff, lo, hi)
    return float(np.dot(h(levels), weights))


def price(p: Payoff, d: PriceDensity) -> float:
    """E[phi f(phi)], the cost of the claim under the pricing density."""
    if isinstance(p, Constant):
        return p.level * d.mean()
    if isinstance(p, TwoStep):
        ta = d.tail_capital(p.a)
        tb = d.tail_capital(p.b) if math.isfinite(p.b) else 0.0
        return p.beta * (ta - tb) + p.cap * tb
    if isinstance(p, StepVector):
        tails = [d.tail_capital(x) for x in p.points] + [0.0]
        return float(sum(l * (tails[j] - tails[j + 1]) for j, l in enumerate(p.levels)))
    if isinstance(p, CappedInverse):
        t1, t2 = _rise_levels(d, p, 0.0, 1.0)
        low = p.beta * float(d.capital_integral(t1))
        top = p.cap * (d.mean() - float(d.capital_integral(t2)))
        q, w = d.quantile_rule(t1, t2)
        return low + float(np.dot(w, q * p.value_array(q))) + top
    raise InvalidParameter(f"unsupported payoff type {type(p).__name__}")


# ---------------------------------------------------------------------------
# The measures
# ---------------------------------------------------------------------------


def avar_risk(lam: float, p: Payoff, d: PriceDensity) -> float:
    """(1/lam) * int_{1-lam}^1 f(q(t)) dt."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    return _transform_integral(d, lambda v: v, p, 1.0 - lam, 1.0) / lam


def quantile_risk(k: WeightFunction, p: Payoff, d: PriceDensity) -> float:
    """E[g_k(phi) f(phi)], equal to int k(t) q_{f(phi)}(t) dt."""
    if isinstance(p, Constant):
        return p.level
    if isinstance(p, _STEP_PAYOFFS):
        # exact: sum of level * Gamma-mass over the payoff's quantile cells
        levels, cuts = _step_cells(d, p, 0.0, 1.0)
        return float(np.dot(levels, np.diff(k.gamma(cuts))))
    # k is constant between thresholds: one integral per piece
    edges = k.thresholds + (1.0,)
    return sum(
        kj * _transform_integral(d, lambda v: v, p, a, b)
        for kj, a, b in zip(k.values, edges[:-1], edges[1:])
    )


def robust_risk(loss: LossFunction, lam: float, p: Payoff, d: PriceDensity) -> float:
    """(1/lam) * E[loss(f(phi)); phi >= q(1-lam)] for continuous strict CDFs."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    if not d.is_continuous_strictly_increasing:
        raise UnsupportedDensity(
            "robust_risk needs a continuous, strictly increasing CDF; "
            "use the oracle for discrete models"
        )
    return _transform_integral(d, loss.value_array, p, 1.0 - lam, 1.0) / lam


def shifted_risk(loss: LossFunction, lam: float, x0: float, p: Payoff, d: PriceDensity) -> float:
    """Smallest m with worst-case E[loss(X - m)] <= x0.

    Every loss on the reals is l(x) = exp(a(x - s)), an `Exponential`,
    possibly `Shifted` by s, so the shift factors out of
    (1/lam) * int_{1-lam}^1 l(f(q(t)) - m) dt = x0, giving
    m = M - s + (1/a) log((1/lam) int exp(a(f(q(t)) - M)) dt / x0)
    with M the largest level of f on the tail: no exponential exceeds 1 and
    the integral is at least M's weight. Exact on discrete models too, so
    oracle step-vector payoffs are scored by the same code path.
    """
    if not 0.0 < lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1], got {lam}")
    if not loss.interior_contains(x0):
        raise InvalidParameter(f"x0 = {x0} is not interior to the loss range")
    shift = 0.0
    while isinstance(loss, Shifted):
        shift += loss.shift
        loss = loss.base
    if not isinstance(loss, Exponential):
        raise InvalidParameter("shifted risk needs a loss defined on all reals")
    levels, weights = _quantile_levels(d, p, 1.0 - lam, 1.0)
    top = float(np.max(levels))
    tail_mean = float(np.dot(np.exp(loss.a * (levels - top)), weights)) / lam
    return top - shift + math.log(tail_mean / x0) / loss.a


def var_risk(lam: float, p: Payoff, d: PriceDensity) -> float:
    """Smallest m with P[f(phi) > m] <= lam."""
    if not 0.0 < lam < 1.0:
        raise InvalidParameter(f"lambda must lie in (0, 1), got {lam}")
    if isinstance(d, EmpiricalDiscrete):
        vals = np.asarray([p.value(v) for v in d.values])
        probs = np.asarray(d.probs)
        order = np.argsort(vals, kind="stable")
        vs, ps = vals[order], probs[order]
        tail = np.concatenate([np.cumsum(ps[::-1])[::-1][1:], [0.0]])
        # tail[i] = P[X > vs[i]] when duplicates collapse to their last slot
        for i in range(len(vs)):
            last = i
            while last + 1 < len(vs) and vs[last + 1] == vs[i]:
                last += 1
            if tail[last] <= lam + 1e-12:
                return float(vs[i])
        return float(vs[-1])
    return p.value_left(float(d.quantile(1.0 - lam)))


# ---------------------------------------------------------------------------
# Hardy-Littlewood bounds on E[XY] from marginal quantile tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantileTable:
    """A nondecreasing quantile function given as a step or linear table.

    Step tables: levels delimit cells, so len(levels) = len(values) + 1 with
    levels[0] = 0 and levels[-1] = 1. Linear tables: same length, value
    interpolated between (level, value) knots.
    """

    levels: tuple[float, ...]
    values: tuple[float, ...]
    kind: str = "step"

    def __post_init__(self) -> None:
        lv = tuple(float(x) for x in self.levels)
        vv = tuple(float(x) for x in self.values)
        if lv and abs(lv[-1] - 1.0) <= 1e-9 and lv[-1] != 1.0:
            lv = lv[:-1] + (1.0,)  # snap cumulative-probability roundoff
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "values", vv)
        if self.kind not in ("step", "linear"):
            raise InvalidParameter(f"kind must be 'step' or 'linear', got {self.kind!r}")
        expected = len(vv) + 1 if self.kind == "step" else len(vv)
        if len(lv) != expected or not vv:
            raise InvalidParameter("levels/values lengths inconsistent with table kind")
        if lv[0] != 0.0 or lv[-1] != 1.0:
            raise InvalidParameter("levels must span [0, 1]")
        if any(b <= a for a, b in zip(lv[:-1], lv[1:])):
            raise InvalidParameter("levels must be strictly increasing")
        if any(v < 0.0 for v in vv):
            raise InvalidParameter("quantile values must be nonnegative")
        if any(b < a for a, b in zip(vv[:-1], vv[1:])):
            raise InvalidParameter("quantile table must be nondecreasing")

    def value_at(self, t):
        """q(t) at every element of t."""
        if self.kind == "linear":
            return np.interp(t, self.levels, self.values)
        j = np.clip(np.searchsorted(self.levels, t, side="right") - 1, 0, len(self.values) - 1)
        return np.asarray(self.values)[j]

    @classmethod
    def from_empirical(cls, d: EmpiricalDiscrete) -> "QuantileTable":
        return cls(tuple(d.cell_bounds.tolist()), d.values, "step")


def hardy_littlewood_bounds(qx: QuantileTable, qy: QuantileTable) -> tuple[float, float]:
    """(antitone, comonotone) bounds on E[XY] given the two marginals.

    lower = int q_X(1-t) q_Y(t) dt, upper = int q_X(t) q_Y(t) dt; exact for
    step/linear tables because the product is piecewise quadratic between
    the merged breakpoints.
    """
    t, w = gauss_legendre(merged_breakpoints(qx.levels, qy.levels))
    upper = float(np.dot(w, qx.value_at(t) * qy.value_at(t)))
    t, w = gauss_legendre(merged_breakpoints([1.0 - t for t in qx.levels], qy.levels))
    lower = float(np.dot(w, qx.value_at(1.0 - t) * qy.value_at(t)))
    return lower, upper


# ---------------------------------------------------------------------------
# Measure descriptors (used by the solver dispatcher and the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AVaRMeasure:
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 1.0:
            raise InvalidParameter(f"lambda must lie in (0, 1], got {self.lam}")


@dataclass(frozen=True)
class QuantileMeasure:
    weight: WeightFunction


@dataclass(frozen=True)
class RobustMeasure:
    loss: LossFunction
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 1.0:
            raise InvalidParameter(f"lambda must lie in (0, 1], got {self.lam}")


@dataclass(frozen=True)
class ShiftedMeasure:
    loss: LossFunction
    lam: float
    x0: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 1.0:
            raise InvalidParameter(f"lambda must lie in (0, 1], got {self.lam}")


@dataclass(frozen=True)
class VaRMeasure:
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise InvalidParameter(f"lambda must lie in (0, 1), got {self.lam}")


Measure = Union[AVaRMeasure, QuantileMeasure, RobustMeasure, ShiftedMeasure, VaRMeasure]


def measure_risk(m: Measure, p: Payoff, d: PriceDensity) -> float:
    if isinstance(m, AVaRMeasure):
        return avar_risk(m.lam, p, d)
    if isinstance(m, QuantileMeasure):
        return quantile_risk(m.weight, p, d)
    if isinstance(m, RobustMeasure):
        return robust_risk(m.loss, m.lam, p, d)
    if isinstance(m, ShiftedMeasure):
        return shifted_risk(m.loss, m.lam, m.x0, p, d)
    if isinstance(m, VaRMeasure):
        return var_risk(m.lam, p, d)
    raise InvalidParameter(f"unknown measure {type(m).__name__}")


def measure_is_convex(m: Measure) -> bool:
    return not isinstance(m, VaRMeasure)


# ---------------------------------------------------------------------------
# Specification grammars:
#   weight:  avar:<lambda> | twolevel:<xi>,<low> | steps:<t0>:<k0>,...
#   loss:    exp:<a> | pow:<p>
#   measure: avar:<l> | rho_k:<weight> | var:<l> | robust:<loss>:<l>
#            | shifted:<loss>:<l>:<x0>
# ---------------------------------------------------------------------------


def parse_weight(spec: str) -> WeightFunction:
    head, sep, rest = spec.strip().partition(":")
    if not sep:
        raise ConfigError(f"weight spec {spec!r} is missing ':'")
    try:
        if head == "avar":
            return avar_weight(float(rest))
        if head == "twolevel":
            xi, _, low = rest.partition(",")
            if not _:
                raise ConfigError(f"twolevel wants 'xi,low', got {rest!r}")
            return two_level_weight(float(xi), float(low))
        if head == "steps":
            th, kv = [], []
            for part in rest.split(","):
                t, sep2, k = part.partition(":")
                if not sep2:
                    raise ConfigError(f"steps entry must be 't:k', got {part!r}")
                th.append(float(t))
                kv.append(float(k))
            return WeightFunction(tuple(th), tuple(kv))
    except (ValueError, InvalidParameter) as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown weight kind {head!r}")


def parse_loss(spec: str) -> LossFunction:
    head, sep, rest = spec.strip().partition(":")
    if not sep:
        raise ConfigError(f"loss spec {spec!r} is missing ':'")
    try:
        if head == "exp":
            return Exponential(float(rest))
        if head == "pow":
            return Power(float(rest))
    except (ValueError, InvalidParameter) as exc:
        raise ConfigError(f"bad loss spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown loss kind {head!r}")


def parse_measure(spec: str) -> Measure:
    head, sep, rest = spec.strip().partition(":")
    if not sep:
        raise ConfigError(f"measure spec {spec!r} is missing ':'")
    try:
        if head == "avar":
            return AVaRMeasure(float(rest))
        if head == "var":
            return VaRMeasure(float(rest))
        if head == "rho_k":
            return QuantileMeasure(parse_weight(rest))
        if head == "robust":
            parts = rest.rsplit(":", 1)
            if len(parts) != 2:
                raise ConfigError(f"robust wants '<loss>:<lambda>', got {rest!r}")
            return RobustMeasure(parse_loss(parts[0]), float(parts[1]))
        if head == "shifted":
            parts = rest.rsplit(":", 2)
            if len(parts) != 3:
                raise ConfigError(f"shifted wants '<loss>:<lambda>:<x0>', got {rest!r}")
            return ShiftedMeasure(parse_loss(parts[0]), float(parts[1]), float(parts[2]))
    except (ValueError, InvalidParameter) as exc:
        raise ConfigError(f"bad measure spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown measure kind {head!r}")


def measure_label(m: Measure) -> str:
    if isinstance(m, AVaRMeasure):
        return f"avar:{m.lam:g}"
    if isinstance(m, QuantileMeasure):
        steps = ",".join(f"{t:g}:{k:g}" for t, k in zip(m.weight.thresholds, m.weight.values))
        return f"rho_k:steps:{steps}"
    if isinstance(m, RobustMeasure):
        return f"robust:{_loss_label(m.loss)}:{m.lam:g}"
    if isinstance(m, ShiftedMeasure):
        return f"shifted:{_loss_label(m.loss)}:{m.lam:g}:{m.x0:g}"
    if isinstance(m, VaRMeasure):
        return f"var:{m.lam:g}"
    raise InvalidParameter(f"unknown measure {type(m).__name__}")


def _loss_label(loss: LossFunction) -> str:
    if isinstance(loss, Exponential):
        return f"exp:{loss.a:g}"
    if isinstance(loss, Power):
        return f"pow:{loss.p:g}"
    raise InvalidParameter("only exp/pow losses have a grammar label")


def measure_to_dict(m: Measure) -> dict:
    if isinstance(m, AVaRMeasure):
        return {"kind": "avar", "lam": m.lam}
    if isinstance(m, QuantileMeasure):
        return {"kind": "rho_k", "weight": m.weight.to_dict()}
    if isinstance(m, RobustMeasure):
        return {"kind": "robust", "loss": m.loss.to_dict(), "lam": m.lam}
    if isinstance(m, ShiftedMeasure):
        return {"kind": "shifted", "loss": m.loss.to_dict(), "lam": m.lam, "x0": m.x0}
    if isinstance(m, VaRMeasure):
        return {"kind": "var", "lam": m.lam}
    raise InvalidParameter(f"unknown measure {type(m).__name__}")


def measure_from_dict(data: dict) -> Measure:
    kind = data.get("kind")
    if kind == "avar":
        return AVaRMeasure(float(data["lam"]))
    if kind == "rho_k":
        w = data["weight"]
        return QuantileMeasure(WeightFunction(tuple(w["thresholds"]), tuple(w["values"])))
    if kind == "robust":
        return RobustMeasure(loss_from_dict(data["loss"]), float(data["lam"]))
    if kind == "shifted":
        return ShiftedMeasure(loss_from_dict(data["loss"]), float(data["lam"]), float(data["x0"]))
    if kind == "var":
        return VaRMeasure(float(data["lam"]))
    raise ConfigError(f"unknown measure kind in dict: {kind!r}")
