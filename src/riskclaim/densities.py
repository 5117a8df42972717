"""Price density models and their distributional primitives.

The price density phi is a strictly positive random variable normalized to
E[phi] = 1, so that a claim paying X costs E[phi X]. Every solver consumes
phi only through the primitives defined here:

    cdf              F(x)   = P[phi <= x]
    quantile         q(t)   right-continuous generalized inverse of F,
                             with q(0) := 0 and q(1) := ess sup phi
    capital_integral Phi(x) = integral of q over [0, x], the cost of the
                             cheapest claim filling the lowest x quantiles
    tail_capital            E[phi; phi >= x]
    z_of_v                  the unique level z with Phi(z) = 1 - v

Three interchangeable models: Uniform(lo, hi), a piecewise-linear quantile
function given by knots (optionally extended by an exponential upper tail,
which makes phi unbounded), and a finite list of atoms. The first two have
continuous CDFs; only models whose CDF is also strictly increasing on the
support advertise `is_continuous_strictly_increasing`, the flag the
closed-form solvers require. Atom models route to the oracle instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError, InvalidParameter, UnsupportedDensity
from .numerics import Bracket, gauss_legendre, root_bracketed

MEAN_TOL = 1e-9
PROB_SUM_TOL = 1e-12
Z_RESIDUAL_TOL = 1e-12
_TAIL_END_S = -math.log(1e-17)  # s = -log(1 - t) where tail rules stop at t = 1


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    residual: float


class PriceDensity:
    """Common interface; subclasses implement the scalar/array primitives."""

    is_continuous_strictly_increasing: bool = False

    def cdf(self, x):
        raise NotImplementedError

    def cdf_left(self, x):
        """P[phi < x], the left limit of the CDF."""
        raise NotImplementedError

    def quantile(self, t):
        raise NotImplementedError

    def capital_integral(self, x):
        raise NotImplementedError

    def tail_capital(self, x):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def ess_sup(self) -> float:
        raise NotImplementedError

    def quantile_kink_levels(self) -> list[float]:
        """Interior levels where the quantile function has kinks."""
        return []

    def quantile_rule(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Quantile values q and weights w with int_lo^hi g(q(t)) dt = sum w g(q).

        Exact to roundoff for g smooth on the range, since the rule is
        Gauss-Legendre between the quantile kinks. Callers cut [lo, hi]
        where g itself has kinks.
        """
        cuts = [lo] + [k for k in self.quantile_kink_levels() if lo < k < hi] + [hi]
        t, w = gauss_legendre(cuts)
        return np.asarray(self.quantile(t)), w

    def validate(self) -> list[ValidationIssue]:
        raise NotImplementedError

    def z_of_v(self, v: float) -> float:
        """Solve Phi(z) = 1 - v on [0, 1] by bracketed root-finding."""
        if isinstance(v, bool) or not (-1e-12 <= v <= 1.0 + 1e-12):
            raise InvalidParameter(f"budget v must lie in [0, 1], got {v}")
        v = min(max(v, 0.0), 1.0)  # roundoff excursions from computed budgets
        if not self.is_continuous_strictly_increasing:
            raise UnsupportedDensity(
                "z_of_v requires a continuous, strictly increasing CDF; "
                "discretize and use the oracle instead"
            )
        if v == 0.0:
            return 1.0
        if v == 1.0:
            return 0.0
        target = 1.0 - v
        f = lambda z: float(self.capital_integral(z)) - target
        return root_bracketed(f, Bracket(0.0, 1.0), tol=Z_RESIDUAL_TOL, max_iter=200)

    def to_dict(self) -> dict:
        raise NotImplementedError


def _check_level(t) -> None:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidParameter(f"level must lie in [0, 1], got {t}")


def _check_unit_interval(x, name: str) -> None:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidParameter(f"{name} must lie in [0, 1], got {x}")


@dataclass(frozen=True)
class Uniform(PriceDensity):
    """phi uniform on (lo, hi); mean 1 requires lo + hi = 2."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParameter("uniform bounds must be finite")
        if self.lo < 0.0 or self.hi <= self.lo:
            raise InvalidParameter(f"uniform requires 0 <= lo < hi, got ({self.lo}, {self.hi})")

    @property
    def is_continuous_strictly_increasing(self) -> bool:  # type: ignore[override]
        return True

    def cdf(self, x):
        if isinstance(x, (float, int)):
            if x <= self.lo:
                return 0.0
            if x >= self.hi:
                return 1.0
            return (x - self.lo) / (self.hi - self.lo)
        return np.clip((np.asarray(x, float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def cdf_left(self, x):
        return self.cdf(x)  # continuous model

    def quantile(self, t):
        _check_level(t)
        if isinstance(t, (float, int)):
            if t == 0.0:
                return 0.0
            return self.lo + float(t) * (self.hi - self.lo)
        t = np.asarray(t, float)
        return np.where(t == 0.0, 0.0, self.lo + t * (self.hi - self.lo))

    def capital_integral(self, x):
        _check_unit_interval(x, "level x")
        if isinstance(x, (float, int)):
            return self.lo * x + 0.5 * (self.hi - self.lo) * x * x
        x = np.asarray(x, float)
        return self.lo * x + 0.5 * (self.hi - self.lo) * x * x

    def tail_capital(self, x):
        scalar = isinstance(x, (float, int))
        xa = np.maximum(np.asarray(x, float), self.lo)
        out = np.where(
            xa >= self.hi, 0.0, (self.hi * self.hi - xa * xa) / (2.0 * (self.hi - self.lo))
        )
        return float(out) if scalar else out

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def ess_sup(self) -> float:
        return self.hi

    def validate(self) -> list[ValidationIssue]:
        issues = []
        resid = abs(self.mean() - 1.0)
        if resid > MEAN_TOL:
            issues.append(ValidationIssue("mean", f"E[phi] = {self.mean()} != 1", resid))
        return issues

    def to_dict(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class PiecewiseLinearQuantile(PriceDensity):
    """Quantile function interpolated linearly through knots (t_i, q_i).

    Knot levels must start at 0 and increase strictly. Without a tail the
    last level must be 1 and phi is bounded by the last value. With
    tail_theta > 0 the last level must be below 1 and the quantile continues
    as q_m + theta * log((1 - t_m)/(1 - t)), an exponential upper tail that
    makes phi unbounded. The capital integral over the tail stays closed
    form, and `quantile_rule` integrates across it in s = -log(1 - t).
    """

    levels: tuple[float, ...]
    values: tuple[float, ...]
    tail_theta: float | None = None

    def __post_init__(self) -> None:
        lv = tuple(float(t) for t in self.levels)
        qv = tuple(float(q) for q in self.values)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "values", qv)
        if len(lv) != len(qv) or len(lv) < 2:
            raise InvalidParameter("need matching level/value sequences with >= 2 knots")
        if lv[0] != 0.0:
            raise InvalidParameter("first knot level must be 0")
        if any(b <= a for a, b in zip(lv[:-1], lv[1:])):
            raise InvalidParameter("knot levels must be strictly increasing")
        if self.tail_theta is None:
            if lv[-1] != 1.0:
                raise InvalidParameter("last knot level must be 1 when no tail is attached")
        else:
            if not (self.tail_theta > 0.0 and math.isfinite(self.tail_theta)):
                raise InvalidParameter("tail_theta must be positive and finite")
            if lv[-1] >= 1.0:
                raise InvalidParameter("tail extension requires last knot level < 1")
        object.__setattr__(self, "_t", np.asarray(lv))
        object.__setattr__(self, "_q", np.asarray(qv))
        # prefix trapezoid areas of the quantile at the knots
        seg = 0.5 * (self._q[1:] + self._q[:-1]) * np.diff(self._t)
        object.__setattr__(self, "_phi_knots", np.concatenate([[0.0], np.cumsum(seg)]))

    _t: np.ndarray = field(init=False, repr=False, compare=False)
    _q: np.ndarray = field(init=False, repr=False, compare=False)
    _phi_knots: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def is_continuous_strictly_increasing(self) -> bool:  # type: ignore[override]
        return bool(np.all(np.diff(self._q) > 0.0))

    def _tail_start(self) -> tuple[float, float]:
        return float(self._t[-1]), float(self._q[-1])

    def quantile(self, t):
        _check_level(t)
        scalar = isinstance(t, (float, int))
        ta = np.asarray(t, float)
        out = np.interp(ta, self._t, self._q)
        if self.tail_theta is not None:
            tm, qm = self._tail_start()
            in_tail = ta > tm
            if np.any(in_tail):
                with np.errstate(divide="ignore"):
                    tail = qm + self.tail_theta * np.log((1.0 - tm) / (1.0 - ta))
                out = np.where(in_tail, tail, out)
        else:
            out = np.where(ta >= 1.0, self._q[-1], out)
        out = np.where(ta == 0.0, 0.0, out)
        return float(out) if scalar else out

    def _cdf_side(self, x, side: str):
        scalar = isinstance(x, (float, int))
        xa = np.atleast_1d(np.asarray(x, float))
        out = np.empty_like(xa)
        j = np.searchsorted(self._q, xa, side=side)
        below = j == 0
        above = j == len(self._q)
        mid = ~(below | above)
        out[below] = np.where(xa[below] >= self._q[0], self._t[0], 0.0)
        if np.any(mid):
            jm = j[mid]
            q0, q1 = self._q[jm - 1], self._q[jm]
            t0, t1 = self._t[jm - 1], self._t[jm]
            with np.errstate(invalid="ignore", divide="ignore"):
                frac = np.where(q1 > q0, (xa[mid] - q0) / (q1 - q0), 0.0)
            out[mid] = t0 + frac * (t1 - t0)
        if np.any(above):
            if self.tail_theta is None:
                out[above] = 1.0
            else:
                tm, qm = self._tail_start()
                out[above] = 1.0 - (1.0 - tm) * np.exp(-(xa[above] - qm) / self.tail_theta)
        return float(out[0]) if scalar else out.reshape(np.shape(x))

    def cdf(self, x):
        return self._cdf_side(x, "right")

    def cdf_left(self, x):
        return self._cdf_side(x, "left")

    def capital_integral(self, x):
        _check_unit_interval(x, "level x")
        scalar = isinstance(x, (float, int))
        xa = np.asarray(x, float)
        j = np.clip(np.searchsorted(self._t, xa, side="right") - 1, 0, len(self._t) - 2)
        t0 = self._t[j]
        q0 = self._q[j]
        slope = (self._q[j + 1] - q0) / (self._t[j + 1] - t0)
        dx = np.clip(xa - t0, 0.0, None)
        out = self._phi_knots[j] + q0 * dx + 0.5 * slope * dx * dx
        if self.tail_theta is not None:
            tm, qm = self._tail_start()
            in_tail = xa > tm
            if np.any(in_tail):
                a = 1.0 - tm
                u = 1.0 - xa
                with np.errstate(divide="ignore", invalid="ignore"):
                    g = a - u * np.log(a / u) - u
                g = np.where(xa >= 1.0, a, g)
                tail_val = self._phi_knots[-1] + qm * (xa - tm) + self.tail_theta * g
                out = np.where(in_tail, tail_val, out)
        return float(out) if scalar else out

    def tail_capital(self, x):
        scalar = isinstance(x, (float, int))
        xa = np.asarray(x, float)
        left = self.cdf_left(xa)
        out = self.mean() - np.asarray(self.capital_integral(left))
        out = np.where(np.asarray(left) >= 1.0, 0.0, out)
        return float(out) if scalar else out

    def mean(self) -> float:
        base = float(self._phi_knots[-1])
        if self.tail_theta is None:
            return base
        tm, qm = self._tail_start()
        return base + (qm + self.tail_theta) * (1.0 - tm)

    def ess_sup(self) -> float:
        return math.inf if self.tail_theta is not None else float(self._q[-1])

    def quantile_kink_levels(self) -> list[float]:
        interior = [float(t) for t in self._t if 0.0 < t < 1.0]
        return interior

    def quantile_rule(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Across the exponential tail the rule runs in s = -log(1 - t),
        where q is linear and dt = exp(-s) ds. q is computed from s, so no
        node meets q(1) = inf; an upper level of 1 stops at 1 - t = 1e-17,
        which drops less than 1e-15 of any integrand growing like q."""
        tm = float(self._t[-1])
        if self.tail_theta is None or hi <= tm:
            return super().quantile_rule(lo, hi)
        s_m = -math.log1p(-tm)
        s_lo = -math.log1p(-max(lo, tm))
        s_hi = -math.log(1.0 - hi) if hi < 1.0 else _TAIL_END_S
        s, ws = gauss_legendre([s_lo, s_hi])
        q = self._q[-1] + self.tail_theta * (s - s_m)
        w = ws * np.exp(-s)
        if lo >= tm:
            return q, w
        q_body, w_body = super().quantile_rule(lo, tm)
        return np.concatenate([q_body, q]), np.concatenate([w_body, w])

    def validate(self) -> list[ValidationIssue]:
        issues = []
        resid = abs(self.mean() - 1.0)
        if resid > MEAN_TOL:
            issues.append(ValidationIssue("mean", f"E[phi] = {self.mean()} != 1", resid))
        drops = np.diff(self._q)
        if np.any(drops < 0.0):
            issues.append(
                ValidationIssue(
                    "quantile_monotonicity",
                    "quantile knot values decrease",
                    float(-drops.min()),
                )
            )
        if np.any(self._q < 0.0):
            issues.append(
                ValidationIssue("negative_value", "quantile values must be >= 0", float(-self._q.min()))
            )
        return issues

    def to_dict(self) -> dict:
        return {
            "kind": "plq",
            "levels": list(self.levels),
            "values": list(self.values),
            "tail_theta": self.tail_theta,
        }


@dataclass(frozen=True)
class EmpiricalDiscrete(PriceDensity):
    """Finitely many atoms (value, probability), sorted by value."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        vv = tuple(float(v) for v in self.values)
        pp = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "values", vv)
        object.__setattr__(self, "probs", pp)
        if len(vv) != len(pp) or not vv:
            raise InvalidParameter("need matching nonempty value/probability sequences")
        if any(b < a for a, b in zip(vv[:-1], vv[1:])):
            raise InvalidParameter("atom values must be sorted ascending")
        if any(p <= 0.0 for p in pp):
            raise InvalidParameter("atom probabilities must be strictly positive")
        va = np.asarray(vv)
        pa = np.asarray(pp)
        object.__setattr__(self, "_v", va)
        object.__setattr__(self, "_p", pa)
        object.__setattr__(self, "_c", np.concatenate([[0.0], np.cumsum(pa)]))
        object.__setattr__(self, "_w", np.concatenate([[0.0], np.cumsum(pa * va)]))

    _v: np.ndarray = field(init=False, repr=False, compare=False)
    _p: np.ndarray = field(init=False, repr=False, compare=False)
    _c: np.ndarray = field(init=False, repr=False, compare=False)
    _w: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def n_atoms(self) -> int:
        return len(self.values)

    @property
    def cell_bounds(self) -> np.ndarray:
        """Cumulative probabilities [0, c_1, ..., c_n] delimiting quantile cells."""
        return self._c

    def quantile_rule(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """The atoms, each weighted by the overlap of its cell with [lo, hi]."""
        c = self._c
        return self._v, np.clip(np.minimum(c[1:], hi) - np.maximum(c[:-1], lo), 0.0, None)

    def cdf(self, x):
        scalar = isinstance(x, (float, int))
        idx = np.searchsorted(self._v, np.asarray(x, float), side="right")
        out = self._c[idx]
        return float(out) if scalar else out

    def cdf_left(self, x):
        scalar = isinstance(x, (float, int))
        idx = np.searchsorted(self._v, np.asarray(x, float), side="left")
        out = self._c[idx]
        return float(out) if scalar else out

    def quantile(self, t):
        _check_level(t)
        scalar = isinstance(t, (float, int))
        ta = np.asarray(t, float)
        idx = np.clip(np.searchsorted(self._c[1:], ta, side="right"), 0, len(self.values) - 1)
        out = np.where(ta == 0.0, 0.0, self._v[idx])
        return float(out) if scalar else out

    def capital_integral(self, x):
        _check_unit_interval(x, "level x")
        scalar = isinstance(x, (float, int))
        xa = np.asarray(x, float)
        j = np.clip(np.searchsorted(self._c, xa, side="right") - 1, 0, len(self.values) - 1)
        out = self._w[j] + self._v[j] * (xa - self._c[j])
        out = np.where(xa >= 1.0, self._w[-1] + (xa - self._c[-1]) * 0.0, out)
        return float(out) if scalar else out

    def tail_capital(self, x):
        scalar = isinstance(x, (float, int))
        idx = np.searchsorted(self._v, np.asarray(x, float), side="left")
        out = self._w[-1] - self._w[idx]
        return float(out) if scalar else out

    def mean(self) -> float:
        return float(self._w[-1])

    def ess_sup(self) -> float:
        return float(self._v[-1])

    def validate(self) -> list[ValidationIssue]:
        issues = []
        psum = float(self._c[-1])
        if abs(psum - 1.0) > PROB_SUM_TOL:
            issues.append(
                ValidationIssue("probability_sum", f"sum p_i = {psum} != 1", abs(psum - 1.0))
            )
        resid = abs(self.mean() - 1.0)
        if resid > MEAN_TOL:
            issues.append(ValidationIssue("mean", f"E[phi] = {self.mean()} != 1", resid))
        if np.any(self._v <= 0.0):
            issues.append(
                ValidationIssue(
                    "nonpositive_value", "atom values must be strictly positive", float(-self._v.min())
                )
            )
        return issues

    def to_dict(self) -> dict:
        return {"kind": "atoms", "values": list(self.values), "probs": list(self.probs)}


Density = Union[Uniform, PiecewiseLinearQuantile, EmpiricalDiscrete]


def require_solver_grade(d: PriceDensity) -> None:
    """Raise unless d passes validation and has a continuous strict CDF."""
    issues = d.validate()
    if issues:
        raise InvalidParameter(
            "density fails validation: " + "; ".join(i.message for i in issues)
        )
    if not d.is_continuous_strictly_increasing:
        raise UnsupportedDensity(
            "closed-form solvers need a continuous, strictly increasing CDF"
        )


# ---------------------------------------------------------------------------
# Specification grammar:  uniform:<lo>,<hi> | plq:<t0>:<q0>,... | atoms:<file.csv>
# ---------------------------------------------------------------------------


def parse_density(spec: str, base_dir: str | Path | None = None) -> PriceDensity:
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ConfigError(f"density spec {spec!r} is missing ':'", position=len(spec))
    try:
        if head == "uniform":
            parts = rest.split(",")
            if len(parts) != 2:
                raise ConfigError(f"uniform wants 'lo,hi', got {rest!r}", position=len(head) + 1)
            return Uniform(float(parts[0]), float(parts[1]))
        if head == "plq":
            levels, values = [], []
            for i, knot in enumerate(rest.split(",")):
                t, sep2, q = knot.partition(":")
                if not sep2:
                    raise ConfigError(
                        f"plq knot #{i} must be 't:q', got {knot!r}", position=spec.find(knot)
                    )
                levels.append(float(t))
                values.append(float(q))
            return PiecewiseLinearQuantile(tuple(levels), tuple(values))
        if head == "atoms":
            path = Path(rest)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return _read_atoms_csv(path)
    except (ValueError, InvalidParameter) as exc:
        raise ConfigError(f"bad density spec {spec!r}: {exc}", position=len(head) + 1) from exc
    raise ConfigError(f"unknown density kind {head!r}", position=0)


def _read_atoms_csv(path: Path) -> EmpiricalDiscrete:
    if not path.exists():
        raise ConfigError(f"atoms file not found: {path}")
    values, probs = [], []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["value", "prob"]:
            raise ConfigError(f"atoms CSV must have header 'value,prob', got {reader.fieldnames}")
        for row_no, row in enumerate(reader, start=2):
            try:
                values.append(float(row["value"]))
                probs.append(float(row["prob"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad atoms row at line {row_no}: {row}", position=row_no) from exc
    return EmpiricalDiscrete(tuple(values), tuple(probs))


def density_from_dict(data: dict) -> PriceDensity:
    kind = data.get("kind")
    if kind == "uniform":
        return Uniform(float(data["lo"]), float(data["hi"]))
    if kind == "plq":
        theta = data.get("tail_theta")
        return PiecewiseLinearQuantile(
            tuple(data["levels"]), tuple(data["values"]), None if theta is None else float(theta)
        )
    if kind == "atoms":
        return EmpiricalDiscrete(tuple(data["values"]), tuple(data["probs"]))
    raise ConfigError(f"unknown density kind in dict: {kind!r}")
