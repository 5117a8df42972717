"""Shared numeric kernel: bracketed roots, 1-D/2-D minimization, and the
fixed-node Gauss-Legendre rule behind every quadrature in the package.

Everything here is derivative-free on purpose: the objective functions fed
in by the solvers have kinks where min/max caps activate. Roots come from
Brent's zeroin, whose interpolation steps fall back to bisection whenever
they would not shrink the sign-change bracket fast enough; a caller that
passes the size of the values it compares gets stops relative to that size
and to the root, so a change of units leaves the answer unchanged.
Minimization is scan + golden section or nested grids. Tie-breaks are
leftmost (lexicographic in 2-D) so results are deterministic. Quadrature
has no tolerance: callers cut the interval where the integrand has kinks,
so each piece is smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter, NoBracket, NonConvergence

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] with positive width."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParameter(f"bracket endpoints must be finite: [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise InvalidParameter(f"bracket must have positive width: [{self.lo}, {self.hi}]")


_ROOT_MAX_ITER = 500
_EPS = 2e-16  # relative width below which a bracket cannot shrink further


def root_bracketed(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float,
    scale: float | None = None,
) -> float:
    """Find a root of f inside a sign-change bracket by Brent's zeroin.

    Each step tries inverse quadratic interpolation through the last three
    points (a secant when only two are distinct) and takes it only if it
    lands well inside the bracket and is under half the step before last;
    otherwise it bisects. The bracket always holds a sign change, so the
    root is never lost, and a stale end never slows it (Brent 1973, ch. 4).

    Stops, with `scale` (the size of the values f compares, such as the
    budget a price must match): |f(x)| <= tol * scale, or half the bracket
    at most 2e-16 |x| + tol |x| / 2, both relative, so rescaling f and x
    leaves the answer unchanged. Without `scale`: |f(x)| <= tol, or the
    bracket at most tol * max(1, |x|) wide. A NaN at a trial point is
    retried once at the bracket midpoint. Raises NoBracket without a sign
    change at the ends, NonConvergence after `_ROOT_MAX_ITER` steps.
    """
    if tol <= 0.0:
        raise InvalidParameter("tol must be positive")
    if scale is None:
        f_stop = tol
        half_width = lambda x: 0.5 * tol * max(1.0, abs(x))
    else:
        f_stop = tol * scale
        half_width = lambda x: (_EPS + 0.5 * tol) * abs(x)
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.isnan(fa) or math.isnan(fb) or fa * fb > 0.0:
        raise NoBracket(f"no sign change on [{a}, {b}]: f(lo)={fa}, f(hi)={fb}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(_ROOT_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):  # keep the sign change between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best point so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = half_width(b)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or abs(fb) <= f_stop:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb) and math.isfinite(fa):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        if math.isnan(fb):  # retry plain bisection away from the bad point
            b = a + xm
            d = e = xm
            fb = f(b)
            if math.isnan(fb):
                raise NonConvergence("root_bracketed hit NaN at bisection midpoint")
        if fb == 0.0:
            return b
    raise NonConvergence(
        f"root_bracketed: no convergence after {_ROOT_MAX_ITER} iterations, |f|={abs(fb):.3e}",
        residual=abs(fb),
    )


_GROW = 4.0
_BRACKET_STEPS = 400


def geometric_bracket(
    f: Callable[[float], float], start: float, lo_limit: float, hi_limit: float
) -> Bracket:
    """Expand multiplicatively from `start` until f changes sign.

    Intended for strictly positive search variables (budget multipliers and
    the like). Expansion alternates downward/upward from `start` by a factor
    `_GROW` per step, clamped to [lo_limit, hi_limit].
    """
    if not (0.0 < lo_limit < hi_limit) or not (lo_limit <= start <= hi_limit):
        raise InvalidParameter("geometric_bracket requires 0 < lo_limit <= start <= hi_limit")
    f0 = f(start)
    if f0 == 0.0:
        eps = start * 1e-9 + 1e-300
        return Bracket(start - eps, start + eps)
    lo = hi = start
    flo = fhi = f0
    for _ in range(_BRACKET_STEPS):
        moved = False
        if lo > lo_limit:
            lo = max(lo / _GROW, lo_limit)
            flo = f(lo)
            moved = True
            if flo == 0.0 or (flo < 0.0) != (f0 < 0.0):
                return Bracket(lo, hi if hi > lo else start)
        if hi < hi_limit:
            hi = min(hi * _GROW, hi_limit)
            fhi = f(hi)
            moved = True
            if fhi == 0.0 or (fhi < 0.0) != (f0 < 0.0):
                return Bracket(lo if lo < hi else start, hi)
        if not moved:
            break
    raise NoBracket(
        f"geometric_bracket: no sign change in [{lo_limit}, {hi_limit}] "
        f"(f stays {'negative' if f0 < 0 else 'positive'})"
    )


@dataclass(frozen=True)
class Minimize1D:
    argmin: float
    fmin: float
    multimodal: bool


def minimize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    prescan: int = 129,
) -> Minimize1D:
    """Minimize f on [lo, hi]: pre-scan grid, then golden section in the basin.

    The pre-scan basin always wins over any single golden-section run, which
    guards against multimodal objectives. Ties resolve to the leftmost point.
    """
    if hi < lo:
        raise InvalidParameter("minimize_1d requires lo <= hi")
    if hi == lo:
        return Minimize1D(lo, f(lo), False)
    xs = np.linspace(lo, hi, max(prescan, 3))
    fs = [f(float(x)) for x in xs]
    best_i = 0
    for i in range(1, len(fs)):
        if fs[i] < fs[best_i]:
            best_i = i
    n_local = sum(
        1
        for i in range(len(fs))
        if (i == 0 or fs[i] < fs[i - 1]) and (i == len(fs) - 1 or fs[i] < fs[i + 1])
    )
    a = float(xs[max(best_i - 1, 0)])
    b = float(xs[min(best_i + 1, len(fs) - 1)])
    best_x, best_f = float(xs[best_i]), fs[best_i]

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:  # ties shrink from the right: leftmost convention
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        for x_e, f_e in ((c, fc), (d, fd)):
            if f_e < best_f or (f_e == best_f and x_e < best_x):
                best_x, best_f = x_e, f_e
    return Minimize1D(best_x, best_f, n_local > 1)


@dataclass(frozen=True)
class Minimize2D:
    x: float
    y: float
    fmin: float
    flat: bool
    evaluations: int


def minimize_2d(
    f: Callable[..., float],
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    coarse_n: int = 400,
    rounds: int = 40,
    refine_n: int = 17,
    flat_tol: float = 1e-9,
    vectorized: bool = False,
) -> Minimize2D:
    """Minimize f over a rectangle by coarse grid plus nested window refinement.

    The flat flag is set when the coarse-grid range of f is below flat_tol.
    With vectorized=True, f must accept broadcastable numpy arrays; the grid
    sweep then runs as one array evaluation. Lexicographically smallest grid
    argmin wins on exact ties, and the result never leaves the rectangle.
    """
    xlo, xhi = map(float, x_bounds)
    ylo, yhi = map(float, y_bounds)
    if xhi < xlo or yhi < ylo:
        raise InvalidParameter("minimize_2d bounds must be ordered")

    def grid(lo: float, hi: float, n: int) -> np.ndarray:
        return np.linspace(lo, hi, n) if hi > lo else np.array([lo])

    def sweep(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float, float, float, int]:
        if vectorized:
            vals = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
            flat_idx = int(np.argmin(vals))  # C order: x-major, first occurrence
            i, j = divmod(flat_idx, len(ys))
            return (
                float(xs[i]),
                float(ys[j]),
                float(vals[i, j]),
                float(np.min(vals)),
                float(np.max(vals)),
                vals.size,
            )
        bx = by = bf = None
        vmin, vmax = math.inf, -math.inf
        for x in xs:
            for y in ys:
                v = float(f(float(x), float(y)))
                vmin, vmax = min(vmin, v), max(vmax, v)
                if bf is None or v < bf:
                    bx, by, bf = float(x), float(y), v
        return bx, by, bf, vmin, vmax, len(xs) * len(ys)

    xs = grid(xlo, xhi, coarse_n)
    ys = grid(ylo, yhi, coarse_n)
    bx, by, bf, vmin, vmax, n_eval = sweep(xs, ys)
    flat = (vmax - vmin) < flat_tol

    wx = (xhi - xlo) / max(coarse_n - 1, 1)
    wy = (yhi - ylo) / max(coarse_n - 1, 1)
    for _ in range(rounds):
        if wx <= 0.0 and wy <= 0.0:
            break
        rx = grid(max(xlo, bx - wx), min(xhi, bx + wx), refine_n)
        ry = grid(max(ylo, by - wy), min(yhi, by + wy), refine_n)
        cx, cy, cf, _, _, n = sweep(rx, ry)
        n_eval += n
        if cf < bf or (cf == bf and (cx, cy) < (bx, by)):
            bx, by, bf = cx, cy, cf
        wx *= 0.5
        wy *= 0.5
    return Minimize2D(bx, by, bf, flat, n_eval)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def gauss_legendre(cuts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """64-node Gauss-Legendre rule on each piece between consecutive cuts.

    Returns (nodes, weights) with int g = sum(weights * g(nodes)) over
    [cuts[0], cuts[-1]], exact for g polynomial of degree <= 127 on each
    piece. Nodes are interior, so a jump at a cut is never sampled.
    """
    if len(cuts) == 2:  # the common case, kept off the array path
        a, b = cuts
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * _GL_X, half * _GL_W
    c = np.asarray(cuts, float)
    half = 0.5 * np.diff(c)[:, None]
    mid = 0.5 * (c[1:] + c[:-1])[:, None]
    return (mid + half * _GL_X).ravel(), (half * _GL_W).ravel()


def merged_breakpoints(*groups: Sequence[float]) -> list[float]:
    """Sorted union of breakpoint collections, NaN/inf filtered."""
    out = {float(x) for g in groups for x in g if math.isfinite(x)}
    return sorted(out)
