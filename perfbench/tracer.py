"""Per-layer tracing of riskclaim from outside the package.

The tracer replaces public functions and methods of the six modules with
wrappers that count calls and time spans, then restores the originals.
Functions are replaced in every riskclaim namespace that holds them, so a
name a caller imported (`riskclaim.solvers.root_bracketed`) is traced too.
Density, weight and loss methods are wrapped on their classes. A target
that no longer exists is skipped and reports zero calls.

Self time of a span is its duration minus the spans it contains. The
callable handed to a numerics routine is its own span, so the routine's
self time excludes its objective, and each return of that callable counts
as one evaluation per element of its result. A direct call into the same
label (a `Shifted` loss delegating to its base, `gamma_value` calling
`WeightFunction.gamma`) is folded into the outer span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (module, name, label, options); "only" limits which namespaces are patched
FUNCTIONS = [
    ("numerics", "minimize_2d", "numerics.minimize_2d", {"evals": True}),
    ("numerics", "minimize_1d", "numerics.minimize_1d", {"evals": True}),
    ("numerics", "root_bracketed", "numerics.root_bracketed", {"evals": True}),
    ("numerics", "geometric_bracket", "numerics.geometric_bracket", {"evals": True}),
    ("numerics", "integrate_adaptive", "numerics.integrate_adaptive", {"evals": True}),
    ("measures", "shifted_risk", "measures.shifted_risk", {}),
    ("measures", "robust_risk", "measures.robust_risk", {}),
    ("measures", "price", "measures.price", {}),
    ("measures", "quantile_risk", "measures.quantile_risk", {}),
    ("measures", "avar_risk", "measures.avar_risk", {}),
    ("measures", "var_risk", "measures.var_risk", {}),
    ("measures", "gamma_value", "measures.gamma", {}),
    ("solvers", "solve_quantile_based", "solvers.solve_quantile_based", {}),
    ("solvers", "solve_robust_utility", "solvers.solve_robust_utility", {}),
    ("solvers", "solve_shifted", "solvers.solve_shifted", {}),
    ("solvers", "solve_avar", "solvers.solve_avar", {}),
    ("solvers", "solve_var", "solvers.solve_var", {}),
    ("solvers", "y_lambda", "solvers.y_lambda", {}),
    ("solvers", "risk_curve", "solvers.risk_curve", {}),
    ("oracle", "discretize", "oracle.discretize", {"atoms": True}),
    ("oracle", "oracle_quantile_based", "oracle.oracle_quantile_based", {}),
    ("oracle", "oracle_robust", "oracle.oracle_robust", {}),
    ("cli", "main", "cli.main", {"only": "cli"}),
    ("cli", "build_parser", "cli.parse", {"only": "cli", "parser": True}),
    ("cli", "parse_measure", "cli.parse", {"only": "cli"}),
    ("cli", "parse_density", "cli.parse", {"only": "cli"}),
    ("cli", "_parse_grid", "cli.parse", {"only": "cli"}),
    ("cli", "solve_problem", "cli.solve_problem", {"only": "cli"}),
]

# (module, base class, methods, label, options): wrapped on every subclass
# in the module that defines the method itself
METHODS = [
    ("densities", "PriceDensity", ("z_of_v",), "densities.z_of_v", {}),
    ("densities", "PriceDensity", ("capital_integral",), "densities.capital_integral", {"elements": True}),
    ("densities", "PriceDensity", ("quantile",), "densities.quantile", {"elements": True}),
    ("densities", "PriceDensity", ("cdf",), "densities.cdf", {"elements": True}),
    ("densities", "PriceDensity", ("tail_capital",), "densities.tail_capital", {"elements": True}),
    ("measures", "WeightFunction", ("gamma",), "measures.gamma", {}),
    (
        "measures",
        "LossFunction",
        ("value", "derivative", "inverse_derivative", "value_array", "inverse_derivative_array"),
        "measures.loss",
        {},
    ),
]

MS_LABELS = [
    "numerics.minimize_2d", "numerics.minimize_1d", "numerics.root_bracketed",
    "numerics.geometric_bracket", "numerics.integrate_adaptive",
    "solvers.solve_quantile_based", "solvers.solve_robust_utility", "solvers.solve_shifted",
    "solvers.solve_avar", "solvers.solve_var", "solvers.y_lambda", "solvers.risk_curve",
    "densities.z_of_v", "densities.capital_integral", "densities.quantile", "densities.cdf",
    "densities.tail_capital",
    "measures.shifted_risk", "measures.robust_risk", "measures.price", "measures.quantile_risk",
    "measures.avar_risk", "measures.var_risk",
    "oracle.discretize", "oracle.oracle_quantile_based", "oracle.oracle_robust",
]
EVAL_LABELS = [label for label in MS_LABELS if label.startswith("numerics.")]
DENSITY_LABELS = [label for label in MS_LABELS if label.startswith("densities.")][1:]


def layer_metric_specs() -> list[dict]:
    """Every per-layer metric: name, unit and which direction is better."""
    specs = []
    for label in MS_LABELS:
        specs.append({"name": f"{label}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{label}.ms", "unit": "ms", "better": "lower"})
        if label in EVAL_LABELS:
            specs.append({"name": f"{label}.evals", "unit": "count", "better": "lower"})
    specs += [
        {"name": "numerics.useful_ratio", "unit": "ratio", "better": "higher"},
        {"name": "solvers.inner_solves_per_robust", "unit": "count", "better": "lower"},
        {"name": "solvers.robust_per_shifted", "unit": "count", "better": "lower"},
        {"name": "densities.elements_per_call", "unit": "count", "better": "higher"},
        {"name": "measures.gamma.calls", "unit": "count", "better": "lower"},
        {"name": "measures.loss.calls", "unit": "count", "better": "lower"},
        {"name": "oracle.atoms", "unit": "count", "better": "lower"},
        {"name": "cli.import_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.main.ms", "unit": "ms", "better": "lower"},
        {"name": "cli.parse.ms", "unit": "ms", "better": "lower"},
        {"name": "cli.solve_problem.ms", "unit": "ms", "better": "lower"},
        {"name": "trace.overhead_ms", "unit": "ms", "better": "lower"},
    ]
    return specs


@dataclass
class Stat:
    calls: int = 0
    nested: int = 0  # calls made inside another span of the same module
    raised: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    evals: int = 0
    elements: int = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list] = []  # [label or None for a callback, start_ns, child_ns]
        self.depth: dict[str, int] = defaultdict(int)  # open spans per module
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _callback(self, f, stat: Stat):
        def counted(*args, **kwargs):
            frame = [None, time.perf_counter_ns(), 0]
            self.stack.append(frame)
            try:
                out = f(*args, **kwargs)
            finally:
                self.stack.pop()
                self.stack[-1][2] += time.perf_counter_ns() - frame[1]
            stat.evals += out.size if isinstance(out, np.ndarray) else 1
            return out

        return counted

    def wrap(self, fn, label: str, evals=False, elements=False, atoms=False, parser=False):
        stat = self.stats[label]
        module = label.split(".")[0]
        depth = self.depth
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            stat.calls += 1
            if depth[module]:
                stat.nested += 1
            if elements:
                stat.elements += getattr(args[1], "size", 1)
            elif atoms:
                stat.elements += int(args[1])
            elif evals:
                if "f" in kwargs:
                    kwargs["f"] = self._callback(kwargs["f"], stat)
                else:
                    args = (self._callback(args[0], stat),) + args[1:]
            frame = [label, clock(), 0]
            stack.append(frame)
            depth[module] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                depth[module] -= 1
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                stat.incl_ns += dur
                stat.self_ns += dur - frame[2]
            if parser:
                out.parse_args = self.wrap(out.parse_args, label)
            return out

        return traced

    # -- install / remove ----------------------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        spaces = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "riskclaim" or name.startswith("riskclaim.")
        }
        for module, name, label, opts in FUNCTIONS:
            opts = dict(opts)
            only = opts.pop("only", None)
            owner = spaces.get(f"riskclaim.{module}")
            original = getattr(owner, name, None)
            if original is None:
                continue
            wrapped = self.wrap(original, label, **opts)
            for space_name, space in spaces.items():
                if only and space_name != f"riskclaim.{only}":
                    continue
                if getattr(space, name, None) is original:
                    self._patch(space, name, wrapped)
        for module, base_name, methods, label, opts in METHODS:
            owner = spaces.get(f"riskclaim.{module}")
            base = getattr(owner, base_name, None)
            if base is None:
                continue
            classes = [c for c in vars(owner).values() if isinstance(c, type) and issubclass(c, base)]
            for cls in classes:
                for meth in methods:
                    if meth in cls.__dict__ and callable(cls.__dict__[meth]):
                        self._patch(cls, meth, self.wrap(cls.__dict__[meth], label, **opts))

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- report --------------------------------------------------------------

    def metrics(self, import_ms: float, overhead_ms: float) -> dict[str, float]:
        st = self.stats
        out: dict[str, float] = {}
        for label in MS_LABELS:
            s = st[label]
            ns = s.incl_ns if label.startswith("solvers.") else s.self_ns  # solvers: inclusive
            out[f"{label}.calls"] = s.calls
            out[f"{label}.ms"] = ns / 1e6
            if label in EVAL_LABELS:
                out[f"{label}.evals"] = s.evals
        numeric_calls = sum(st[label].calls for label in EVAL_LABELS)
        numeric_raised = sum(st[label].raised for label in EVAL_LABELS)
        out["numerics.useful_ratio"] = _ratio(numeric_calls - numeric_raised, numeric_calls)
        robust = st["solvers.solve_robust_utility"]
        out["solvers.inner_solves_per_robust"] = _ratio(
            st["numerics.geometric_bracket"].calls, robust.calls
        )
        out["solvers.robust_per_shifted"] = _ratio(robust.nested, st["solvers.solve_shifted"].calls)
        out["densities.elements_per_call"] = _ratio(
            sum(st[label].elements for label in DENSITY_LABELS),
            sum(st[label].calls for label in DENSITY_LABELS),
        )
        out["measures.gamma.calls"] = st["measures.gamma"].calls
        out["measures.loss.calls"] = st["measures.loss"].calls
        out["oracle.atoms"] = st["oracle.discretize"].elements
        out["cli.import_ms"] = import_ms
        out["cli.main.ms"] = st["cli.main"].self_ns / 1e6
        out["cli.parse.ms"] = st["cli.parse"].incl_ns / 1e6
        out["cli.solve_problem.ms"] = st["cli.solve_problem"].incl_ns / 1e6
        out["trace.overhead_ms"] = overhead_ms
        return out

    def raw(self) -> dict:
        return {label: vars(s) for label, s in sorted(self.stats.items()) if s.calls}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
