"""Command-line front end: solve, curve, verify, inspect.

Exit codes are a stable contract:
    0  success
    1  configuration error (bad flags, unparsable spec strings)
    2  solver error (infeasible instance, unsupported density, ...)
    3  verification failure (solver/oracle gap above tolerance)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .densities import density_from_dict, parse_density
from .errors import ConfigError, RiskclaimError
from .measures import (
    AVaRMeasure,
    QuantileMeasure,
    RobustMeasure,
    ShiftedMeasure,
    VaRMeasure,
    avar_weight,
    measure_from_dict,
    measure_is_convex,
    measure_label,
    measure_risk,
    measure_to_dict,
    parse_measure,
    payoff_from_dict,
    price,
)
from .oracle import (
    DiscreteInstance,
    discretize,
    oracle_quantile_based,
    oracle_robust,
    verification_report,
)
from .solvers import ProblemSpec, Solution, risk_curve, solve_problem

DEFAULT_VERIFY_TOL = 2e-3
TOL_ENV_VAR = "RISKCLAIM_TOL"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskclaim",
        description="Risk-minimal contingent claims under a capital constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config", help="JSON file whose keys mirror the flags; explicit flags win"
        )
        p.add_argument("--measure", help="avar:<l> | rho_k:<weight> | var:<l> | "
                                         "robust:<loss>:<l> | shifted:<loss>:<l>:<x0>")
        p.add_argument("--density", help="uniform:<lo>,<hi> | plq:<t>:<q>,... | atoms:<file.csv>")
        p.add_argument("--cap", type=float, default=1.0, help="payoff cap K (default 1)")
        p.add_argument("--out", help="output path (default: stdout)")

    p_solve = sub.add_parser("solve", help="solve one instance, emit Solution JSON")
    common(p_solve)
    p_solve.add_argument("--v", type=float, help="budget")

    p_curve = sub.add_parser("curve", help="minimal-risk curve over a budget grid (CSV)")
    common(p_curve)
    p_curve.add_argument("--grid", help="budget grid as lo:hi:n")

    p_verify = sub.add_parser("verify", help="check a solver against the discrete oracle")
    common(p_verify)
    p_verify.add_argument("--v", type=float, help="budget")
    p_verify.add_argument("--n", type=int, default=2000, help="oracle atom count (>= 2)")
    p_verify.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"gap tolerance (default {DEFAULT_VERIFY_TOL}, or ${TOL_ENV_VAR})",
    )

    p_inspect = sub.add_parser("inspect", help="dump density diagnostics as JSON")
    p_inspect.add_argument(
        "--config", help="JSON file whose keys mirror the flags; explicit flags win"
    )
    p_inspect.add_argument("--density", help="density spec string")
    p_inspect.add_argument("--out", help="output path (default: stdout)")
    return parser


def _apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str] | None
) -> argparse.Namespace:
    """Parse argv again with the config file's values as the subcommand's
    defaults, so that every flag given explicitly wins."""
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}", exc.pos) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    flag_types = {a.dest: a.type or str for a in command._actions if a.dest in vars(args)}
    defaults = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in flag_types:
            raise ConfigError(f"config key {key!r} does not mirror any flag")
        # convert as argparse would convert the same text given as a flag
        try:
            defaults[attr] = flag_types[attr](str(value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: cannot read {value!r}: {exc}") from exc
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def solution_document(spec: ProblemSpec, sol: Solution) -> dict:
    return {
        "measure": measure_to_dict(spec.measure),
        "measure_label": measure_label(spec.measure),
        "density": spec.density.to_dict(),
        "v": spec.budget,
        "cap": spec.cap,
        **sol.to_dict(),
    }


def reevaluate_solution(doc: dict) -> tuple[float, float]:
    """Re-parse a Solution document and recompute (price, risk) from scratch."""
    density = density_from_dict(doc["density"])
    measure = measure_from_dict(doc["measure"])
    payoff = payoff_from_dict(doc["payoff"])
    return price(payoff, density), measure_risk(measure, payoff, density)


def run_solve(args: argparse.Namespace) -> int:
    _require(args, "measure", "density", "v")
    measure = parse_measure(args.measure)
    density = parse_density(args.density)
    spec = ProblemSpec(measure, density, float(args.v), float(args.cap))
    sol = solve_problem(spec)
    _write(json.dumps(solution_document(spec, sol), indent=2), args.out)
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if n < 2 or hi < lo:
        raise ConfigError(f"grid needs hi >= lo and n >= 2, got {text!r}")
    return [float(x) for x in np.linspace(lo, hi, n)]


def _headline_param(measure, sol: Solution) -> float | None:
    if isinstance(measure, (AVaRMeasure, RobustMeasure)):
        return sol.params.get("beta")
    if isinstance(measure, QuantileMeasure):
        return sol.params.get("x_star", sol.params.get("beta"))
    if isinstance(measure, ShiftedMeasure):
        return sol.params.get("alpha")
    if isinstance(measure, VaRMeasure):
        return sol.params.get("r")
    return None


def run_curve(args: argparse.Namespace) -> int:
    _require(args, "measure", "density", "grid")
    measure = parse_measure(args.measure)
    density = parse_density(args.density)
    grid = _parse_grid(args.grid)
    spec = ProblemSpec(measure, density, grid[0], float(args.cap))
    result = risk_curve(spec, grid, strict=False)

    lines = ["v,risk,regime,beta_or_xstar"]
    for point in result.points:
        if point.solution is None:
            lines.append(f"{_fmt(point.v)},NA,NA,NA")
            continue
        head = _headline_param(measure, point.solution)
        lines.append(
            f"{_fmt(point.v)},{_fmt(point.solution.risk)},{point.solution.regime},"
            f"{'NA' if head is None else _fmt(head)}"
        )
    _write("\n".join(lines) + "\n", args.out)

    summary = {
        "monotone": result.monotone,
        "convexity": result.convexity
        if measure_is_convex(measure)
        else "skipped (non-convex measure)",
        "max_violation": result.max_violation,
        "failed_points": [p.v for p in result.points if p.solution is None],
    }
    sidecar = (args.out + ".checks.json") if args.out else None
    _write(json.dumps(summary, indent=2), sidecar)
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    _require(args, "measure", "density", "v")
    if args.n < 2:
        raise ConfigError(f"--n must be >= 2, got {args.n}")
    tol = args.tol
    if tol is None:
        raw = os.environ.get(TOL_ENV_VAR, DEFAULT_VERIFY_TOL)
        try:
            tol = float(raw)
        except ValueError:
            raise ConfigError(f"${TOL_ENV_VAR} must be a number, got {raw!r}") from None
    measure = parse_measure(args.measure)
    density = parse_density(args.density)
    if not isinstance(measure, (AVaRMeasure, QuantileMeasure, RobustMeasure)):
        raise ConfigError("verify supports measures avar, rho_k and robust")

    cap = float(args.cap)
    spec = ProblemSpec(measure, density, float(args.v), cap)
    sol = solve_problem(spec)
    atoms = discretize(density, args.n)
    if isinstance(measure, RobustMeasure):
        inst = DiscreteInstance(atoms, float(args.v), cap)
        orc = oracle_robust(inst, measure.loss, measure.lam)
        oracle_risk, levels = orc.risk, orc.levels
    else:
        # the two-step oracle runs cap-normalized; scale back by homogeneity
        inst = DiscreteInstance(atoms, float(args.v) / cap, 1.0)
        weight = avar_weight(measure.lam) if isinstance(measure, AVaRMeasure) else measure.weight
        res = oracle_quantile_based(inst, weight)
        oracle_risk = res.risk * cap
        levels = tuple(l * cap for l in res.levels)
        inst = DiscreteInstance(atoms, float(args.v), cap)
    report = verification_report(inst, sol.risk, sol.payoff, oracle_risk, levels, tol)
    report["measure"] = measure_label(measure)
    report["v"] = float(args.v)
    _write(json.dumps(report, indent=2), args.out)
    if not report["pass"]:
        sys.stderr.write(f"verification failed: gap {report['gap']:.6g} > tol {tol:.6g}\n")
        return EXIT_VERIFY
    return EXIT_OK


def run_inspect(args: argparse.Namespace) -> int:
    _require(args, "density")
    density = parse_density(args.density)
    levels = [i / 20.0 for i in range(21)]
    quantiles = [float(density.quantile(t)) for t in levels]
    doc = {
        "density": density.to_dict(),
        "mean": density.mean(),
        "ess_sup": density.ess_sup() if math.isfinite(density.ess_sup()) else None,
        "continuous_strictly_increasing": density.is_continuous_strictly_increasing,
        "issues": [
            {"code": i.code, "message": i.message, "residual": i.residual}
            for i in density.validate()
        ],
        "quantile_table": {
            "levels": levels,
            "values": [q if math.isfinite(q) else None for q in quantiles],
        },
        "capital_table": {
            "levels": levels,
            "values": [float(density.capital_integral(t)) for t in levels],
        },
    }
    _write(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        args = _apply_config_file(args, parser, argv)
        if args.command == "solve":
            return run_solve(args)
        if args.command == "curve":
            return run_curve(args)
        if args.command == "verify":
            return run_verify(args)
        if args.command == "inspect":
            return run_inspect(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        where = f" (at position {exc.position})" if exc.position is not None else ""
        sys.stderr.write(f"config error{where}: {exc}\n")
        return EXIT_CONFIG
    except RiskclaimError as exc:
        sys.stderr.write(f"solver error: {type(exc).__name__}: {exc}\n")
        return EXIT_SOLVER


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
