"""The tracer counts what the code does and survives removed functions.

    python3 perfbench/test_tracer.py        (or: python3 -m pytest perfbench/test_tracer.py)
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import riskclaim as rc  # noqa: E402
import riskclaim.cli  # noqa: E402,F401

from tracer import Tracer, layer_metric_specs  # noqa: E402

UNIF = rc.Uniform(0.0, 2.0)
REMOVABLE = ("minimize_2d", "integrate_adaptive", "classical_indicator", "_polish_floor")


def traced(run) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.remove()
    return tracer.metrics(0.0, 0.0)


def test_counts_of_one_quantile_solve():
    m = traced(lambda: rc.solve_quantile_based(UNIF, rc.two_level_weight(0.6, 0.5), 0.7))
    assert m["solvers.solve_quantile_based.calls"] == 1
    assert m["numerics.minimize_2d.evals"] == 400 * 400 + 40 * 17 * 17
    assert m["numerics.minimize_1d.calls"] == 2
    assert m["oracle.discretize.calls"] == 0
    assert set(m) == {spec["name"] for spec in layer_metric_specs()}


def test_wrappers_are_removed():
    original = rc.solvers.solve_avar
    traced(lambda: rc.solve_avar(UNIF, 0.75, 0.5))
    assert rc.solvers.solve_avar is original and rc.solve_avar is original


def test_removed_functions_report_zero_calls():
    spaces = [sys.modules[name] for name in sorted(sys.modules) if name.split(".")[0] == "riskclaim"]
    removed = [(mod, name, vars(mod)[name]) for mod in spaces for name in REMOVABLE if name in vars(mod)]
    for mod, name, _ in removed:
        delattr(mod, name)
    try:
        m = traced(lambda: (rc.solve_avar(UNIF, 0.75, 0.5), rc.solve_var(UNIF, 0.25, 0.5)))
    finally:
        for mod, name, fn in removed:
            setattr(mod, name, fn)
    assert removed
    assert m["numerics.minimize_2d.calls"] == 0 and m["numerics.integrate_adaptive.evals"] == 0
    assert m["solvers.solve_avar.calls"] == 1 and m["solvers.solve_var.calls"] == 1


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} tracer tests pass")
