#!/usr/bin/env python3
"""riskclaim benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload twostep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/` of that
checkout, never from an installed copy. One operation is in flight at a
time. A run makes `max(1, round(seconds / nominal pass seconds))` whole
passes over the workload's list of at least 40 operations, so every run
with the same `--seconds` does the same work. Times are scaled to a
reference host speed (see `kernel_ns`), and an operation repeated over
passes counts with its median. Outputs are checked after the timed phase
(see checks.py). With `--trace 1` the run makes one untraced and one traced
pass and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

WORKLOADS = ("twostep", "robust", "cli")
NOMINAL_PASS_S = {"twostep": 1.7, "robust": 32.0, "cli": 25.0}
SETUP_PROBES = 5
CLI_TIMEOUT_S = 150
# Host speed at which times are reported: the calibration kernel takes this
# long. It is the kernel's typical time on a quiet 2.1 GHz host.
REF_KERNEL_NS = 1.8e6
SAMPLE_PERIOD_S = 0.25


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> float:
    """Import riskclaim.cli from the checkout; return the import time in ms."""
    if not (SRC / "riskclaim" / "__init__.py").is_file():
        fail(f"no riskclaim package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    start = time.perf_counter()
    import riskclaim.cli  # noqa: F401

    import_ms = (time.perf_counter() - start) * 1e3
    if Path(riskclaim.cli.__file__).resolve().parent != (SRC / "riskclaim").resolve():
        fail(f"riskclaim was imported from {riskclaim.cli.__file__}, not from {SRC}")
    return import_ms


def current_cpu() -> int:
    getcpu = ctypes.CDLL(None).sched_getcpu  # glibc
    getcpu.restype, getcpu.argtypes = ctypes.c_int, []
    return getcpu()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RISKCLAIM_TOL", None)
    return env


def build(workload: str, seed: int) -> list:
    """Construct the operation list and warm up each in-process solver kind."""
    import workloads

    if workload == "twostep":
        ops = workloads.twostep_ops(seed, workloads.price_weight())
    elif workload == "robust":
        ops = workloads.robust_ops(seed)
    else:
        return workloads.cli_ops(seed)
    warm = {op.solver: op for op in reversed(ops) if op.solver != "shifted" and not op.known_fault}
    for op in warm.values():
        op.run()
    return ops


def kernel_ns() -> int:
    """Wall time of a fixed mix of interpreter and small numpy work (~2 ms).

    On a shared host the same code can run twice as slow for minutes at a
    time. The kernel does not call riskclaim, so its time tracks the host's
    speed and not the program's; see Stopwatch.
    """
    import numpy as np

    start = time.perf_counter_ns()
    x = np.linspace(0.0, 1.0, 4096)
    s = 0.0
    for i in range(4000):
        s += (i * 0.5) % 3.0
    for _ in range(80):
        s += float(np.interp(0.37, x, x)) + float(np.sum(np.sqrt(x)))
    return time.perf_counter_ns() - start


class Stopwatch:
    """Times steps at reference host speed.

    The kernel runs before and after every step and, for an in-process step,
    every SAMPLE_PERIOD_S during it (from a SIGALRM handler, on the same
    CPU). A step's wall time, less the kernel runs inside it, is scaled by
    REF_KERNEL_NS over the mean kernel time, so a slow spell of the host
    cancels while a slower program does not.
    """

    def __init__(self) -> None:
        self.last = kernel_ns()
        self.kernels: list[int] = []  # kernel times sampled during the step
        self.spent = 0  # ns the samples took out of the step
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_) -> None:
        start = time.perf_counter_ns()
        self.kernels.append(kernel_ns())
        self.spent += time.perf_counter_ns() - start

    def time(self, step, sample: bool) -> tuple[object, float]:
        """Run `step`; return its result and its time in ns."""
        self.kernels, self.spent = [], 0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter_ns()
        try:
            out = step()
        finally:
            elapsed = time.perf_counter_ns() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        after = kernel_ns()
        kernels = [self.last, *self.kernels, after]
        self.last = after
        return out, (elapsed - self.spent) * REF_KERNEL_NS * len(kernels) / sum(kernels)


def attempt(step):
    """The step's result, or the exception it raised: a raising operation is
    a failed operation, not a failed run."""
    try:
        return step()
    except Exception as exc:
        return exc


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, at reference host speed, of fresh interpreters doing this
    workload's set-up."""
    if workload == "cli":
        argv = [sys.executable, "-c", "import riskclaim.cli"]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
    watch = Stopwatch()
    times = []
    for _ in range(SETUP_PROBES):
        _, ns = watch.time(lambda: subprocess.run(
            argv, env=child_env(), check=True, stdout=subprocess.DEVNULL, cwd=ROOT), False)
        times.append(ns / 1e9)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


def run_pass(workload: str, ops: list, tag: str, in_process_cli: bool, outcomes: list) -> list[float]:
    """One pass over `ops`; returns each operation's time in ns at reference
    host speed."""
    env = child_env()
    if workload == "cli":
        from riskclaim.cli import main
    watch = Stopwatch()
    latencies = []
    for i, op in enumerate(ops):
        if workload != "cli":
            out, ns = watch.time(lambda: attempt(op.run), True)
        else:
            path = str(WORK / f"{tag}-{i:02d}-{op.command}.out")
            argv = op.argv(path)
            if in_process_cli:
                code, ns = watch.time(lambda: attempt(lambda: main(argv)), True)
            else:
                # no sampling: the kernel would share the CPU with the child
                code, ns = watch.time(lambda: subprocess.run(
                    [sys.executable, "-m", "riskclaim.cli", *argv], env=env, cwd=ROOT,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
                ).returncode, False)
            out = (path, code)
        latencies.append(ns)
        outcomes.append((op, out))
    return latencies


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def failures(workload: str, op, out, oracle_cache: dict) -> list[str]:
    import checks

    try:
        if workload != "cli":
            if isinstance(out, Exception):
                return [f"raised {type(out).__name__}: {out}"]
            if id(op) not in oracle_cache:
                oracle_cache[id(op)] = checks.oracle_risk(op)
            return checks.solution_failures(op, out, oracle_cache[id(op)])
        path, code = out
        if code != 0:
            return [f"exit {code!r}"]
        text = Path(path).read_text()
        if op.command == "solve":
            return checks.solve_doc_failures(json.loads(text))
        if op.command == "verify":
            return checks.verify_report_failures(json.loads(text))
        sidecar = json.loads(Path(path + ".checks.json").read_text())
        n_points = int(op.arg.split(":")[2])
        return checks.curve_failures(text, sidecar, not op.measure.startswith("var:"), n_points)
    except Exception as exc:  # a result the checks cannot read is a failed one
        return [f"check raised {type(exc).__name__}: {exc}"]


def check_all(workload: str, outcomes: list) -> tuple[int, bool]:
    """Count failed operations; `correct` is False if any failure is not a
    known fault of the program."""
    failed, unexpected, cache, seen = 0, 0, {}, set()
    for op, out in outcomes:
        fails = failures(workload, op, out, cache)
        if not fails:
            continue
        failed += 1
        known = op.known_fault
        unexpected += known is None
        if op.label not in seen:
            seen.add(op.label)
            note = f" (known fault: {known})" if known else ""
            print(f"failed: {op.label}: {', '.join(fails)}{note}", file=sys.stderr)
    return failed, unexpected == 0


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    # Stay on the current CPU, with the children, so that the calibration
    # kernel measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {current_cpu()})
    import_ms = load_package()
    if args.setup_probe:
        build(args.workload, args.seed)
        return

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    ops = build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    outcomes: list = []
    try:
        if args.trace:
            from tracer import Tracer, layer_metric_specs

            plain = sum(run_pass(args.workload, ops, "plain", True, outcomes))
            tracer = Tracer()
            tracer.install()
            try:
                traced = sum(run_pass(args.workload, ops, "traced", True, outcomes))
            finally:
                tracer.remove()
            metrics = tracer.metrics(import_ms, (traced - plain) / 1e6)
            units = {s["name"]: s["unit"] for s in layer_metric_specs()}
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / f"trace_{args.workload}.json").write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "metrics": metrics,
                 "spans": tracer.raw()}, indent=1))
        else:
            passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            runs = [run_pass(args.workload, ops, f"p{p}", False, outcomes) for p in range(passes)]
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
            op_ms = sorted(statistics.median(per_op) / 1e6 for per_op in zip(*runs))
            metrics = {
                "ops_per_s": 1e3 * len(op_ms) / sum(op_ms),
                "op_ms_p50": statistics.median(op_ms),
                "op_ms_tail": op_ms[len(op_ms) - 11],
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                     "setup_s": "s", "peak_rss_mb": "MB"}
        failed, correct = check_all(args.workload, outcomes)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"{args.workload}: seed {args.seed}, {len(outcomes)} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
