"""Benchmark of the resonant-kg solver: one workload per call, closed loop.

    python3 perfbench/run.py --workload solve-m1-deep --seed 1 --seconds 40 --trace 0

Each workload run is a fresh child process (``child.py``), started only after
the previous one has ended, and repeated while another run of typical length
still ends within ``--seconds`` (at least once).  Every run passes through
the correctness gate.  With ``--trace 0`` the result holds the end-to-end
metrics (medians over the runs); with ``--trace 1`` it holds the per-layer
metrics of traced runs, each paired with an untraced run for the tracing
overhead.  Human-readable lines come first; the last line of standard output
is the JSON result.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import layer_metric_names  # noqa: E402

WORKLOADS = ("solve-m1-deep", "solve-m0-default", "measure-windows")
# One BLAS thread: at or below nproc on any machine, and it leaves a core for
# the parent and the system, which keeps run-to-run spread low.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Import-only children per untraced run, on top of one set-up per workload run.
SETUP_PROBES = 3
# Hard limit on one invocation, below the 180 s a run may take.
BUDGET_S = 170.0
EXIT_NO_PROGRAM = 3

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_METRICS = {"trace.untraced_wall_s": "s", "trace.overhead_s": "s"}


def per_layer_units() -> dict:
    units = {name: "s" if name.endswith("_s") else "count" for name in layer_metric_names()}
    units.update(TRACE_METRICS)
    return units


class Fatal(Exception):
    """The program could not be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(extra: list[str], deadline: float):
    """Run child.py to completion; (result dict or None, set-up seconds or None)."""
    cmd = [sys.executable, str(HERE / "child.py")] + extra
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        print(f"child {extra} timed out", file=sys.stderr)
        return None, None
    if proc.returncode == EXIT_NO_PROGRAM:
        raise Fatal("the package cannot be imported from this checkout")
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        print(f"child {extra} gave no result: {exc}", file=sys.stderr)
        return None, None
    return result, result["imported_at"] - spawned


def measure(workload: str, seed: int, seconds: float, trace: bool, start: float):
    deadline = start + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups, untraced, traced = [], [], []
    attempted = failed = 0
    if not trace:
        for _ in range(SETUP_PROBES):
            _, setup = run_child(["--setup-only"], deadline)
            if setup is not None:
                setups.append(setup)
    trace_out = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    modes = [0, 1] if trace else [0]
    rounds = []
    while True:
        began = time.monotonic()
        for mode in modes:
            extra = base + ["--trace", str(mode)]
            if mode and not traced:
                extra += ["--trace-out", str(trace_out)]
            result, setup = run_child(extra, deadline)
            attempted += 1
            if result is None:
                failed += 1
                continue
            if result["violations"]:
                failed += 1
                for v in result["violations"]:
                    print(f"gate: {workload}: {v}", file=sys.stderr)
            setups.append(setup)
            (traced if mode else untraced).append(result)
        now = time.monotonic()
        rounds.append(now - began)
        # Start another round only if one of typical length still ends in time.
        if now - start + statistics.median(rounds) > seconds or now >= deadline - 1.0:
            break
    return setups, untraced, traced, attempted, failed


def end_to_end(setups, untraced) -> dict:
    return {"wall_s": statistics.median([r["wall_s"] for r in untraced]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": statistics.median(setups)}


def per_layer(untraced, traced) -> dict:
    out = {}
    for name in layer_metric_names():
        out[name] = statistics.median([r["layers"][name] for r in traced])
    wall_plain = statistics.median([r["wall_s"] for r in untraced])
    out["trace.untraced_wall_s"] = wall_plain
    out["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced]) - wall_plain
    return out


def main(argv=None) -> int:
    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "resonant_kg" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups, untraced, traced, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), start)
    except Fatal as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not untraced or (args.trace and not traced):
        print("run.py: no workload run produced a measurement", file=sys.stderr)
        return 1

    if args.trace:
        values, units = per_layer(untraced, traced), per_layer_units()
    else:
        values, units = end_to_end(setups, untraced), END_TO_END_UNITS
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} runs={len(untraced)}+{len(traced)} traced "
          f"setups={len(setups)} attempted={attempted} failed={failed}")
    for name, value in values.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print("  wall_s of each run: " + " ".join(f"{r['wall_s']:.3f}" for r in untraced + traced))
    if args.trace:
        print(f"  spans: {OUT_DIR / f'trace-{args.workload}-seed{args.seed}.jsonl'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
