"""One workload run in a fresh process; prints one JSON line for ``run.py``.

The parent sets the BLAS thread variables and ``PYTHONPATH`` (the checkout's
``src``) in this process's environment, so they hold before numpy loads.
The reported ``imported_at`` is ``time.monotonic()`` right after the package
import; the parent subtracts its spawn time from it to get ``setup_s``.

Exit codes: 0 when a result line was printed (a failed workload is reported
in it), 3 when the package cannot be imported from the checkout.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO_PROGRAM = 3


def _import_program() -> float:
    try:
        import resonant_kg
    except ImportError as exc:
        print(f"child: cannot import resonant_kg: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    imported_at = time.monotonic()
    src = (ROOT / "src").resolve()
    if src not in Path(resonant_kg.__file__).resolve().parents:
        print(f"child: resonant_kg was imported from {resonant_kg.__file__}, "
              f"not from the checkout's src", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    return imported_at


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None, help="JSONL file for the spans")
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, report, and exit")
    args = p.parse_args(argv)

    imported_at = _import_program()
    if args.setup_only:
        print(json.dumps({"imported_at": imported_at}))
        return 0

    import gate
    import workloads
    from tracer import Tracer

    fn = workloads.WORKLOADS[args.workload]
    reference = gate.load_reference()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            result = tracer.call("workload", fn, args.seed)
        else:
            result = fn(args.seed)
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    violations = [error] if error else gate.check(
        args.workload, workloads.summarize(args.workload, result), reference)
    out = {"imported_at": imported_at, "wall_s": wall_s,
           "peak_rss_mb": peak_rss_mb, "violations": violations}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.trace_out:
            tracer.write_jsonl(args.trace_out, {
                "workload": args.workload, "seed": args.seed, "wall_s": wall_s,
                "peak_rss_mb": peak_rss_mb, "spans": len(tracer.spans)})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
