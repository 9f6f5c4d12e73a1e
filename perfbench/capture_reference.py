"""Write reference.json: the gate's reference values, captured from this checkout.

    python3 perfbench/capture_reference.py

Runs every workload once (seed 0) and stores the outputs the gate compares.
The residual bound of each solve is stated as 100 times the captured
residual, rounded up to a power of ten.  Recapture only on purpose: the
reference is what later changes are checked against.
"""

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import BLAS_THREADS, BLAS_VARS  # noqa: E402

for var in BLAS_VARS:
    os.environ[var] = str(BLAS_THREADS)  # before numpy loads, as for run.py's children

import gate  # noqa: E402
import workloads  # noqa: E402


def reference_entry(name: str, summary: dict) -> dict:
    if name == "measure-windows":
        return {key: summary[key] for key in ("etas", "fraction_interval", "fitted_exponent")}
    bound = 10.0 ** math.ceil(math.log10(100.0 * summary["residual_relative"]))
    return {"stages": summary["stages"], "h_norm": summary["h_norm"],
            "residual_relative": summary["residual_relative"],
            "residual_relative_max": bound}


def main() -> int:
    reference = {}
    for name, fn in workloads.WORKLOADS.items():
        summary = workloads.summarize(name, fn(0))
        reference[name] = reference_entry(name, summary)
        violations = gate.check(name, summary, reference)
        if violations:
            print(f"{name}: captured outputs fail the gate: {violations}", file=sys.stderr)
            return 1
        print(f"{name}: captured", file=sys.stderr)
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
