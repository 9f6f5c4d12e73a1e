"""Correctness gate: compare a workload's output summary with the seed reference.

The reference values in ``reference.json`` were captured from the seed by
``capture_reference.py``.  Tolerances are stated here.  They admit changes of
summation order (a different BLAS, a matrix-free solve, a batched product
kernel) but not a different solution.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Stage norms are exact coefficient arithmetic down to ~1e-235; summation-order
# changes move them by ~1e-13 relative.  The absolute floor only matters for a
# stage whose correction underflows to 0.
H_NORM_RTOL = 1e-6
H_NORM_ATOL = 1e-300
# The interval union is deterministic given the branch mean curve, which the
# solves fix to roundoff.
FRACTION_RTOL = 1e-9
EXPONENT_ATOL = 1e-6


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref) + atol


def check_solve(summary: dict, ref: dict) -> list[str]:
    out = []
    if summary["stages"] != ref["stages"]:
        out.append(f"stage count {summary['stages']} != reference {ref['stages']}")
    for n, (h, h_ref) in enumerate(zip(summary["h_norm"], ref["h_norm"])):
        if not _close(h, h_ref, H_NORM_RTOL, H_NORM_ATOL):
            out.append(f"stage {n}: h_norm {h!r} differs from reference {h_ref!r}")
    res, res_max = summary["residual_relative"], ref["residual_relative_max"]
    if not res <= res_max:
        out.append(f"residual.relative {res!r} exceeds {res_max!r}")
    for n, (inv, bound) in enumerate(zip(summary["inverse_norm"], summary["inverse_bound"])):
        if not inv <= bound:
            out.append(f"stage {n}: inverse_norm {inv!r} > inverse_bound {bound!r}")
    for key in ("divisor_ok", "melnikov_ok"):
        bad = [n for n, ok in enumerate(summary[key]) if not ok]
        if bad:
            out.append(f"{key} false at stages {bad}")
    return out


def check_measure(summary: dict, ref: dict) -> list[str]:
    out = []
    if summary["etas"] != ref["etas"]:
        out.append(f"windows {summary['etas']} != reference {ref['etas']}")
    for eta, f, f_ref in zip(summary["etas"], summary["fraction_interval"],
                             ref["fraction_interval"]):
        if not _close(f, f_ref, FRACTION_RTOL):
            out.append(f"eta {eta}: fraction_interval {f!r} differs from reference {f_ref!r}")
    for eta, f_mc, f, n in zip(summary["etas"], summary["fraction_mc"],
                               summary["fraction_interval"], summary["samples"]):
        if not abs(f_mc - f) <= 2.0 / math.sqrt(n):
            out.append(f"eta {eta}: |fraction_mc - fraction_interval| = "
                       f"{abs(f_mc - f):.3g} > 2/sqrt({n})")
    e, e_ref = summary["fitted_exponent"], ref["fitted_exponent"]
    if not _close(e, e_ref, 0.0, EXPONENT_ATOL):
        out.append(f"fitted exponent {e!r} differs from reference {e_ref!r}")
    return out


def check(name: str, summary: dict, reference: dict) -> list[str]:
    """Violations of the gate for workload ``name``; empty when it passes."""
    ref = reference[name]
    if name == "measure-windows":
        return check_measure(summary, ref)
    return check_solve(summary, ref)
