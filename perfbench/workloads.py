"""The benchmark's workloads and the output summaries the correctness gate reads.

Each workload is one call into the package.  The solve inputs are fixed; the
seed drives only the Monte Carlo samples of ``measure-windows``.  Functions
are looked up on their modules at call time so that the tracer's wrappers,
installed after this module is imported, are the ones called.
"""

from __future__ import annotations

import numpy as np
from resonant_kg import cli, nash_moser, resonance

MEASURE_ETAS = (0.04, 0.02, 0.01)
MEASURE_SAMPLES = 100_000
MEASURE_GRID = 4


def _solve(**config):
    return nash_moser.run(nash_moser.SolverConfig(**config))


def solve_m1_deep(seed: int):
    return _solve(eps=2e-3, m=1, n_max=5)


def solve_m0_default(seed: int):
    return _solve(eps=1e-3, m=0)


def measure_windows(seed: int):
    """The README's ``resonant-kg measure`` call, without the 0.005 window."""
    grid = np.linspace(1e-6, max(MEASURE_ETAS), MEASURE_GRID)
    mvals = cli._mean_curve(grid, 0)

    def m_of_eps(e):
        return np.interp(e, grid, mvals)

    params = resonance.ResonanceParams(0.05, 1.5, eps0=max(MEASURE_ETAS))
    rng_seed = seed % 2 ** 63
    return [resonance.measure_scan(eta, MEASURE_SAMPLES, params, m_of_eps,
                                   rng_seed=rng_seed)
            for eta in MEASURE_ETAS]


WORKLOADS = {
    "solve-m1-deep": solve_m1_deep,
    "solve-m0-default": solve_m0_default,
    "measure-windows": measure_windows,
}


def summarize(name: str, result) -> dict:
    """JSON-ready outputs of one workload call, as the gate compares them."""
    if name == "measure-windows":
        return {
            "etas": [r.eta for r in result],
            "samples": [r.samples for r in result],
            "fraction_interval": [r.fraction_interval for r in result],
            "fraction_mc": [r.fraction_mc for r in result],
            "fitted_exponent": resonance.fit_excluded_exponent(result),
        }
    records = result.trace.records
    return {
        "stages": len(records),
        "h_norm": [r.h_norm for r in records],
        "inverse_norm": [r.inverse_norm for r in records],
        "inverse_bound": [r.inverse_bound for r in records],
        "divisor_ok": [bool(r.divisor_ok) for r in records],
        "melnikov_ok": [bool(r.melnikov_ok) for r in records],
        "residual_relative": float(result.residual.relative),
    }
