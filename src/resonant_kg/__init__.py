"""Coefficient-space solver for time-periodic solutions of the cubic
Klein-Gordon equation on the 3-sphere.

The solver constructs small-amplitude 2*pi/omega-periodic, spherically
symmetric solutions with omega = sqrt(1 + eps) by a kernel/range splitting:
an explicit one-mode kernel solution continued by Newton, and a Nash-Moser
iteration for the range component with small-divisor-aware linear solves.
It also verifies the construction's explicit bounds at finite truncation and
estimates the measure of the admissible amplitude set.
"""

from .field_algebra import (CoeffField, NormParams, field_multiply, load_field,
                            project_kernel, project_range, save_field, time_cutoff)
from .bifurcation import KernelField, one_mode_solution, solve_kernel
from .linearized import assemble_linearized, block_spectrum, divisor_table
from .resonance import (ConditionRecord, ResonanceParams, check_stage_conditions,
                        fit_excluded_exponent, mean_potential, measure_scan)
from .nash_moser import (ContractionError, MelnikovExcludedError, RunResult,
                         SolverConfig, SolveTrace, continue_branch, run, solve_stage,
                         solve_stage0, verify_solution)

__version__ = "0.1.0"

__all__ = [
    "CoeffField", "NormParams", "field_multiply", "project_kernel",
    "project_range", "time_cutoff", "save_field", "load_field",
    "KernelField", "one_mode_solution", "solve_kernel",
    "assemble_linearized", "block_spectrum", "divisor_table",
    "ResonanceParams", "ConditionRecord", "mean_potential",
    "check_stage_conditions",
    "measure_scan", "fit_excluded_exponent",
    "SolverConfig", "SolveTrace", "RunResult", "run", "solve_stage0",
    "solve_stage", "continue_branch", "verify_solution", "MelnikovExcludedError",
    "ContractionError",
]
