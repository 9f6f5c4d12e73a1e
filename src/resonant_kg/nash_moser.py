"""Nash-Moser iteration for the range equation and end-to-end solution assembly.

The range equation  (-omega^2 d_tt - A) w = eps P_n Pi_W (v(w) + w)^3  is
solved on dyadic time truncations L_n = L0 2^n with analyticity strips
sigma_n = sigma_{n-1} - theta/(1 + n^2) (so sigma_inf > sigma_bar/2 when
pi^2 theta / 6 < sigma_bar / 2).  Stage 0 is a plain contraction: for
eps L0 / (omega + 1) <= 1/2 the wave symbol is bounded below by 1/2 on the
truncation and the fixed-point map is a contraction.  Each later stage
inverts the linearized operator at the previous iterate (matrix-free, by the
Neumann iteration of its splitting D - eps M) and runs the Picard map

    h  <-  eps Lop^{-1} ( r_n + R_n(h) ),

with r_n the newly resolved time band of the nonlinearity and R_n its
quadratic Taylor remainder.  The kernel component v(w) is re-solved once per
stage and updated to first order inside the Picard loop (stage 0, where w
moves by O(eps) rather than O(exp(-chi^n)), re-solves it every iteration);
each stage ends with a certificate residual computed against a freshly
solved kernel and no spatial truncation.

The stage state u = v(w_n) + w_n and q = u^2 are formed once, by the
operator assembly; the Melnikov mean comes from q and Gamma(u) = u^3 is q u.
With h' = h + dv[h] the Picard step's total correction, the remainder is
formed directly as

    R_n(h) = (u + h')^3 - u^3 - 3 u^2 h' = h'^2 (3 u + h'),

two exact products with no cancellation between O(1) terms.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .bifurcation import KernelField, solve_kernel, total_field
from .field_algebra import (CoeffField, NormParams, field_multiply, project_range,
                            time_cutoff)
from .linearized import EXACT_NORM_MAX, assemble_linearized, divisor_table
from .resonance import ResonanceParams, check_stage_conditions, melnikov_mean

__all__ = [
    "SolverConfig",
    "StageRecord",
    "SolveTrace",
    "RunResult",
    "ResidualReport",
    "MelnikovExcludedError",
    "ContractionError",
    "solve_stage0",
    "solve_stage",
    "run",
    "verify_solution",
]

log = logging.getLogger(__name__)


class MelnikovExcludedError(RuntimeError):
    """The amplitude violates a stage non-resonance condition (expected event)."""

    def __init__(self, stage: int, records):
        super().__init__(f"amplitude excluded by {len(records)} Melnikov "
                         f"condition(s) at stage {stage}")
        self.stage = stage
        self.records = records


class ContractionError(RuntimeError):
    """A fixed-point loop failed to contract (amplitude too large)."""


@dataclass
class SolverConfig:
    """All solver parameters; defaults are the reported desk-scale choices."""

    eps: float
    m: int = 0
    gamma: float = 0.05
    tau: float = 1.5
    sigma_bar: float = 1.0
    s: float = 1.0
    theta: float = 0.25
    L0: int = 8
    n_max: int = 6
    J_space: int | None = None
    eps0: float = 0.1
    sign: int = +1
    kernel_tol: float = 1e-12
    picard_tol: float = 1e-13
    picard_max: int = 50
    final_h_tol: float = 0.0
    check_melnikov: bool = True
    divisor_diagnostics: bool = True

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if not 0.0 < self.gamma < 1.0 / 6.0:
            raise ValueError("gamma must lie in (0, 1/6)")
        if not 1.0 < self.tau < 2.0:
            raise ValueError("tau must lie in (1, 2)")
        if self.s <= 0.5:
            raise ValueError("s must exceed 1/2")
        if self.sigma_bar <= 0:
            raise ValueError("sigma_bar must be positive")
        if math.pi ** 2 * self.theta / 6.0 >= self.sigma_bar / 2.0:
            raise ValueError("need pi^2 theta / 6 < sigma_bar / 2")
        if self.L0 < 1 or self.n_max < 0:
            raise ValueError("L0 >= 1 and n_max >= 0 required")
        if self.J_space is None:
            self.J_space = 2 if self.m == 0 else 16 * self.m + 2
        if self.J_space < self.m:
            raise ValueError("J_space must be at least the branch mode m")

    def L(self, n: int) -> int:
        return self.L0 * 2 ** n

    def sigmas(self) -> list[float]:
        """sigma_0 = sigma_bar, sigma_n = sigma_{n-1} - theta/(1+n^2)."""
        out = [self.sigma_bar]
        for n in range(1, self.n_max + 2):
            out.append(out[-1] - self.theta / (1.0 + n * n))
        return out

    @property
    def sigma_inf(self) -> float:
        """Limit strip sigma_bar - theta * sum_{n>=1} 1/(1+n^2) > sigma_bar / 2."""
        total = (math.pi / math.tanh(math.pi) - 1.0) / 2.0
        return self.sigma_bar - self.theta * total

    @property
    def mean_smoothness_flag(self) -> bool:
        """True when s <= 3/2 (the mean functional is used outside its
        stated smoothness regime; computed anyway, flagged here)."""
        return self.s <= 1.5

    def resonance_params(self) -> ResonanceParams:
        return ResonanceParams(self.gamma, self.tau, self.eps0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StageRecord:
    """Per-stage diagnostics; serialized as one JSON line in the trace."""

    n: int
    L_n: int
    sigma_n: float
    h_norm: float
    w_norm: float
    stage_residual: float
    picard_iters: int
    contraction_ratio: float
    kernel_iters: int
    melnikov_ok: bool
    melnikov_failures: int
    inverse_norm: float
    inverse_bound: float
    r_norm: float
    r_smoothing_bound: float
    divisor_ok: bool
    divisor_min_margin: float
    discarded_norm: float
    # False when inverse_norm is a power-iteration lower bound, not exact
    inverse_norm_exact: bool = True

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)

    def to_jsonl(self, path=None) -> str:
        text = "\n".join(r.to_json() for r in self.records) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_jsonl(cls, path) -> "SolveTrace":
        records = []
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    records.append(StageRecord(**json.loads(line)))
        return cls(records)

    def h_norms(self) -> np.ndarray:
        return np.array([r.h_norm for r in self.records])


def _gamma_field(v: KernelField, w: CoeffField) -> CoeffField:
    u = total_field(v, w)
    return field_multiply(field_multiply(u, u), u)


def _range_rhs(f: CoeffField, L: int, J: int, params: NormParams):
    """P_L Pi_W with spatial truncation to J; returns (field, discarded norm)."""
    g = project_range(time_cutoff(f.padded(L, f.J), L))
    kept, discarded = g.truncate(L, J, params)
    return kept, discarded


def solve_stage0(config: SolverConfig):
    """Contraction solve of the L0-truncated range equation from w = 0.

    Requires eps L0 / (omega + 1) <= 1/2 so the wave symbol stays >= 1/2 in
    modulus on the truncation; the kernel is re-solved every iteration.
    """
    eps = config.eps
    omega = math.sqrt(1.0 + eps)
    if eps * config.L0 / (omega + 1.0) > 0.5:
        raise ContractionError(
            f"initialization precondition eps*L0/(omega+1) <= 1/2 violated "
            f"(eps={eps}, L0={config.L0})")
    L0, J = config.L0, config.J_space
    params = NormParams(config.sigma_bar, config.s)
    ell = np.arange(L0 + 1, dtype=float)
    wj = np.arange(J + 1, dtype=float) + 1.0
    symbol = omega ** 2 * ell[:, None] ** 2 - wj[None, :] ** 2
    in_range = ell[:, None] != wj[None, :]  # W excludes the resonant diagonal
    sym_min = float(np.abs(symbol[in_range & (symbol != 0.0)]).min())
    w = CoeffField.zeros(L0, J)
    kernel = solve_kernel(w, config.m, tol=config.kernel_tol, sign=config.sign,
                          J_V=J, params=params)
    if eps == 0.0:
        rec = StageRecord(n=0, L_n=L0, sigma_n=config.sigma_bar, h_norm=0.0,
                          w_norm=0.0, stage_residual=0.0, picard_iters=0,
                          contraction_ratio=0.0, kernel_iters=kernel.iterations,
                          melnikov_ok=True, melnikov_failures=0,
                          inverse_norm=1.0 / sym_min,
                          inverse_bound=2.0, r_norm=0.0, r_smoothing_bound=0.0,
                          divisor_ok=True, divisor_min_margin=float("inf"),
                          discarded_norm=0.0)
        return w, kernel, rec
    prev_delta = None
    ratio = 0.0
    discarded_total = 0.0
    iters = 0
    for iters in range(1, 120):
        gam = _gamma_field(kernel.kernel, w)
        rhs, disc = _range_rhs(gam, L0, J, params)
        discarded_total = max(discarded_total, disc)
        w_new = CoeffField(np.where(symbol != 0.0, eps * rhs.u / np.where(symbol == 0, 1, symbol), 0.0))
        w_new = project_range(w_new)
        delta = (w_new - w).norm(params)
        w_new_norm = w_new.norm(params)
        if not (math.isfinite(delta) and math.isfinite(w_new_norm)):
            raise ContractionError(f"stage-0 iteration {iters}: non-finite update")
        if prev_delta is not None and prev_delta > 0:
            ratio = delta / prev_delta
            if ratio >= 1.0 and delta > 10 * config.picard_tol:
                raise ContractionError(
                    f"stage-0 iteration is not contracting (ratio {ratio:.3f}); eps too large")
        prev_delta = delta
        w = w_new
        kernel = solve_kernel(w, config.m, tol=config.kernel_tol, sign=config.sign,
                              J_V=J, params=params, start=kernel.kernel)
        if delta < config.picard_tol * max(1.0, w_new_norm):
            break
    else:
        raise ContractionError("stage-0 fixed point did not converge")
    gam = _gamma_field(kernel.kernel, w)
    resid = w.apply_wave_symbol(omega) - eps * project_range(time_cutoff(gam, L0))
    stage_residual = resid.norm(params)
    rec = StageRecord(n=0, L_n=L0, sigma_n=config.sigma_bar,
                      h_norm=w.norm(params), w_norm=w.norm(params),
                      stage_residual=stage_residual, picard_iters=iters,
                      contraction_ratio=ratio, kernel_iters=kernel.iterations,
                      melnikov_ok=True, melnikov_failures=0,
                      inverse_norm=1.0 / sym_min,
                      inverse_bound=2.0, r_norm=0.0, r_smoothing_bound=0.0,
                      divisor_ok=True, divisor_min_margin=float("inf"),
                      discarded_norm=discarded_total)
    return w, kernel, rec


def solve_stage(n: int, w_n: CoeffField, kernel_n, config: SolverConfig):
    """One Nash-Moser stage: solve for h_{n+1} on W^(n+1), return (w, kernel, record).

    Raises MelnikovExcludedError when eps fails the stage conditions (the
    amplitude is excluded, not a numerical failure) and ContractionError when
    the Picard loop stops contracting.  Logs one INFO line per stage with the
    sizes, iteration counts and the seconds spent in each phase.
    """
    eps = config.eps
    omega = math.sqrt(1.0 + eps)
    sigmas = config.sigmas()
    L_cur, L_next = config.L(n), config.L(n + 1)
    J = config.J_space
    params_cur = NormParams(sigmas[n], config.s)
    params_next = NormParams(sigmas[n + 1], config.s)

    t_start = time.perf_counter()
    op = assemble_linearized(eps, w_n, config.m, L_next, J, kernel=kernel_n.kernel)
    t_assembled = time.perf_counter()
    ok, failures = check_stage_conditions(eps, melnikov_mean(op.q),
                                          config.resonance_params(), L_next)
    if not ok and config.check_melnikov:
        raise MelnikovExcludedError(n + 1, failures)

    u_n = op.u
    rhs_full, disc_r = _range_rhs(field_multiply(op.q, u_n), L_next, J, params_next)
    r_n = rhs_full.copy()
    r_n.u[: L_cur + 1, :] = 0.0
    r_norm = r_n.norm(params_next)
    gam_next_norm = rhs_full.norm(params_cur)
    r_smooth_bound = math.exp(-L_cur * (sigmas[n] - sigmas[n + 1])) * gam_next_norm

    t_picard = time.perf_counter()
    h = CoeffField.zeros(L_next, J)
    prev_delta = None
    ratio = 0.0
    discard_max = disc_r
    iters = 0
    for iters in range(1, config.picard_max + 1):
        dv_corr = KernelField(op.dv_matrix @ op.lattice.to_vector(h))
        h_tot = h + dv_corr.embed(L=L_next, J=J)
        taylor_rem = field_multiply(field_multiply(h_tot, h_tot), 3.0 * u_n + h_tot)
        R, disc = _range_rhs(taylor_rem, L_next, J, params_next)
        discard_max = max(discard_max, disc)
        h_new = eps * op.solve(r_n + R)
        delta = (h_new - h).norm(params_next)
        h_new_norm = h_new.norm(params_next)
        if not (math.isfinite(delta) and math.isfinite(h_new_norm)):
            raise ContractionError(f"stage {n + 1} Picard iteration {iters}: "
                                   f"non-finite update")
        if prev_delta is not None and prev_delta > 0:
            ratio = delta / prev_delta
            if ratio >= 1.0 and delta > 10 * config.picard_tol * max(1.0, h.norm(params_next)):
                raise ContractionError(
                    f"stage {n + 1} Picard map not contracting (ratio {ratio:.3f})")
        prev_delta = delta
        h = h_new
        if delta < config.picard_tol * max(1.0, h_new_norm):
            break
    else:
        raise ContractionError(f"stage {n + 1} Picard loop did not converge "
                               f"in {config.picard_max} iterations")
    t_picard = time.perf_counter() - t_picard
    picard_sweeps = op.sweeps

    w_next = w_n.padded(L_next, J) + h
    kernel_next = solve_kernel(w_next, config.m, tol=config.kernel_tol,
                               sign=config.sign, J_V=J, params=params_next,
                               start=kernel_n.kernel)
    gam_fresh = _gamma_field(kernel_next.kernel, w_next)
    resid = (w_next.padded(gam_fresh.L, gam_fresh.J).apply_wave_symbol(omega)
             - eps * project_range(time_cutoff(gam_fresh, L_next)))
    stage_residual = resid.norm(params_next)

    t_norm = time.perf_counter()
    inv_norm = op.inverse_norm(params_next)
    t_norm = time.perf_counter() - t_norm
    inv_exact = op.lattice.size <= EXACT_NORM_MAX
    inv_bound = (648.0 / config.gamma) * L_next ** (config.tau - 1.0)

    t_table = time.perf_counter()
    div_ok, div_margin = True, float("inf")
    if config.divisor_diagnostics:
        table = divisor_table(eps, op.b0, L_next, 2 * L_next, config.gamma, config.tau)
        div_ok = table.all_ok
        with np.errstate(divide="ignore"):
            div_margin = float(np.min(table.alpha / table.floor))
    t_table = time.perf_counter() - t_table
    log.info("stage %d L_n=%d unknowns=%d picard_iters=%d neumann_sweeps=%d+%d "
             "power_steps=%d assembly_s=%.3f picard_s=%.3f inverse_norm_s=%.3f "
             "divisor_table_s=%.3f", n + 1, L_next, op.lattice.size, iters, picard_sweeps,
             op.sweeps - picard_sweeps, op.power_steps, t_assembled - t_start, t_picard,
             t_norm, t_table)

    rec = StageRecord(n=n + 1, L_n=L_next, sigma_n=sigmas[n + 1],
                      h_norm=h.norm(params_next), w_norm=w_next.norm(params_next),
                      stage_residual=stage_residual, picard_iters=iters,
                      contraction_ratio=ratio, kernel_iters=kernel_next.iterations,
                      melnikov_ok=ok, melnikov_failures=len(failures),
                      inverse_norm=inv_norm, inverse_bound=inv_bound,
                      r_norm=r_norm, r_smoothing_bound=r_smooth_bound,
                      divisor_ok=div_ok, divisor_min_margin=div_margin,
                      discarded_norm=discard_max, inverse_norm_exact=inv_exact)
    return w_next, kernel_next, rec


@dataclass
class ResidualReport:
    """Norms of -omega^2 u_tt - A u - eps u^3 and the spatial decay diagnostic."""

    eps: float
    norms: dict
    u_norm: float
    relative: float
    spectral_decay: list
    superpolynomial_ok: bool

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=1, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def verify_solution(u: CoeffField, eps: float, s: float = 1.0,
                    sigma_values: tuple = (0.0, 0.5, 0.730831),
                    decay_power: float = 8.0) -> ResidualReport:
    """Exact coefficient-space residual of the rescaled equation.

    The cubic term is computed by two exact products; norms are reported at
    several analyticity widths.  The spatial profile max_l |u[l, j]| is the
    smoothness diagnostic: on the resolved window it should decay faster
    than omega_j^(-decay_power).
    """
    omega = math.sqrt(1.0 + eps)
    cube = field_multiply(field_multiply(u, u), u)
    resid = u.padded(cube.L, cube.J).apply_wave_symbol(omega) - eps * cube
    norms = {}
    for sig in sigma_values:
        p = NormParams(sig, s)
        norms[f"sigma={sig:g},s={s:g},r=2"] = resid.norm(p)
    main = norms[f"sigma={sigma_values[-1]:g},s={s:g},r=2"]
    u_norm = u.norm(NormParams(sigma_values[-1], s))
    profile = np.max(np.abs(u.u), axis=0)
    decay = [(int(j), float(profile[j])) for j in range(len(profile))]
    nz = np.nonzero(profile > 0)[0]
    super_ok = True
    if len(nz) >= 4:
        half = nz[len(nz) // 2]
        wj = np.arange(len(profile), dtype=float) + 1.0
        ref = profile[half] * (wj / (half + 1.0)) ** (-decay_power)
        super_ok = bool(np.all(profile[nz[nz > half]] <= ref[nz[nz > half]] + 1e-300))
    scale = max(u_norm ** 3, 1e-300)
    return ResidualReport(eps=eps, norms=norms, u_norm=u_norm,
                          relative=main / scale, spectral_decay=decay,
                          superpolynomial_ok=super_ok)


@dataclass
class RunResult:
    config: SolverConfig
    w: CoeffField
    kernel: KernelField
    u: CoeffField
    trace: SolveTrace
    residual: ResidualReport


def run(config: SolverConfig) -> RunResult:
    """Full pipeline: stage 0, stages 1..n_max, assembly and verification.

    The assembled solution is u = v(w) + w in rescaled variables; the
    physical solution of amplitude eps is sqrt(eps) u(omega t, x).
    """
    trace = SolveTrace()
    w, kernel, rec = solve_stage0(config)
    trace.records.append(rec)
    for n in range(config.n_max):
        w, kernel, rec = solve_stage(n, w, kernel, config)
        trace.records.append(rec)
        if config.final_h_tol > 0 and rec.h_norm < config.final_h_tol:
            break
    u = total_field(kernel.kernel, w)
    sig_values = (0.0, config.sigma_bar / 2.0, round(config.sigma_inf, 6))
    residual = verify_solution(u, config.eps, s=config.s, sigma_values=sig_values)
    return RunResult(config=config, w=w, kernel=kernel.kernel, u=u,
                     trace=trace, residual=residual)
