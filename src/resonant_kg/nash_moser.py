"""Nash-Moser iteration for the range equation and end-to-end solution assembly.

The range equation  (-omega^2 d_tt - A) w = eps P_n Pi_W (v(w) + w)^3  is
solved on dyadic time truncations L_n = L0 2^n with analyticity strips
sigma_n = sigma_{n-1} - theta/(1 + n^2) (so sigma_inf > sigma_bar/2 when
pi^2 theta / 6 < sigma_bar / 2).  Stage 0 is a plain contraction (see
`stage0_contracts`).  Each later stage is a solve and its certificate.  The
solve inverts the linearized operator at the previous iterate (matrix-free,
by the Neumann iteration of its splitting D - eps M) and runs the Picard map

    h  <-  eps Lop^{-1} ( r_n + R_n(h) ),

with r_n the newly resolved time band of the nonlinearity, plus the defect
that the previous stage's first-order kernel left on the old band, and R_n
its quadratic Taylor remainder.  The kernel component v(w) is re-solved once per
stage and updated to first order inside the Picard loop (stage 0, where w
moves by O(eps) rather than O(exp(-chi^n)), re-solves it every iteration).
The certificate is the Melnikov check, before the solve so that an excluded
amplitude costs no Picard work, then the residual at a freshly solved kernel
with no spatial truncation, both ends of the inverse norm, their bound and
the divisor table.  `run` certifies every stage; `continue_branch` runs the
solves alone: `measure`'s mean curve is this uncertified continuation.

Stage 0 and the later stages run one fixed-point loop, `_contract`, each
passing it its own step.  One function, `_residual`, forms the residual of
the equation, for the certificate of every stage and for `verify_solution`.

The kernel solve forms the cube u^3 of each state u = v(w) + w it settles:
stage 0's step, every stage residual and the next stage's Gamma(u) read it.
The assembly squares the stage state again, for its q = u^2 and the Melnikov mean.
With h' = h + dv[h] the Picard step's total correction, the remainder is
formed directly as

    R_n(h) = (u + h')^3 - u^3 - 3 u^2 h' = h'^2 (3 u + h'),

two exact products with no cancellation between O(1) terms.
"""

from __future__ import annotations

import json
import logging
import math
import resource
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .bifurcation import KernelField, solve_kernel, total_field
from .field_algebra import (CoeffField, NormParams, field_multiply, kernel_mask,
                            project_range, time_cutoff, wave_symbol)
from .linearized import assemble_linearized, divisor_table
from .resonance import ResonanceParams, check_stage_conditions, melnikov_mean

__all__ = [
    "SolverConfig",
    "StageRecord",
    "SolveTrace",
    "RunResult",
    "ResidualReport",
    "MelnikovExcludedError",
    "ContractionError",
    "stage0_contracts",
    "solve_stage0",
    "solve_stage",
    "continue_branch",
    "run",
    "verify_solution",
]

log = logging.getLogger(__name__)

PICARD_TOL = 1e-13
PICARD_MAX = 50
DECAY_POWER = 8.0  # verify_solution's spatial profile should decay faster than omega_j^-8


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

    def __post_init__(self):
        for name in ("eps", "gamma", "tau", "sigma_bar", "s", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        self.resonance_params()  # gamma in (0, 1/6), tau in (1, 2)
        if self.s <= 0.5:
            raise ValueError("s must exceed 1/2")
        if self.sigma_bar <= 0:
            raise ValueError("sigma_bar must be positive")
        if not 0.0 < math.pi ** 2 * self.theta / 6.0 < self.sigma_bar / 2.0:  # strips shrink
            raise ValueError("need 0 < pi^2 theta / 6 < sigma_bar / 2")
        if self.L0 < 1 or self.n_max < 0:
            raise ValueError("L0 >= 1 and n_max >= 0 required")
        if self.m < 0:
            raise ValueError("m must be >= 0")
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

    def resonance_params(self) -> ResonanceParams:
        return ResonanceParams(self.gamma, self.tau)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StageRecord:
    """Per-stage certificate; serialized as one JSON line in the trace."""

    n: int
    L_n: int
    sigma_n: float
    h_norm: float
    w_norm: float
    stage_residual: float
    picard_iters: int
    kernel_iters: int
    melnikov_ok: bool  # always true (a failing stage raises); the benchmark's gate reads it
    inverse_norm: float
    # an upper bound on the norm that inverse_norm bounds from below
    inverse_norm_upper: float
    inverse_bound: float
    r_norm: float
    r_smoothing_bound: float
    divisor_ok: bool
    divisor_min_margin: float
    discarded_norm: float

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


def _range_rhs(f: CoeffField, L: int, J: int, params: NormParams):
    """P_L Pi_W with spatial truncation to J; returns (field, discarded norm)."""
    return project_range(time_cutoff(f.padded(L, f.J), L)).truncate(L, J, params)


def _contract(step, x: CoeffField, params: NormParams, label: str):
    """Iterate x <- step(x) to its fixed point; return (x, iterations).

    Stops once an update is below PICARD_TOL max(1, ||x||).  Raises
    ContractionError, naming `label`, on a non-finite update, on an update
    that grows while above ten times that level, and after PICARD_MAX
    iterations.
    """
    prev_delta = None
    for iters in range(1, PICARD_MAX + 1):
        x_new = step(x)
        delta = (x_new - x).norm(params)
        x_new_norm = x_new.norm(params)
        if not (math.isfinite(delta) and math.isfinite(x_new_norm)):
            raise ContractionError(f"{label} iteration {iters}: non-finite update")
        if prev_delta is not None and prev_delta > 0:
            ratio = delta / prev_delta
            if ratio >= 1.0 and delta > 10 * PICARD_TOL * max(1.0, x.norm(params)):
                raise ContractionError(f"{label} iteration {iters}: not contracting "
                                       f"(ratio {ratio:.3f})")
        prev_delta = delta
        x = x_new
        if delta < PICARD_TOL * max(1.0, x_new_norm):
            return x, iters
    raise ContractionError(f"{label} loop did not converge in {PICARD_MAX} iterations")


def _residual(u: CoeffField, cube: CoeffField, eps: float) -> CoeffField:
    """(-omega^2 d_tt - A) u - eps u^3, given the cube u^3 (on u's lattice or larger)."""
    return u.padded(cube.L, cube.J).apply_wave_symbol(math.sqrt(1.0 + eps)) - eps * cube


def _stage_residual(w: CoeffField, kernel, L: int, eps: float, params: NormParams) -> float:
    """Norm of P_L Pi_W of the residual (no J truncation) at kernel's state v + w and cube u^3."""
    u = total_field(kernel.kernel, w)
    return project_range(time_cutoff(_residual(u, kernel.cube, eps), L)).norm(params)


def stage0_contracts(eps: float, L0: int) -> bool:
    """Stage 0's precondition eps L0 / (omega + 1) <= 1/2, omega = sqrt(1 + eps).

    It keeps the wave symbol >= 1/2 in modulus on the L0 truncation.
    """
    return eps * L0 / (math.sqrt(1.0 + eps) + 1.0) <= 0.5


def solve_stage0(config: SolverConfig):
    """Contraction solve of the L0-truncated range equation from w = 0.

    Requires `stage0_contracts(eps, L0)`; each step re-solves the kernel at
    the current w.  At eps = 0 the solution is w = 0 and no step is taken.
    """
    eps = config.eps
    if not stage0_contracts(eps, config.L0):
        raise ContractionError(
            f"initialization precondition eps*L0/(omega+1) <= 1/2 violated "
            f"(eps={eps}, L0={config.L0})")
    L0, J = config.L0, config.J_space
    params = NormParams(config.sigma_bar, config.s)
    symbol = wave_symbol(math.sqrt(1.0 + eps), L0, J)
    in_range = ~kernel_mask(L0, J)  # W excludes the resonant diagonal
    sym_min = float(np.abs(symbol[in_range & (symbol != 0.0)]).min())
    kernel = None
    discarded = 0.0

    def resolve_kernel(w):
        nonlocal kernel
        kernel = solve_kernel(w, config.m, J_V=J, params=params,
                              start=None if kernel is None else kernel.kernel)
        return kernel.cube

    def step(w):
        nonlocal discarded
        rhs, disc = _range_rhs(resolve_kernel(w), L0, J, params)
        discarded = max(discarded, disc)
        return project_range(CoeffField(np.where(
            symbol != 0.0, eps * rhs.u / np.where(symbol == 0, 1, symbol), 0.0)))

    w, iters = CoeffField.zeros(L0, J), 0
    if eps != 0.0:
        w, iters = _contract(step, w, params, "stage-0")
    resolve_kernel(w)
    w_norm = w.norm(params)
    rec = StageRecord(n=0, L_n=L0, sigma_n=config.sigma_bar, h_norm=w_norm, w_norm=w_norm,
                      stage_residual=_stage_residual(w, kernel, L0, eps, params),
                      picard_iters=iters, kernel_iters=kernel.iterations, melnikov_ok=True,
                      inverse_norm=1.0 / sym_min, inverse_norm_upper=1.0 / sym_min,
                      inverse_bound=2.0, r_norm=0.0,
                      r_smoothing_bound=0.0, divisor_ok=True,
                      divisor_min_margin=float("inf"), discarded_norm=discarded)
    return w, kernel, rec


def _stage_solve(n: int, w_n: CoeffField, kernel_n, op, config: SolverConfig):
    """Stage n + 1's Picard loop at its assembled operator `op`, then its kernel.

    Returns (w, kernel, h, seconds of the loop, the StageRecord fields it fixes).
    """
    eps, sigmas = config.eps, config.sigmas()
    L_cur, L_next, J = config.L(n), config.L(n + 1), config.J_space
    params_next = NormParams(sigmas[n + 1], config.s)

    rhs_full, discarded = _range_rhs(kernel_n.cube, L_next, J, params_next)
    r_n = rhs_full.copy()
    r_n.u[: L_cur + 1, :] = 0.0
    r_norm = r_n.norm(params_next)
    if eps != 0.0:
        # symbol w_n = eps Gamma held on l <= L_cur only up to the kernel's
        # first-order update in stage n's Picard loop; that defect joins r_n.
        # Stage n solved for w_n to PICARD_TOL relative, so a difference below
        # PICARD_TOL times its two terms is the residue of that stop (their
        # rounding lies far below it), not this defect, and stays 0; so does a
        # subnormal one, which carries no relative accuracy (a subnormal w_n
        # entry, times symbol / eps, leaves such noise in lhs).
        lhs = wave_symbol(math.sqrt(1.0 + eps), L_cur, J) * w_n.padded(L_cur, J).u / eps
        gam = rhs_full.u[: L_cur + 1, :]
        d = gam - lhs
        noise = np.maximum(PICARD_TOL * (np.abs(gam) + np.abs(lhs)), np.finfo(float).tiny)
        r_n.u[: L_cur + 1, :] = np.where(np.abs(d) > noise, d, 0.0)
    r_smooth_bound = (math.exp(-L_cur * (sigmas[n] - sigmas[n + 1]))
                      * rhs_full.norm(NormParams(sigmas[n], config.s)))

    def step(h):
        nonlocal discarded
        h_tot = h + KernelField(op.dv_matrix @ op.lattice.to_vector(h)).embed(L=L_next, J=J)
        taylor_rem = field_multiply(field_multiply(h_tot, h_tot), 3.0 * op.u + h_tot)
        R, disc = _range_rhs(taylor_rem, L_next, J, params_next)
        discarded = max(discarded, disc)
        return eps * op.solve(r_n + R)

    t_picard = time.perf_counter()
    h, iters = _contract(step, CoeffField.zeros(L_next, J), params_next, f"stage {n + 1} Picard")
    t_picard = time.perf_counter() - t_picard

    w_next = w_n.padded(L_next, J) + h
    kernel_next = solve_kernel(w_next, config.m, J_V=J, params=params_next, start=kernel_n.kernel)
    facts = dict(picard_iters=iters, discarded_norm=discarded, r_norm=r_norm,
                 r_smoothing_bound=r_smooth_bound)
    return w_next, kernel_next, h, t_picard, facts


def solve_stage(n: int, w_n: CoeffField, kernel_n, config: SolverConfig,
                start: np.ndarray | None = None):
    """One Nash-Moser stage: solve for h_{n+1} on W^(n+1) and certify it.

    Returns (w, kernel, record, stats, top): stats holds the sizes, iteration
    counts and seconds per phase, also logged as one INFO line, and top is the
    inverse norm's top singular vector, the `start` of the next stage's norm.
    Raises MelnikovExcludedError when eps fails the stage conditions (an
    excluded amplitude, not a numerical failure) and ContractionError when
    the Picard loop stops contracting.
    """
    eps, L_next = config.eps, config.L(n + 1)
    params_next = NormParams(config.sigmas()[n + 1], config.s)

    t_start = time.perf_counter()
    op = assemble_linearized(eps, w_n, kernel_n.kernel, L_next, config.J_space)
    t_assembled = time.perf_counter()
    failures = check_stage_conditions(eps, melnikov_mean(op.q), config.resonance_params(), L_next)
    if failures:
        raise MelnikovExcludedError(n + 1, failures)

    w_next, kernel_next, h, t_picard, facts = _stage_solve(n, w_n, kernel_n, op, config)
    picard_sweeps = op.sweeps
    stage_residual = _stage_residual(w_next, kernel_next, L_next, eps, params_next)

    t_norm = time.perf_counter()
    inv_norm = op.inverse_norm(params_next, start=start)
    t_norm = time.perf_counter() - t_norm

    t_table = time.perf_counter()
    table = divisor_table(eps, op.b0, L_next, 2 * L_next, config.gamma, config.tau)
    with np.errstate(divide="ignore"):
        div_margin = float(np.min(table.alpha / table.floor))
    t_table = time.perf_counter() - t_table
    stats = dict(stage=n + 1, L_n=L_next, unknowns=op.lattice.size,
                 picard_iters=facts["picard_iters"], picard_unknowns=int(op.solved.sum()),
                 picard_sweeps=picard_sweeps, norm_sweeps=op.sweeps - picard_sweeps,
                 power_steps=op.power_steps, krylov_block=op.krylov_block,
                 upper_terms=op.upper_terms, assembly_s=t_assembled - t_start, picard_s=t_picard,
                 inverse_norm_s=t_norm, divisor_table_s=t_table,
                 peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    log.info("stage %(stage)d L_n=%(L_n)d unknowns=%(unknowns)d picard_iters=%(picard_iters)d "
             "picard_unknowns=%(picard_unknowns)d neumann_sweeps=%(picard_sweeps)d+%(norm_sweeps)d "
             "power_steps=%(power_steps)d krylov_block=%(krylov_block)d "
             "upper_terms=%(upper_terms)d assembly_s=%(assembly_s).3f picard_s=%(picard_s).3f "
             "inverse_norm_s=%(inverse_norm_s).3f divisor_table_s=%(divisor_table_s).3f "
             "peak_rss_mb=%(peak_rss_mb).1f", stats)

    rec = StageRecord(n=n + 1, L_n=L_next, sigma_n=params_next.sigma,
                      h_norm=h.norm(params_next), w_norm=w_next.norm(params_next),
                      stage_residual=stage_residual, kernel_iters=kernel_next.iterations,
                      melnikov_ok=True, inverse_norm=inv_norm, inverse_norm_upper=op.upper,
                      inverse_bound=(648.0 / config.gamma) * L_next ** (config.tau - 1.0),
                      divisor_ok=table.all_ok, divisor_min_margin=div_margin, **facts)
    return w_next, kernel_next, rec, stats, op.top_vector


def continue_branch(config: SolverConfig):
    """`run`'s w and kernel v, bit for bit, from its solves alone: returns (w, v).

    No Melnikov check, inverse norm or divisor table runs, so an amplitude
    that `run` excludes is continued too.
    """
    w, kernel, _ = solve_stage0(config)
    for n in range(config.n_max):
        op = assemble_linearized(config.eps, w, kernel.kernel, config.L(n + 1), config.J_space)
        w, kernel, *_ = _stage_solve(n, w, kernel, op, config)
    return w, kernel.kernel


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


def verify_solution(u: CoeffField, config: SolverConfig) -> ResidualReport:
    """Exact coefficient-space residual of the rescaled equation at config.eps.

    The cubic term is computed by two exact products; norms are reported at
    the analyticity widths 0, sigma_bar / 2 and sigma_inf (rounded to 6
    digits), with the Sobolev index config.s.  The spatial profile
    max_l |u[l, j]| is the smoothness diagnostic: on the resolved window it
    should decay faster than omega_j^(-DECAY_POWER).
    """
    eps, s = config.eps, config.s
    sigma_values = (0.0, config.sigma_bar / 2.0, round(config.sigma_inf, 6))
    resid = _residual(u, field_multiply(field_multiply(u, u), u), eps)
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
        ref = profile[half] * (wj / (half + 1.0)) ** (-DECAY_POWER)
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
    # solve_stage's stats of stages 1..n_max: timings stay out of the trace
    stages: list


def run(config: SolverConfig) -> RunResult:
    """Full pipeline: stage 0, the certified stages 1..n_max, assembly and verification.

    Each stage's inverse norm starts from the previous stage's top singular
    vector; `stages` collects the stats of every stage.  The assembled
    solution is u = v(w) + w in rescaled variables; the physical solution of
    amplitude eps is sqrt(eps) u(omega t, x).
    """
    trace, stages, top = SolveTrace(), [], None
    w, kernel, rec = solve_stage0(config)
    trace.records.append(rec)
    for n in range(config.n_max):
        w, kernel, rec, stats, top = solve_stage(n, w, kernel, config, top)
        trace.records.append(rec)
        stages.append(stats)
    u = total_field(kernel.kernel, w)
    return RunResult(config=config, w=w, kernel=kernel.kernel, u=u, trace=trace,
                     residual=verify_solution(u, config), stages=stages)
