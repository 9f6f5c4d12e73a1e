"""Acceptance suite: one test, one PASS/FAIL line and one JSON line of its numbers per criterion.

Each criterion is asserted at its stated tolerance.  Expensive runs are
computed once in module-scoped fixtures and shared.

Criteria 4 and 6 check one-sided rates of one-sided bounds: the stage bound
||h_n|| <= (eps/gamma) exp(-chi^n) and the excluded-mass bound
C gamma eta^((tau+1)/2) are upper bounds, so each fitted rate must reach the
bound's rate within its tolerance and may exceed it.  The sharp rates (log 2
for the stage decay, tau - 1 for the excluded fraction) are printed for
information only.  The pass/fail decision of each lives in a helper that a
negative control feeds with data the check must reject.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from resonant_kg import CoeffField, NormParams, SolverConfig, run
from resonant_kg.bifurcation import KernelField, one_mode_solution, solve_kernel
from resonant_kg.cli import _mean_curve
from resonant_kg.linearized import assemble_linearized, block_spectrum, divisor_table
from resonant_kg.resonance import ResonanceParams, fit_excluded_exponent, measure_scan
from resonant_kg.spherical_basis import eigen_product, mean_integral

from conftest import profile_norm, profile_product, quad_triple, random_field
from oracles import (bif_block, block_determinant, kernel_residual, linearize_kernel,
                     pairwise_divisor_constant, preconditioned_split_check,
                     smoothing_bound_check, sobolev_embedding_constant, sobolev_trade_check)

GAMMA, TAU = 0.05, 1.5
CHI = 1.5


def _plain(value):
    """value as JSON data: numpy scalars and arrays as Python ones, non-finite floats as null."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    value = np.asarray(value).item()
    return None if isinstance(value, float) and not np.isfinite(value) else value


def report(criterion: str, ok: bool, detail: str = "", **numbers):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    print(json.dumps({"criterion": criterion, "pass": bool(ok)} | _plain(numbers)))
    return ok


@pytest.fixture(scope="module")
def default_run():
    """Converged run at the documented defaults (eps = 1e-3, m = 0)."""
    t0 = time.perf_counter()
    result = run(SolverConfig(eps=1e-3, m=0))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def convergence_runs(default_run):
    """Admissible runs for the stage-decay criterion."""
    runs = {1e-3: default_run}
    for eps in (1e-4, 3e-4):
        t0 = time.perf_counter()
        result = run(SolverConfig(eps=eps, m=0))
        runs[eps] = (result, time.perf_counter() - t0)
    return runs


def test_criterion_1_exact_identities():
    ok = True
    detail = []
    # product rule against the quadrature oracle, all j, k <= 16
    worst = 0.0
    for j in range(17):
        for k in range(j, 17):
            p = eigen_product(j, k)
            for ell in range(j + k + 1):
                worst = max(worst, abs(p[ell] - quad_triple(j, k, ell)))
    ok &= worst < 1e-10
    detail.append(f"product-rule err {worst:.1e}")
    # <e_m^3, e_m> = omega_m for m <= 10
    cube_err = 0.0
    for m in range(11):
        em = np.eye(m + 1)[m]
        cube = profile_product(profile_product(em, em), em)
        cube_err = max(cube_err, abs(cube[m] - (m + 1)))
    ok &= cube_err < 1e-10
    detail.append(f"cube-inner err {cube_err:.1e}")
    # one-mode solutions solve the kernel equation to machine precision
    res_err = 0.0
    for m in range(6):
        for sign in (+1, -1):
            v = KernelField(sign * one_mode_solution(m).v)
            r = kernel_residual(v, CoeffField.zeros(1, v.J))
            res_err = max(res_err, np.abs(r.v).max() / (m + 1) ** 3)
    ok &= res_err < 1e-13
    detail.append(f"kernel-residual err {res_err:.1e}")
    # block determinants, exactly, in integer arithmetic
    det_exact = True
    for m in range(1, 11):
        for j in range(m):
            B = bif_block(m, j).astype(object)
            det = int(B[0, 0]) * int(B[1, 1]) - int(B[0, 1]) * int(B[1, 0])
            det_exact &= det == block_determinant(m, j)
    ok &= det_exact
    # nondegeneracy and the eigenvalue window
    window_ok = True
    for m in range(11):
        J = 2 * m + 20
        Lk = linearize_kernel(one_mode_solution(m, J_V=J), CoeffField.zeros(1, J))
        lam = np.linalg.eigvalsh(Lk)
        window_ok &= np.min(np.abs(lam)) > 1e-6
        for j in range(2 * m + 1, J + 1):
            # at j = 2m+1 the eigenvalue sits exactly on the lower edge; the
            # one-ulp guard covers the rounding of alpha_m^2 = 4 omega_m / 3
            wj2 = (j + 1.0) ** 2
            window_ok &= 0.5 * wj2 * (1 - 1e-12) <= abs(Lk[j, j]) <= wj2 * (1 + 1e-12)
    ok &= window_ok
    assert report("1 (exact identities)", ok, "; ".join(detail), product_rule_err=worst,
                  cube_inner_err=cube_err, kernel_residual_err=res_err)


def test_criterion_2_sturm_liouville_bound(rng):
    t0 = time.perf_counter()
    delta = 0.5
    C = 2.0 * sobolev_embedding_constant(delta)
    profiles = {
        "e0": np.array([1.0]),
        "e2": np.array([0.0, 0.0, 1.0]),
        "random_J8": rng.standard_normal(9) * 0.4,
    }
    ok = True
    worst = 0.0
    for name, b0 in profiles.items():
        nb = profile_norm(b0, 2.0)
        mean = mean_integral(b0)
        for eps in (1e-3, 1e-2):
            for ell in (0, 3, 10):
                js, lam, _ = block_spectrum(eps, b0, ell, 256)
                drift = np.abs(lam - (js + 1.0) ** 2 - eps * mean)
                bound = C * eps * nb / (js + 1.0) ** (1.0 - delta)
                margin = np.max(drift / bound)
                worst = max(worst, margin)
                ok &= bool(np.all(drift <= bound))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report("2 (Sturm-Liouville drift bound)", ok,
                  f"max drift/bound {worst:.3f}, {elapsed:.1f}s at J_max=256",
                  max_drift_over_bound=worst, elapsed_s=elapsed, J_max=256)


def test_criterion_3_linearized_inverse_bound(default_run):
    result, _ = default_run
    cfg = result.config
    ok = True
    worst = spread = 0.0
    # the lower end (Krylov) and the upper end (Neumann majorant) bracket the
    # norm at every stage of m = 0, 1 and 2, and the upper end meets the bound
    records = result.trace.records[1:]
    for m, stages in ((1, 5), (2, 4)):
        records += run(SolverConfig(eps=2e-3, m=m, n_max=stages)).trace.records[1:]
    for rec in records:
        worst = max(worst, rec.inverse_norm_upper / rec.inverse_bound)
        spread = max(spread, rec.inverse_norm_upper / rec.inverse_norm)
        ok &= rec.inverse_norm <= rec.inverse_norm_upper <= rec.inverse_bound
    # Neumann-series inverse against the dense inverse on the converged state
    w32 = result.w.truncate(32, cfg.J_space, NormParams(0.5, 1.0))[0]
    op = assemble_linearized(cfg.eps, w32, solve_kernel(w32, cfg.m, J_V=cfg.J_space).kernel,
                             32, cfg.J_space)
    rep = preconditioned_split_check(op, NormParams(0.5, cfg.s), GAMMA, TAU)
    ok &= rep.neumann_converged and rep.neumann_vs_dense <= 1e-8
    assert report("3 (linearized inverse bound)", ok,
                  f"max upper end/bound {worst:.2e}; max upper/lower end {spread:.4f}; "
                  f"Neumann vs dense {rep.neumann_vs_dense:.1e}",
                  max_upper_over_bound=worst, max_upper_over_lower=spread,
                  neumann_vs_dense=rep.neumann_vs_dense, stages=len(records))


SLOPE_MIN = (1.0 - 0.15) * np.log(CHI)


def stage_decay_verdict(ratios):
    """Criterion 4 on the stage ratios gamma h_n / eps, n = 0, 1, ...

    Every stage must meet the bound ratio_n <= exp(-chi^n), and the slope of
    log(-log ratio_n) against n, fitted over the stages n >= 1 with
    0 < ratio_n < 1, must be at least SLOPE_MIN.  Returns
    (bound_ok, slope_ok, slope, stages used in the fit).
    """
    n = np.arange(len(ratios))
    bound_ok = bool(np.all(ratios <= np.exp(-CHI ** n) * (1 + 1e-12)))
    # stages whose h_norm underflowed to 0 carry no rate information
    mask = (n >= 1) & (ratios > 0) & (ratios < 1)
    slope = np.nan
    if mask.sum() >= 2:
        slope = float(np.polyfit(n[mask], np.log(-np.log(ratios[mask])), 1)[0])
    slope_ok = bool(np.isfinite(slope) and slope >= SLOPE_MIN)
    return bound_ok, slope_ok, slope, int(mask.sum())


def test_criterion_4_nash_moser_convergence(convergence_runs):
    ok = True
    details, runs = [], []
    for eps, (result, elapsed) in sorted(convergence_runs.items()):
        bound_ok, slope_ok, slope, n_fit = stage_decay_verdict(
            GAMMA * np.array([r.h_norm for r in result.trace.records]) / eps)
        resid_ok = result.residual.relative <= 1e-8
        time_ok = elapsed < 600.0
        details.append(f"eps={eps:g}: slope {slope:.3f} over {n_fit} stages"
                       f" (>= {SLOPE_MIN:.3f}){'' if slope_ok else ' OUT'},"
                       f" bound {'ok' if bound_ok else 'VIOLATED'},"
                       f" residual {result.residual.relative:.1e}, {elapsed:.0f}s")
        runs.append({"eps": eps, "slope": slope, "fit_stages": n_fit, "bound_ok": bound_ok,
                     "residual": result.residual.relative, "elapsed_s": elapsed})
        ok &= bound_ok and slope_ok and resid_ok and time_ok
    details.append(f"sharp rate log 2 = {np.log(2.0):.3f} (not asserted)")
    assert report("4 (stage decay rate)", ok, "; ".join(details), slope_min=SLOPE_MIN,
                  sharp_rate=np.log(2.0), runs=runs)


def test_criterion_4_rejects_geometric_decay():
    # geometric decay meets the per-stage bound through stage 6 but is far
    # slower than any chi^n double-exponential rate
    bound_ok, slope_ok, slope, _ = stage_decay_verdict(np.exp(-1.0) * 10.0 ** -np.arange(7.0))
    assert bound_ok
    assert not slope_ok and slope < SLOPE_MIN


def test_criterion_5_solution_shape():
    eps_grid = np.geomspace(1e-3, 1e-2, 5)
    params = NormParams(0.5, 1.0)
    ok = True
    details, exponents = [], []
    results = {}
    for m in (0, 1):
        sizes = []
        for eps in eps_grid:
            res = run(SolverConfig(eps=float(eps), m=m, n_max=3))
            results[(m, float(eps))] = res
            lead = CoeffField.zeros(res.u.L, res.u.J)
            lead.u[m + 1, m] = res.u.u[m + 1, m]
            rem = res.u - lead
            sizes.append(np.sqrt(eps) * rem.norm(params))  # unscaled remainder
        slope = float(np.polyfit(np.log(eps_grid), np.log(sizes), 1)[0])
        ok &= abs(slope - 1.5) <= 0.15
        details.append(f"m={m}: remainder exponent {slope:.3f}")
        exponents.append(slope)
    diff = (results[(0, 1e-3)].u - results[(1, 1e-3)].u).norm(params)
    alpha0 = np.sqrt(4.0 / 3.0)
    ok &= diff >= 0.9 * alpha0
    details.append(f"branch distance {diff:.3f} >= {0.9 * alpha0:.3f}")
    assert report("5 (solution shape)", ok, "; ".join(details), remainder_exponents=exponents,
                  branch_distance=diff, distance_min=0.9 * alpha0)


@pytest.fixture(scope="module")
def mean_curve():
    """Piecewise-linear branch mean M(w(eps)), as `measure` interpolates it."""
    grid = np.linspace(1e-6, 0.04, 5)
    values = _mean_curve(grid, 0)
    return lambda e: np.interp(e, grid, values)


EXPO_MIN = (TAU - 1.0) / 2.0 - 0.2


def measure_verdict(reports):
    """Criterion 6 on measure_scan reports, ordered by decreasing eta.

    The exponent of the excluded fraction fitted against eta must be at least
    EXPO_MIN; the bound ratio (excluded_mass + tail_mass_bound) /
    paper_bound_scale must not increase as eta decreases; Monte Carlo and
    interval union must agree within two standard errors of a fraction.
    Returns (expo_ok, mass_ok, mc_ok, exponent, bound ratios, MC-union
    max difference).
    """
    expo = fit_excluded_exponent(reports)
    ratios = np.array([(r.excluded_mass + r.tail_mass_bound) / r.paper_bound_scale
                       for r in reports])
    mc_diffs = [abs(r.fraction_mc - r.fraction_interval) for r in reports]
    mc_ok = all(d <= 2.0 / np.sqrt(r.samples) for d, r in zip(mc_diffs, reports))
    return (expo >= EXPO_MIN, bool(np.all(np.diff(ratios) <= 0.0)), mc_ok,
            expo, ratios, max(mc_diffs))


def test_criterion_6_measure_asymptotics(mean_curve):
    t0 = time.perf_counter()
    params = ResonanceParams(GAMMA, TAU, eps0=0.05)
    samples = 100000
    reports = [measure_scan(eta, samples, params, mean_curve)
               for eta in (0.04, 0.02, 0.01, 0.005)]
    expo_ok, mass_ok, mc_ok, expo, ratios, mc_diff = measure_verdict(reports)
    elapsed = time.perf_counter() - t0
    ok = expo_ok and mass_ok and mc_ok and elapsed < 300.0
    assert report("6 (measure asymptotics)", ok,
                  f"exponent {expo:.3f} (>= {EXPO_MIN:.2f}){'' if expo_ok else ' OUT'},"
                  f" sharp tau-1 = {TAU - 1.0:.2f} (not asserted);"
                  f" (mass+tail)/scale {' '.join(f'{q:.2f}' for q in ratios)}"
                  f" {'non-increasing' if mass_ok else 'INCREASING'};"
                  f" MC-union max diff {mc_diff:.2e}; {elapsed:.0f}s",
                  exponent=expo, exponent_min=EXPO_MIN, sharp_exponent=TAU - 1.0,
                  bound_ratios=ratios, ratios_non_increasing=mass_ok, mc_union_max_diff=mc_diff,
                  elapsed_s=elapsed)


def test_criterion_6_rejects_flat_excluded_fraction():
    # an excluded fraction of 0.1 at every eta: exponent 0, and a mass that
    # outgrows gamma eta^((tau+1)/2) as eta decreases
    reports = [SimpleNamespace(eta=eta, excluded_mass=0.1 * eta, tail_mass_bound=0.0,
                               paper_bound_scale=GAMMA * eta ** ((TAU + 1.0) / 2.0),
                               fraction_interval=0.9, fraction_mc=0.9, samples=100000)
               for eta in (0.04, 0.02, 0.01, 0.005)]
    expo_ok, mass_ok, mc_ok, expo, _, _ = measure_verdict(reports)
    assert abs(expo) < 1e-12 and not expo_ok
    assert not mass_ok
    assert mc_ok


def test_criterion_7_small_divisors(default_run):
    result, _ = default_run
    cfg = result.config
    ok = all(rec.divisor_ok for rec in result.trace.records)
    # empirical pairwise-product constant at the final stage
    u = result.kernel.embed(L=max(result.w.L, result.kernel.J + 1),
                            J=max(result.w.J, result.kernel.J)) + result.w
    from resonant_kg.field_algebra import field_multiply
    b0 = 3.0 * field_multiply(u, u).u[0]
    L_fin = result.w.L
    table = divisor_table(cfg.eps, b0, L_fin, 2 * L_fin, GAMMA, TAU)
    ok &= table.all_ok
    cbar = pairwise_divisor_constant(table)
    ok &= np.isfinite(cbar)
    margin = float(np.min(table.alpha / table.floor))
    assert report("7 (small-divisor floor and products)", ok,
                  f"min alpha/floor {margin:.1f}; empirical C-bar {cbar:.3e}",
                  min_alpha_over_floor=margin, c_bar=cbar)


def test_criterion_8_smoothing_and_trade(rng):
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        L_n = int(rng.integers(2, 20))
        L = L_n + int(rng.integers(1, 30))
        tail = random_field(rng, L, int(rng.integers(0, 5)), decay=0.1)
        tail.u[: L_n + 1, :] = 0.0
        sigma = float(rng.uniform(0.05, 1.0))
        sigma_p = float(rng.uniform(0.0, sigma))
        ok &= bool(smoothing_bound_check(tail, sigma, sigma_p, L_n,
                                         s=float(rng.uniform(0.6, 2.0))))
    for _ in range(1000):
        f = random_field(rng, int(rng.integers(1, 25)), int(rng.integers(0, 6)),
                         decay=0.1)
        sigma = float(rng.uniform(0.1, 1.0))
        alpha = float(rng.uniform(0.0, sigma))
        beta = float(rng.uniform(0.0, 3.0))
        ok &= bool(sobolev_trade_check(f, alpha, beta, sigma,
                                       s=float(rng.uniform(0.6, 2.0))))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert report("8 (smoothing and trade estimates)", ok,
                  f"2000 random fields, {elapsed:.1f}s", fields=2000, elapsed_s=elapsed)
