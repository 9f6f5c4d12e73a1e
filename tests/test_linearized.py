import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from resonant_kg import CoeffField, NormParams, project_range
from resonant_kg.bifurcation import KernelField, solve_kernel
from resonant_kg.field_algebra import field_multiply, time_cutoff
from resonant_kg import linearized
from resonant_kg.linearized import (ResonantSolveError, WLattice, assemble_linearized,
                                    block_spectrum, divisor_table)
from resonant_kg.spherical_basis import mean_integral

from conftest import evaluate_profile, from_mode, profile_norm, random_field
from oracles import (apply_operator, bands, block_inverse_norm, block_matrix, dense_block,
                     dense_matrix, dense_upper_end, diagonal_blocks, exact_inverse_norm,
                     fold_product, gather, matrix_element, pairwise_divisor_constant,
                     potential_parts, preconditioned_split_check, refined_eigenvalues,
                     small_divisors, sobolev_embedding_constant, split_diagonal, state_at,
                     to_field, weight_grid, weighted_inverse_norm)

P = NormParams(0.4, 1.0, 2.0)


def zero_kernel(J):
    return KernelField(np.zeros(J + 1))


def test_unperturbed_operator_is_diagonal_symbol():
    op = assemble_linearized(0.0, state_at(zero_kernel(3), CoeffField.zeros(4, 3)), 4, 3)
    lat = op.lattice
    sym = lat.ells.astype(float) ** 2 - (lat.js + 1.0) ** 2
    assert np.allclose(dense_matrix(op), np.diag(sym))
    # inversion is then entrywise division by the symbol
    rhs = project_range(CoeffField(np.random.default_rng(0).standard_normal((5, 4))))
    sol = op.solve(rhs)
    expect = to_field(lat, lat.to_vector(rhs) / sym)
    assert np.allclose(sol.u, expect.u)


def test_time_mean_potential_of_one_mode_branch():
    # w = 0 on branch m: b = 3 v_m^2, time mean 2 omega_m e_m^2
    from resonant_kg.bifurcation import one_mode_solution
    from resonant_kg.spherical_basis import eigen_product
    for m in (0, 1, 2):
        v = one_mode_solution(m)
        b0 = state_at(v, CoeffField.zeros(1, v.J)).b0
        expect = 2.0 * (m + 1) * eigen_product(m, m)
        assert np.allclose(b0[: len(expect)], expect, atol=1e-12)
        assert np.abs(b0[len(expect):]).max(initial=0.0) < 1e-12


def test_symmetry_in_weighted_time_basis(rng):
    # D - eps M1 is self-adjoint for the (1, 2, 2, ...) time weights
    w = random_field(rng, 6, 5, scale=0.05, decay=0.3)
    ks = solve_kernel(w, 1, J_V=5)
    op = assemble_linearized(1e-2, ks, 6, 5)
    D, M1, _ = split_diagonal(op)
    sym_part = D - op.eps * M1
    mult = np.where(op.lattice.ells == 0, 1.0, 2.0)
    weighted = mult[:, None] * sym_part
    assert np.abs(weighted - weighted.T).max() < 1e-12 * max(1, np.abs(weighted).max())


def test_split_reassembles_exactly(rng):
    w = random_field(rng, 5, 4, scale=0.08, decay=0.2)
    ks = solve_kernel(w, 0, J_V=4)
    op = assemble_linearized(2e-2, ks, 5, 4)
    D, M1, M2 = split_diagonal(op)
    dense = dense_matrix(op)
    assert np.abs(D - op.eps * M1 - op.eps * M2 - dense).max() < 1e-13 * np.abs(dense).max()
    # the oracle's blocks of D are those whose inverses `factorize` keeps
    assert np.abs(op.factorize() @ diagonal_blocks(op) - np.eye(5)).max() < 1e-13


def test_time_constant_potential_has_no_offdiagonal():
    # kernel forced to zero and w constant in time: b = 3 w^2 is time constant,
    # so the zero-mean part M1 vanishes identically
    w = CoeffField.zeros(3, 2)
    w.u[0, 1] = 0.4
    op = assemble_linearized(1e-2, state_at(zero_kernel(2), w), 3, 2)
    _, M1, _ = split_diagonal(op)
    assert np.abs(M1).max() == 0.0


def test_operator_matches_directional_derivative(rng):
    # matrix action vs finite differences of the projected nonlinearity
    eps, m, Ln, J = 1e-2, 0, 6, 4
    w = random_field(rng, Ln, J, scale=0.02, decay=0.3)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, ks, Ln, J)
    h = random_field(rng, Ln, J, decay=0.1)
    omega = np.sqrt(1 + eps)

    def gamma_proj(wf):
        k = solve_kernel(wf, m, J_V=J)
        u = k.kernel.embed(L=max(wf.L, k.kernel.J + 1), J=max(wf.J, k.kernel.J)) + wf
        g = field_multiply(field_multiply(u, u), u)
        return project_range(time_cutoff(g, Ln)).truncate(Ln, J, P)[0]

    t = 1e-5
    fd = (1.0 / (2 * t)) * (gamma_proj(w + t * h) - gamma_proj(w + (-t) * h))
    expected = h.apply_wave_symbol(omega) - eps * fd
    got = apply_operator(op, h)
    assert (got - expected).norm(P) < 1e-8 * max(1.0, expected.norm(P))


def test_block_diagonalization_basics():
    blk = dense_block(3, 0.0, np.zeros(1), 12)
    kept = np.array([j for j in range(13) if j != 2])
    assert np.array_equal(blk.js, kept)
    assert np.allclose(blk.lam, (kept + 1.0) ** 2)
    assert np.allclose(np.abs(blk.vectors[kept, np.arange(12)]), 1.0)
    # constant potential shifts every retained eigenvalue by exactly eps
    eps = 1e-3
    js, lam, _ = block_spectrum(eps, np.array([1.0]), 3, 12)
    assert np.array_equal(js, kept)
    assert np.allclose(lam, (kept + 1.0) ** 2 + eps, atol=1e-14)


def test_block_drift_first_order(rng):
    # drift from omega_j^2 + eps*mean matches the diagonal matrix element
    eps = 1e-3
    b0 = np.zeros(3)
    b0[2] = 1.0  # e_2
    js, lam, _ = block_spectrum(eps, b0, 4, 40)
    mean = mean_integral(b0)
    for i, j in enumerate(js):
        drift = lam[i] - (j + 1.0) ** 2
        first_order = eps * matrix_element(b0, j, j)
        assert abs(drift - first_order) < 5.0 * eps ** 2  # O(eps^2) remainder
        # the deviation from the mean shift decays with omega_j
        if j >= 4:
            assert abs(drift - eps * mean) <= eps * 1.0 / np.sqrt(j + 1) * 3.3


def test_block_drift_bound(rng):
    # |lambda - omega_j^2 - eps*mean| <= 2 c(1/2) eps ||b0||_{H^2} / omega_j^(1/2)
    delta = 0.5
    C = 2.0 * sobolev_embedding_constant(delta)
    b0 = rng.standard_normal(9) * 0.5
    nb = profile_norm(b0, 2.0)
    mean = mean_integral(b0)
    for eps in (1e-3, 1e-2):
        for ell in (0, 3, 10):
            js, lam, _ = block_spectrum(eps, b0, ell, 64)
            bound = C * eps * nb / (js + 1.0) ** (1.0 - delta)
            drift = np.abs(lam - (js + 1.0) ** 2 - eps * mean)
            assert np.all(drift <= bound)


def test_eigenvalue_slope_and_curvature(rng):
    # d(lambda)/d(eps) at 0 equals <b0 e_j, e_j>; second derivative bounded
    b0 = rng.standard_normal(5) * 0.4
    sup = np.max(np.abs(evaluate_profile(b0, np.linspace(0, np.pi, 4096))))
    ell, J = 2, 24
    t = 1e-5
    js, lam0, _ = block_spectrum(0.0, b0, ell, J)
    lamp = block_spectrum(+t, b0, ell, J)[1]
    lamm = block_spectrum(-t, b0, ell, J)[1]
    slopes = (lamp - lamm) / (2 * t)
    for i, j in enumerate(js):
        assert abs(slopes[i] - matrix_element(b0, int(j), int(j))) < 1e-6
    curv = (lamp - 2 * lam0 + lamm) / t ** 2
    assert np.all(np.abs(curv) <= 4.0 * sup ** 2 / (js + 1.0) + 1e-2)


def test_block_orthogonality_and_weighted_normalization(rng):
    eps = 5e-3
    b0 = rng.standard_normal(6) * 0.3
    blk = dense_block(5, eps, b0, 20)
    V = blk.vectors[blk.js, :]  # kept coordinates
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() < 1e-10
    # rescaled eigenvectors phi = lambda^{-1} phi~ are unit in <S^2 ., .>;
    # their H^2 norms then sit inside the equivalence window
    sup = np.max(np.abs(evaluate_profile(b0, np.linspace(0, np.pi, 4096))))
    c = eps * sup
    wj2 = (np.arange(21) + 1.0) ** 2
    for i in range(V.shape[1]):
        phi = blk.vectors[:, i] / blk.lam[i]
        h2 = np.sum((wj2 * phi) ** 2)
        assert (1 - 2 * c - c * c) * h2 <= 1.0 + 1e-9
        assert 1.0 <= (1 + 2 * c + c * c) * h2 + 1e-9


def test_block_truncation_stability(rng):
    b0 = rng.standard_normal(5) * 0.3
    a_js, a_lam, _ = block_spectrum(1e-3, b0, 3, 32)
    b_js, b_lam, _ = block_spectrum(1e-3, b0, 3, 64)
    take = [i for i, j in enumerate(a_js) if j <= 16]
    for i in take:
        j = a_js[i]
        k = list(b_js).index(j)
        assert abs(a_lam[i] - b_lam[k]) < 1e-8 * abs(b_lam[k])


def test_window_and_dense_spectra_agree(rng):
    b0 = rng.standard_normal(7) * 0.4
    for ell in (0, 2, 9):
        dense = dense_block(ell, 2e-3, b0, 40)
        js, lam, _ = block_spectrum(2e-3, b0, ell, 40)
        assert np.array_equal(js, dense.js)
        assert np.allclose(np.sort(dense.lam), lam, atol=1e-10)


def test_spectrum_refuses_overlapping_weyl_intervals():
    # eps ||B|| <= 0.2 (7 + 2 * 3 + 2 * 2) = 3.4: the intervals of modes 0 and
    # 1 (centres 1 and 4) overlap, so the labels cannot name the eigenvalues
    b0 = np.array([5.0, 3.0, 2.0])
    with pytest.raises(ResonantSolveError, match="does not separate"):
        block_spectrum(0.2, b0, 2, 16)


@pytest.mark.parametrize("ell", [0, 1, 6, 40])
def test_block_spectrum_is_exact_at_eps_zero(ell):
    # the unperturbed block is diagonal: every row is its exact square
    js, lam, bound = block_spectrum(0.0, np.array([2.0, 0.5, 0.3]), ell, 30)
    assert np.array_equal(lam, (js + 1.0) ** 2)
    assert np.array_equal(bound, np.zeros(len(js)))


@pytest.mark.parametrize("ell, deleted", [(0, None), (1, 0), (9, 8), (25, 24), (26, None),
                                          (40, None)])
def test_block_spectrum_deletes_the_resonant_label(ell, deleted):
    # J_max = 24: l = 1 .. 25 delete j = l - 1, the last at l = J_max + 1
    b0 = np.random.default_rng(ell).standard_normal(7) * 0.3
    js, lam, bound = block_spectrum(2e-3, b0, ell, 24)
    assert np.array_equal(js, [j for j in range(25) if j != deleted])
    dense = dense_block(ell, 2e-3, b0, 24)
    assert np.array_equal(dense.js, js)
    assert np.allclose(lam, dense.lam, rtol=1e-12, atol=0.0)
    assert np.all(bound <= np.spacing(np.maximum(lam, 1.0)))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_block_spectrum_is_certified_on_branch_potentials(m, monkeypatch):
    # the time-mean b0 of each branch's first state: m = 3's reaches mode 98
    # and takes windows wider than the first 9 modes
    from resonant_kg.nash_moser import SolverConfig, solve_stage0
    cfg = SolverConfig(eps=2e-3, m=m)
    b0 = solve_stage0(cfg)[1].b0
    sizes, real = [], linearized._window

    def recorded(*args):
        sizes.append(args[4])
        return real(*args)
    monkeypatch.setattr(linearized, "_window", recorded)
    J_max = 128
    for ell in (0, 1, 2 * m + 2, J_max + 2):
        js, lam, bound = block_spectrum(cfg.eps, b0, ell, J_max)
        s, rho = refined_eigenvalues(cfg.eps, b0, J_max, np.full(len(js), ell), js)
        ulp = np.spacing(np.maximum(lam, 1.0))
        assert np.all(bound <= ulp)
        assert np.all(np.abs(lam - (s + rho)) <= bound + 4 * ulp)
    if m == 3:
        assert max(sizes) > 9


def test_small_divisors_examples():
    # eps = 0, l = 5: omega_j = 5 removed; min over the rest is |25 - 16| = 9
    rep = small_divisors(0.0, np.zeros(1), (0, 5), 30, block=dense_block)
    assert abs(rep.alpha[0] - 1.0) < 1e-14          # alpha_0 = lambda_{0,0}
    assert rep.j_min[0] == 0
    assert abs(rep.alpha[1] - 9.0) < 1e-14
    # small perturbed case: alpha_0 ~ 1 + eps*mean
    eps = 1e-3
    tab = divisor_table(eps, np.array([2.0]), 8, 30, gamma=0.05, tau=1.5)
    assert abs(tab.alpha[0] - (1.0 + 2 * eps)) < 1e-12
    assert tab.all_ok
    assert np.all(tab.alpha >= tab.floor)
    cbar = pairwise_divisor_constant(tab)
    assert np.isfinite(cbar) and cbar > 0


def test_divisor_table_matches_dense_blocks(rng):
    eps = 2e-3
    b0 = np.abs(rng.standard_normal(5)) * 0.3
    tab = divisor_table(eps, b0, 6, 24, gamma=0.05, tau=1.5)
    rep = small_divisors(eps, b0, range(7), 24, block=dense_block)
    assert np.allclose(tab.alpha, rep.alpha, atol=1e-11)
    assert np.array_equal(tab.j_min, rep.j_min)


def test_inverse_roundtrip_and_norm_bound(rng):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, ks, Ln, J)
    rhs = random_field(rng, Ln, J, decay=0.1)
    sol = op.solve(rhs)
    err = (apply_operator(op, sol) - rhs).norm(P) / rhs.norm(P)
    assert err < 1e-10
    gamma, tau = 0.05, 1.5
    assert op.inverse_norm(P) <= (648.0 / gamma) * Ln ** (tau - 1.0)


def test_solve_rejects_offlattice_support(rng):
    op = assemble_linearized(1e-3, state_at(zero_kernel(2), CoeffField.zeros(4, 2)), 4, 2)
    bad = from_mode(6, 1, 1.0)  # beyond the time truncation
    with pytest.raises(ValueError):
        op.solve(bad)


def test_singular_factorization_raises():
    # at eps = 3 and b = 0, omega^2 l^2 = omega_j^2 at the kept point (l, j) = (1, 1):
    # the l = 1 block of D is exactly singular
    op = assemble_linearized(3.0, state_at(zero_kernel(2), CoeffField.zeros(3, 2)), 3, 2)
    with pytest.raises(ResonantSolveError, match="block l=1"):
        op.factorize()


def test_preconditioned_split_unperturbed():
    op = assemble_linearized(0.0, state_at(zero_kernel(3), CoeffField.zeros(4, 3)), 4, 3)
    rep = preconditioned_split_check(op, P, gamma=0.05, tau=1.5)
    assert rep.u_ok and rep.r1_norm == 0.0 and rep.r2_norm == 0.0
    assert rep.factorization_error < 1e-12
    assert rep.neumann_converged and rep.neumann_vs_dense < 1e-12


def test_preconditioned_split_perturbed(rng, monkeypatch):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, ks, Ln, J)
    rep = preconditioned_split_check(op, NormParams(0.4, 1.0), gamma=0.05, tau=1.5)
    assert rep.u_ok                      # ||U|| <= 4
    assert rep.dhalf_ok                  # ||D^-1/2|| <= 9/sqrt(gamma) with the s-shift
    assert rep.factorization_error < 1e-10
    assert rep.neumann_converged
    assert rep.neumann_vs_dense < 1e-8
    assert np.isfinite(rep.r1_constant) and np.isfinite(rep.r2_constant)
    # a production solve that does not settle is reported, not raised
    monkeypatch.setattr(linearized, "_MAX_SWEEPS", 1)
    op = assemble_linearized(eps, ks, Ln, J)
    rep = preconditioned_split_check(op, NormParams(0.4, 1.0), gamma=0.05, tau=1.5)
    assert not rep.neumann_converged and rep.neumann_vs_dense == np.inf
    assert rep.u_ok and rep.factorization_error < 1e-10


def test_lattice_roundtrip(rng):
    lat = WLattice(5, 4)
    f = random_field(rng, 5, 4, decay=0.1)
    assert np.allclose(to_field(lat, lat.to_vector(f)).u, f.u)
    assert lat.in_lattice_support(f)
    g = from_mode(2, 1, 1.0)  # resonant point
    assert not lat.in_lattice_support(g)
    # the lattice points in row-major order
    points = [(ell, j) for ell in range(6) for j in range(5) if j != ell - 1]
    assert list(zip(lat.ells.tolist(), lat.js.tolist())) == points
    for ell, j, value, inside in ((2, 1, np.nan, False), (6, 0, 1.0, False), (1, 5, 1.0, False),
                                  (3, 1, np.nan, True)):
        h = f.padded(6, 5)
        h.u[ell, j] = value
        assert lat.in_lattice_support(h) == inside


@pytest.mark.parametrize("L", [4, 64, 300])
def test_lattice_weights_measure_the_field_norm(rng, L):
    # the certificate weighs coefficients with WLattice.log_weights and the
    # kernel with KernelField.norm, every bound with CoeffField.norm: the three agree
    lat = WLattice(L, 6)
    for sigma, s, r in ((0.0, 1.0, 2.0), (0.5, 1.5, 2.0), (1.0, 1.0, 0.0), (0.25, 0.6, 3.0)):
        p = NormParams(sigma, s, r)
        f = random_field(rng, L, 6, decay=sigma + 0.05)
        assert np.linalg.norm(np.exp(lat.log_weights(p)) * lat.to_vector(f)) == \
            pytest.approx(f.norm(p), rel=1e-13)
        v = KernelField(rng.standard_normal(L) * np.exp(-(sigma + 0.05) * np.arange(1, L + 1)))
        assert v.embed().L == L
        assert v.norm(p) == pytest.approx(v.embed().norm(p), rel=1e-13)


def test_inverse_norm_power_iteration_agrees(rng, monkeypatch):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, ks, Ln, J)
    exact = exact_inverse_norm(op, P)
    monkeypatch.setattr(linearized, "_MAX_KRYLOV_STEPS", 60)
    powered = op.inverse_norm(P)
    assert abs(powered - exact) < 1e-6 * exact
    # the stopped estimate is a lower bound (up to the exact value's own
    # rounding) within 1e-12 of the exact Gram value
    monkeypatch.setattr(linearized, "_MAX_KRYLOV_STEPS", 40)
    stopped = op.inverse_norm(P)
    assert 0 < op.power_steps < 40
    assert exact * (1 - 1e-12) <= stopped <= exact * (1 + 1e-15)


def test_krylov_estimate_is_monotone_lower_bound(rng, monkeypatch):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    op = assemble_linearized(eps, solve_kernel(w, m, J_V=J), Ln, J)
    exact = exact_inverse_norm(op, P)
    estimates = []
    for k in range(1, 9):
        monkeypatch.setattr(linearized, "_MAX_KRYLOV_STEPS", k)
        estimates.append(op.inverse_norm(P))
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))
    assert op.lattice.size == 32 and max(estimates) <= exact * (1 + 1e-15)


def test_krylov_estimate_exhausts_a_small_lattice(rng, monkeypatch):
    # four unknowns: the estimate still moves at step 3, so the Krylov space
    # is the whole lattice at step 4, where the loop must stop
    op = _branch_operator(rng, 0, 2, 1, eps=0.1)
    n = op.lattice.size
    exact = exact_inverse_norm(op, P)
    monkeypatch.setattr(linearized, "_MAX_KRYLOV_STEPS", 3 * n)
    value = op.inverse_norm(P)
    assert op.power_steps == n == 4
    assert exact * (1 - 1e-13) <= value <= exact * (1 + 1e-15)


@pytest.mark.parametrize("eps", [2e-3, 0.0], ids=["krylov", "exact"])
def test_inverse_norm_fails_closed_on_non_finite_operator(eps):
    # a NaN in the potential stops the Krylov estimate; at eps = 0 the exact
    # value 1 / min |D| reads the symbol, and a NaN there is refused too
    op = _stage0_operator(1, 32)
    op = dataclasses.replace(op, eps=eps)
    op.stack[0, 0, 0] = np.nan
    if eps == 0.0:
        op._symbol[2, 0] = np.nan
    with pytest.raises(ResonantSolveError, match="non-finite image at Krylov step 1"
                       if eps else "numerically singular"):
        op.inverse_norm(P)


def test_krylov_estimate_converges_in_few_steps_at_l128(monkeypatch):
    from resonant_kg.nash_moser import SolverConfig, run
    real = linearized.LinearizedOperator.inverse_norm
    seen = []

    def inverse_norm(op, params, **kwargs):
        seen.append((op, params, kwargs))
        return real(op, params, **kwargs)
    monkeypatch.setattr(linearized.LinearizedOperator, "inverse_norm", inverse_norm)
    run(SolverConfig(eps=2e-3, m=1, n_max=4))
    op, params, kwargs = seen[-1]
    assert op.L == 128 and op.lattice.size == 2432
    estimate = real(op, params, **kwargs)
    steps = op.power_steps
    exact = exact_inverse_norm(op, params)
    assert 1 <= steps <= 5
    assert exact * (1 - 1e-12) <= estimate <= exact * (1 + 1e-15)


def test_warm_started_krylov_estimate_matches_exact_at_both_krylov_stages(monkeypatch):
    # stages 4 and 5 start from the Krylov top vector of the stage before
    from resonant_kg.nash_moser import SolverConfig, run
    real = linearized.LinearizedOperator.inverse_norm
    seen = []

    def inverse_norm(op, params, **kwargs):
        value = real(op, params, **kwargs)
        seen.append((op, params, value, op.power_steps))
        return value
    monkeypatch.setattr(linearized.LinearizedOperator, "inverse_norm", inverse_norm)
    run(SolverConfig(eps=2e-3, m=1, n_max=5))
    assert [op.L for op, *_ in seen[-2:]] == [128, 256]
    for op, params, estimate, steps in seen[-2:]:
        exact = exact_inverse_norm(op, params)
        assert 1 <= steps <= 5
        assert exact * (1 - 1e-12) <= estimate <= exact * (1 + 1e-15)


def test_warm_start_inside_one_block_still_finds_the_norm():
    # m = 2 at stage 1: block 1 holds the norm 113.0, block 0 only 22.27.  A
    # start inside block 0 still finds the norm: block 1 has the largest upper
    # end, so it runs first, from its uniform part alone
    from resonant_kg.nash_moser import SolverConfig
    cfg = SolverConfig(eps=2e-3, m=2)
    op = _stage0_operator(2, cfg.L(1))
    params = NormParams(cfg.sigmas()[1], cfg.s)
    exact = exact_inverse_norm(op, params)
    blocks = op._partition
    first = exact_inverse_norm(op, params, blocks[:1])
    assert 110.0 < exact and 22.0 < first < 23.0
    start = np.zeros(op.lattice.mask.shape)
    start[op.lattice.ells[blocks[0]], op.lattice.js[blocks[0]]] = 1.0
    value = op.inverse_norm(params, start=start)
    assert abs(value - exact) <= 1e-12 * exact and op.krylov_block == len(blocks[1])
    # negative control: without the order of the upper ends, a loop that ran
    # the block of the start and stopped there would stay in block 0
    trapped = op._krylov(blocks[0], start, weight_grid(op, params), np.inf)[0]
    assert abs(trapped - first) <= 1e-12 * first


def _krylov_against_exact(monkeypatch, config, runner_up=False):
    """Krylov inverse norm against the exact all-block norm (`exact_inverse_norm`) per stage.

    Returns (relative error, unknowns of the Krylov block, lattice size,
    upper ends of the blocks that did not run over the estimate) for every
    stage of run(config).  With runner_up, the block of the largest exact
    norm contributes nothing, so the estimate is at most the second largest.
    """
    from resonant_kg.nash_moser import run
    operator = linearized.LinearizedOperator
    real, real_krylov, seen = operator.inverse_norm, operator._krylov, []

    def inverse_norm(op, params, **kwargs):
        seen.append((op, params, []))
        return real(op, params, **kwargs)

    def krylov(op, idx, start, wg, tail):
        seen[-1][2].append(idx)
        if runner_up:
            blocks = op._partition
            norms = [exact_inverse_norm(op, seen[-1][1], [b]) for b in blocks]
            if np.array_equal(idx, blocks[int(np.argmax(norms))]):
                return 0.0, np.zeros(op.lattice.mask.shape)
        return real_krylov(op, idx, start, wg, tail)
    monkeypatch.setattr(operator, "inverse_norm", inverse_norm)
    monkeypatch.setattr(operator, "_krylov", krylov)
    result = run(config)
    out = []
    for rec, stats, (op, params, ran) in zip(result.trace.records[1:], result.stages, seen):
        blocks = op._partition
        ends = op._upper_end(weight_grid(op, params), blocks)[0]
        idle = [end / rec.inverse_norm for b, end in zip(blocks, ends)
                if not any(np.array_equal(b, r) for r in ran)]
        out.append((rec.inverse_norm / exact_inverse_norm(op, params) - 1.0,
                    stats["krylov_block"], stats["unknowns"], idle))
    return out


@pytest.mark.parametrize("m, eps, stages", [(0, 1e-3, 6), (1, 2e-3, 5), (2, 2e-3, 4),
                                            (3, 2e-3, 3)])
def test_block_krylov_matches_the_exact_norm_at_every_stage(monkeypatch, m, eps, stages):
    # every stage, stage 1 included, runs its steps in blocks of the lattice,
    # and every block that does not run has an upper end at or below the estimate
    from resonant_kg.nash_moser import SolverConfig
    config = SolverConfig(eps=eps, m=m, n_max=stages)
    errors = _krylov_against_exact(monkeypatch, config)
    assert all(0 < block < n for _, block, n, _ in errors)
    assert all(abs(rel) <= 1e-14 for rel, _, _, _ in errors)
    assert all(idle and max(idle) <= 1.0 for _, _, _, idle in errors)
    if m == 2:  # negative control: the runner-up block understates the norm
        monkeypatch.undo()
        forced = _krylov_against_exact(monkeypatch, config, runner_up=True)
        assert all(rel < -0.1 for rel, _, _, _ in forced)


def test_stage_one_runs_in_the_blocks_of_largest_upper_end(monkeypatch):
    # m = 1 at stage 1 (L = 16), without a start: the steps run in the block of
    # the largest upper end (50 unknowns), then in the next (41 unknowns), whose
    # upper end is still above the estimate, and stop.  The uniform vector as
    # a start gives the same norm
    from resonant_kg.nash_moser import SolverConfig
    cfg = SolverConfig(eps=2e-3, m=1)
    op = _stage0_operator(1, cfg.L(1))
    params = NormParams(cfg.sigmas()[1], cfg.s)
    exact = exact_inverse_norm(op, params)
    value = op.inverse_norm(params)
    assert (op.krylov_block, op.lattice.size) == (50, 307)
    assert abs(value - exact) <= 1e-14 * exact
    uniform = np.where(op.lattice.mask, 1.0, 0.0)
    assert abs(op.inverse_norm(params, start=uniform) - exact) <= 1e-14 * exact
    # negative control: ranked by one Krylov step from the uniform vector,
    # ||B_k q_k|| / ||q_k||, instead of by the upper ends, and stopped after
    # the first block, the steps run in the 41-unknown block and understate
    # the norm by 17%
    blocks, wg = op._partition, weight_grid(op, params)
    monkeypatch.setattr(linearized, "_MAX_KRYLOV_STEPS", 1)
    ratio = [op._krylov(b, uniform, wg, np.inf)[0] for b in blocks]
    monkeypatch.undo()
    first = blocks[int(np.argmax(ratio))]
    wrong = op._krylov(first, uniform, wg, np.inf)[0]
    assert len(first) == 41 and wrong < 0.9 * exact


def test_blocks_run_in_descending_order_of_their_upper_ends():
    # m = 2 at stage 1: 8 blocks, and one runs.  Run in reverse order and
    # without the stop, the blocks give the same norm; stopped after the
    # block of the smallest upper end, the loop would understate it
    from resonant_kg.nash_moser import SolverConfig
    cfg = SolverConfig(eps=2e-3, m=2)
    op = _stage0_operator(2, cfg.L(1))
    params = NormParams(cfg.sigmas()[1], cfg.s)
    exact = exact_inverse_norm(op, params)
    value = op.inverse_norm(params)
    blocks, wg = op._partition, weight_grid(op, params)
    ends = op._upper_end(wg, blocks)[0]
    order = np.argsort(ends)
    assert len(blocks) == 8 and op.krylov_block == len(blocks[order[-1]])
    assert abs(value - exact) <= 1e-14 * exact and ends[order[-2]] <= value
    q = np.where(op.lattice.mask, 1.0, 0.0)
    reverse = [op._krylov(blocks[k], q, wg, np.inf)[0] for k in order]
    assert abs(max(reverse) - exact) <= 1e-14 * exact
    assert reverse[0] < 0.9 * exact


@pytest.mark.parametrize("state", ["m2", "m3", "static", "dv"])
def test_krylov_steps_inside_each_block_give_its_norm(state):
    # the one-block Krylov loop from a start on its block: the restricted
    # apply and Neumann solves give its norm, on classes mod step (m = 2, 3),
    # on each l alone when only S_0 is live (static) and on cells that M2
    # joins (dv)
    if state == "static":
        u = np.zeros((1, 5))
        u[0, [0, 2]] = 0.3, 0.1
        op = assemble_linearized(1e-3, state_at(zero_kernel(4), CoeffField(u)), 16, 4)
    elif state == "dv":
        op = _stage0_operator(0, 64)
        dv = op.dv_matrix.copy()
        dv[0, (op.lattice.ells == 4) & (op.lattice.js == 1)] = 1.0
        op = dataclasses.replace(op, dv_matrix=dv)
    else:
        op = _stage0_operator(int(state[1]), 16)
    op.factorize()
    wg = weight_grid(op, P)
    for idx in op._partition:
        block = exact_inverse_norm(op, P, [idx])
        start = np.zeros(op.lattice.mask.shape)
        start[op.lattice.ells[idx], op.lattice.js[idx]] = 1.0
        op.power_steps = 0
        value, top = op._krylov(idx, start, wg, np.inf)
        assert 1 <= op.power_steps <= len(idx) and abs(value - block) <= 1e-14 * block
        assert np.all(top[~start.astype(bool)] == 0.0)


@pytest.mark.parametrize("L", [3, 6])
def test_block_krylov_on_a_coarse_partition(L):
    # m = 2 at J = 4 on the kernel alone: `_partition` joins two one-by-one
    # components into one block (8 blocks against 9), which B leaves
    # invariant all the same
    w = CoeffField.zeros(4, 4)
    op = assemble_linearized(2e-3, solve_kernel(w, 2, J_V=4), L, 4)
    blocks, comps = op._partition, _components(dense_matrix(op))
    assert (len(blocks), len(comps)) == (8, 9)
    coarse = [b for b in blocks if not any(np.array_equal(b, c) for c in comps)]
    assert len(coarse) == 1 and len(coarse[0]) == 2
    exact, inside = exact_inverse_norm(op, P), exact_inverse_norm(op, P, coarse)
    op.inverse_norm(P)
    value = op.inverse_norm(P, start=op.top_vector)
    assert abs(value - exact) <= 1e-15 * exact
    # the one-block loop inside the coarse block gives its norm
    start = np.zeros(op.lattice.mask.shape)
    start[op.lattice.ells[coarse[0]], op.lattice.js[coarse[0]]] = 1.0
    value = op._krylov(coarse[0], start, weight_grid(op, P), np.inf)[0]
    assert abs(value - inside) <= 1e-15 * inside


def test_assembly_forms_one_stack_and_no_square(rng, monkeypatch):
    # the S_d stack of b = 3 q serves the whole assembly, which reads q = (v + w)^2
    # from the kernel solve's state
    import sys
    from resonant_kg import field_algebra, spherical_basis
    w = random_field(rng, 4, 5, scale=0.05, decay=0.3)
    state = solve_kernel(w, 1, J_V=5)
    calls = {"field_multiply": 0, "multiplication_matrix": 0}
    for name, home in zip(calls, (field_algebra, spherical_basis)):
        real = getattr(home, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("resonant_kg")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counted)
    assemble_linearized(2e-3, state, 8, 5)
    assert calls == {"field_multiply": 0, "multiplication_matrix": 1}


def test_assembly_stack_holds_one_slice_per_row_of_q(rng):
    # S_d for d <= q.L only: the fold and the kernel derivative read S_d past
    # q's last row as an exact zero, so no slice of zeros is stored
    w = random_field(rng, 4, 5, scale=0.05, decay=0.3)
    state = solve_kernel(w, 1, J_V=5)
    op = assemble_linearized(2e-3, state, 8, 5)
    assert op.stack.shape == (state.q.L + 1, 6, 6) and state.q.L == 12 < 2 * op.L


def _assert_matches_oracle(tab, rep, eps, b0, J_max, oracle_rtol=1e-10):
    """The table against the per-block oracle and the refined divisor.

    Same j_min and ok as the oracle, and alpha within 4 ulps of
    max((1 + eps) l^2, lambda) of the refined divisor on both sides: the
    roundoff of the numbers compared.  Unless `oracle_rtol` is None, alpha
    is also within that relative distance of the oracle's; at J_max = 2048
    the oracle's own roundoff is tens of ulps, which 1e-10 does not cover.
    """
    assert np.array_equal(tab.ells, rep.ells)
    if oracle_rtol is not None:
        assert np.all(np.abs(tab.alpha - rep.alpha) <= oracle_rtol * rep.alpha)
    assert np.array_equal(tab.j_min, rep.j_min)
    assert np.array_equal(tab.ok, rep.ok)
    s, rho = refined_eigenvalues(eps, b0, J_max, rep.ells, rep.j_min)
    t = (1.0 + eps) * rep.ells ** 2.0
    alpha = np.abs((t - s) - rho)
    assert np.all(np.abs(tab.alpha - alpha) <= 4 * np.spacing(np.maximum(t, s + rho)))


def _even_profile():
    b0 = np.zeros(9)
    b0[[0, 2, 4, 8]] = [2.0, 0.7, 0.3, 0.05]
    return b0


@pytest.mark.parametrize("case", ["parity-even", "random-odd", "eps-zero", "b0-zero",
                                  "J-below-L", "J-max-1"])
def test_divisor_table_secular_path_matches_per_block_solves(case):
    rng = np.random.default_rng(17)
    eps, b0, L_n, J_max = {
        # parity-even b0 couples only modes of one parity: most poles deflate
        "parity-even": (2e-3, _even_profile(), 40, 80),
        "random-odd": (5e-3, rng.standard_normal(11) * 0.3, 50, 100),
        "eps-zero": (0.0, _even_profile(), 20, 40),
        "b0-zero": (2e-3, np.zeros(5), 20, 40),
        "J-below-L": (2e-3, _even_profile(), 40, 20),
        # the l = 1 and l = 2 blocks hold one mode, narrower than the band of eps B
        "J-max-1": (2e-3, np.array([2.0, 0.0, 0.5]), 2, 1),
    }[case]
    tab = divisor_table(eps, b0, L_n, J_max, gamma=0.05, tau=1.5)
    rep = small_divisors(eps, b0, range(L_n + 1), J_max)
    _assert_matches_oracle(tab, rep, eps, b0, J_max)


def test_divisor_table_widens_the_window_for_a_wide_band(monkeypatch):
    # 37 coefficients of order 0.3 couple each mode to 36 neighbours on
    # each side with O(eps) entries, so the first 9-mode windows leave a
    # residual far above one ulp
    b0 = np.random.default_rng(37).standard_normal(37) * 0.3
    sizes, real = [], linearized._window

    def recorded(*args):
        sizes.append(args[4])
        return real(*args)
    monkeypatch.setattr(linearized, "_window", recorded)
    tab = divisor_table(2e-3, b0, 60, 120, gamma=0.05, tau=1.5)
    assert sizes[0] == 9 and max(sizes) >= 65
    _assert_matches_oracle(tab, small_divisors(2e-3, b0, range(61), 120), 2e-3, b0, 120)


def test_divisor_table_fails_closed_when_weyl_intervals_overlap():
    # eps ||B|| <= 2e-3 (800 + 2 * 300) = 2.8 puts the eigenvalues of modes 0
    # and 1 (1 and 4) in overlapping intervals: their ranks cannot be told apart
    with pytest.raises(ResonantSolveError, match="does not separate"):
        divisor_table(2e-3, np.array([500.0, 0.0, 300.0]), 8, 16, gamma=0.05, tau=1.5)


@pytest.mark.parametrize("n", [65, 513, 1025])
@pytest.mark.parametrize("bw", [0, 4, 36])
def test_bands_from_diagonals_match_dense_bands(n, bw):
    # divisor_table and the per-block solves read only the first diagonals of
    # B, not the dense matrix: all modes, and every mode but one
    from resonant_kg.spherical_basis import diagonal_sums
    b0 = np.random.default_rng(n + bw).standard_normal(bw + 1) * 0.3
    b0[0] = 2.0
    for ell, rows in ((0, bw + 1), (n // 2, bw + 2)):
        S, kept = block_matrix(ell, 2e-3, b0, n - 1)
        dense = [np.r_[np.zeros(d), np.diagonal(S, d)] for d in range(bw, -1, -1)]
        assert np.array_equal(bands(kept, 2e-3, diagonal_sums(b0, n, rows), bw), dense)


def test_divisor_table_secular_path_on_assembled_b0():
    # the time-mean potential of a converged m = 1 state, at (L_n, J_max) = (64, 128)
    from resonant_kg.nash_moser import SolverConfig, solve_stage, solve_stage0
    cfg = SolverConfig(eps=2e-3, m=1, n_max=2)
    w, kernel, _ = solve_stage0(cfg)
    w, kernel, *_ = solve_stage(0, w, kernel, cfg)
    b0 = kernel.b0
    tab = divisor_table(cfg.eps, b0, 64, 128, gamma=0.05, tau=1.5)
    rep = small_divisors(cfg.eps, b0, range(65), 128)
    _assert_matches_oracle(tab, rep, cfg.eps, b0, 128)
    # L_n = 1024 with J_max = 2048, against the per-block oracle at 20 l
    tab = divisor_table(cfg.eps, b0, 1024, 2048, gamma=0.05, tau=1.5)
    ells = np.unique(np.r_[0, 1, 2, np.linspace(3, 1024, 17).astype(int)])
    rep = small_divisors(cfg.eps, b0, ells, 2048)
    sampled = linearized._divisor_report(cfg.eps, 0.05, 1.5, ells, tab.alpha[ells],
                                         tab.j_min[ells])
    _assert_matches_oracle(sampled, rep, cfg.eps, b0, 2048, oracle_rtol=None)


@pytest.mark.parametrize("m, Ln, J", [(0, 16, 4), (1, 12, 18), (1, 8, 30)])
def test_inverse_norm_matches_svd_oracle(rng, m, Ln, J):
    eps = 2e-3
    w = random_field(rng, 4, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, ks, Ln, J)
    assert op.lattice.size <= 300
    for params in (P, NormParams(1.0, 1.5, 2.0)):
        weights = np.exp(op.lattice.log_weights(params))
        oracle = weighted_inverse_norm(dense_matrix(op), weights)
        assert abs(op.inverse_norm(params) - oracle) <= 1e-14 * oracle


def _branch_operator(rng, m, Ln, J, eps=2e-3):
    w = random_field(rng, 6, J, scale=0.02, decay=0.4)
    return assemble_linearized(eps, solve_kernel(w, m, J_V=J), Ln, J)


def _stage0_operator(m, Ln):
    # a branch state holds only odd multiples of omega_m in time, so b has
    # only the multiples of 2 omega_m and the fold skips the other S_d
    from resonant_kg.nash_moser import SolverConfig, solve_stage0
    cfg = SolverConfig(eps=2e-3, m=m)
    w, kernel, _ = solve_stage0(cfg)
    return assemble_linearized(cfg.eps, kernel, Ln, cfg.J_space)


@pytest.mark.parametrize("m, Ln, J, state", [(0, 64, 4, "random"), (1, 24, 18, "random"),
                                             (2, 8, 34, "random"), (0, 64, 2, "branch"),
                                             (1, 32, 18, "branch"), (2, 16, 34, "branch")])
def test_apply_and_adjoint_match_dense_oracle(rng, m, Ln, J, state):
    if state == "branch":
        op = _stage0_operator(m, Ln)
        assert op._step == 2 * (m + 1)
    else:
        op = _branch_operator(rng, m, Ln, J)
    lat = op.lattice
    dense = dense_matrix(op)
    h = random_field(rng, Ln, J, decay=0.05)
    h.u[0] *= 10.0  # weight the l = 0 row, which the fold counts once
    x = lat.to_vector(h)
    got, want = lat.to_vector(apply_operator(op, h)), dense @ x
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(got[lat.ells == 0] - want[lat.ells == 0]).max() \
        <= 1e-14 * np.abs(want[lat.ells == 0]).max()
    # Lop^T = Mw Lop Mw^-1, M2 included, which lets the Krylov certificate
    # form B^T y by a forward solve: Mw (Lop - diag) is symmetric
    assert np.abs(split_diagonal(op)[2]).max() > 0.0
    weighted = np.where(lat.ells == 0, 1.0, 2.0)[:, None] * (dense - np.diag(np.diag(dense)))
    assert np.abs(weighted - weighted.T).max() <= 1e-14 * np.abs(weighted).max()


@pytest.mark.parametrize("m, Ln, J", [(0, 64, 4), (1, 24, 18), (2, 8, 34)])
def test_solve_matches_lu_in_weighted_norm(rng, m, Ln, J):
    op = _branch_operator(rng, m, Ln, J)
    lat = op.lattice
    rhs = random_field(rng, Ln, J, decay=0.05)
    want = to_field(lat, scipy.linalg.lu_solve(scipy.linalg.lu_factor(dense_matrix(op)),
                                               lat.to_vector(rhs)))
    assert (op.solve(rhs) - want).norm(P) <= 1e-14 * want.norm(P)


@pytest.mark.parametrize("m, Ln, J, sigma", [(0, 64, 4, 8.0), (1, 24, 18, 20.0),
                                              (2, 16, 34, 30.0)])
def test_graded_solve_matches_lu_componentwise(rng, m, Ln, J, sigma):
    # right-hand side rows scaled by e^(-sigma l), spanning over 200 decades: a
    # normwise solver (a Krylov method) gets the small components wrong.  Both
    # solvers are componentwise backward stable (1e-15), so they agree to the
    # componentwise condition of the system: 2e-13 or better on these inputs;
    # a component with cancellation can differ by 1e-11 (seen on m = 0, J = 2,
    # where a long-double refinement put LU 3x further off than the sweeps)
    op = _branch_operator(rng, m, Ln, J)
    lat = op.lattice
    b = rng.standard_normal(lat.size) * np.exp(-sigma * lat.ells)
    assert np.log10(np.abs(b).max() / np.abs(b).min()) >= 200
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(dense_matrix(op)), b)
    got = lat.to_vector(op.solve(to_field(lat, b)))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_neumann_solve_edge_cases(rng, monkeypatch):
    op = _branch_operator(rng, 1, 12, 18)
    zero = CoeffField.zeros(12, 18)
    assert np.all(op.solve(zero).u == 0.0)
    bad = random_field(rng, 12, 18)
    bad.u[3, 0] = np.nan
    sweeps = op.sweeps
    assert np.all(np.isnan(op.solve(bad).u))
    assert op.sweeps == sweeps  # returned at once
    rhs = random_field(rng, 12, 18)
    monkeypatch.setattr(linearized, "_MAX_SWEEPS", 2)
    with pytest.raises(ResonantSolveError, match="L_n=12 did not settle by sweep 2"):
        op.solve(rhs)
    monkeypatch.undo()
    # a preconditioner of the wrong sign makes the update grow
    op._inverse = -3.0 * op.factorize()
    with pytest.raises(ResonantSolveError, match="update grows at L_n=12, sweep 2"):
        op.solve(rhs)


def test_non_finite_rhs_gives_nan_on_every_block(rng):
    # the multi-block form of the NaN case of test_neumann_solve_edge_cases:
    # a NaN or inf in one block of the right-hand side leaves no block of the
    # solution finite, and no block runs a sweep
    op = _stage0_operator(1, 16)
    lat, blocks = op.lattice, op._partition
    assert len(blocks) == 6
    for value in (np.nan, np.inf):
        b = rng.standard_normal(lat.size)
        b[blocks[0][0]] = value
        sweeps = op.sweeps
        assert np.all(np.isnan(op.solve(to_field(lat, b)).u))
        assert op.sweeps == sweeps and not op.solved.any()


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_block_solve_matches_lu_and_skips_the_zero_blocks(rng, monkeypatch, m):
    # stage 1 of each branch: a random right-hand side over every block and
    # the stage's own Picard right-hand side, which fills one block, solve as
    # with the dense LU; the blocks where the right-hand side is zero come
    # back as exact zeros and add no sweep
    from resonant_kg.nash_moser import SolverConfig, run
    real, seen = linearized.LinearizedOperator.solve, []

    def solve(op, rhs):
        seen.append((op, rhs))
        return real(op, rhs)
    monkeypatch.setattr(linearized.LinearizedOperator, "solve", solve)
    run(SolverConfig(eps=2e-3, m=m, n_max=1))
    monkeypatch.undo()
    op, picard = seen[0]
    lat, blocks = op.lattice, op._partition
    # the Picard solves ran on the block of their right-hand side alone
    ran = [idx for idx in blocks if lat.to_vector(picard)[idx].any()]
    assert len(ran) == 1 and np.array_equal(np.flatnonzero(op.solved), ran[0])
    lu = scipy.linalg.lu_factor(dense_matrix(op))
    for rhs in (to_field(lat, rng.standard_normal(lat.size)), picard):
        b = lat.to_vector(rhs)
        filled = [idx for idx in blocks if b[idx].any()]
        assert len(filled) == (1 if rhs is picard else len(blocks))
        want, sweeps = scipy.linalg.lu_solve(lu, b), op.sweeps
        got = op.solve(rhs)
        assert (got - to_field(lat, want)).norm(P) <= 1e-14 * to_field(lat, want).norm(P)
        used, got = op.sweeps - sweeps, lat.to_vector(got)
        for idx in blocks:
            if not b[idx].any():
                assert np.all(got[idx] == 0.0)
        # the sweeps are those of the filled blocks, each solved alone
        alone = op.sweeps
        for idx in filled:
            part = np.zeros_like(b)
            part[idx] = b[idx]
            op.solve(to_field(lat, part))
        assert used == op.sweeps - alone


def test_run_inverts_only_the_blocks_of_d(monkeypatch):
    # the certificate forms no dense matrix: every array that a run passes to
    # np.linalg.inv is the stack of the J x J blocks D_l that `factorize` inverts
    from resonant_kg.nash_moser import SolverConfig, run
    real_inv, shapes = np.linalg.inv, []

    def inv(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_inv(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "inv", inv)
    config = SolverConfig(eps=2e-3, m=1, n_max=4)
    run(config)
    J = config.J_space
    assert len(shapes) == 4 and all(shape[-2:] == (J + 1, J + 1) for shape in shapes)


@pytest.mark.parametrize("m, stages", [(0, 4), (1, 4), (2, 4), (3, 1)])
def test_stage_records_bracket_the_exact_norm(monkeypatch, m, stages):
    # every stage record holds a lower end (the Krylov estimate) and an upper
    # end (the Neumann majorant) of the exact per-block norm
    from resonant_kg.nash_moser import SolverConfig, run
    real, seen = linearized.LinearizedOperator.inverse_norm, []

    def inverse_norm(op, params, **kwargs):
        seen.append((op, params))
        return real(op, params, **kwargs)
    monkeypatch.setattr(linearized.LinearizedOperator, "inverse_norm", inverse_norm)
    records = run(SolverConfig(eps=2e-3, m=m, n_max=stages)).trace.records[1:]
    assert len(records) == len(seen) == stages and records[-1].L_n == 16 * 2 ** (stages - 1)
    for rec, (op, params) in zip(records, seen):
        exact = exact_inverse_norm(op, params)
        assert exact * (1 - 1e-12) <= rec.inverse_norm and exact <= rec.inverse_norm_upper


_MAJORANT_STATES = ["m0", "m1", "m2", "m3", "dv", "random"]


def _majorant_operator(rng, state):
    if state == "dv":  # M2 couples the kernel slot (1, 0) to (4, 1) as well
        op = _stage0_operator(0, 32)
        dv = op.dv_matrix.copy()
        dv[0, (op.lattice.ells == 4) & (op.lattice.js == 1)] = 1.0
        return dataclasses.replace(op, dv_matrix=dv)
    if state == "random":
        return _branch_operator(rng, 1, 12, 18)
    return _stage0_operator(int(state[1]), 16)


def _majorant_cells(op, cells):
    """cells on |S_d| and |dv|, as `_upper_end` builds them for the lattice (subnormals kept)."""
    stacked = np.abs(op.stack[op._fold][:, cells.cols[:, None], cells.cols])
    return cells._replace(stacked=stacked.reshape(-1, len(cells.cols)), dv=np.abs(cells.dv))


@pytest.mark.parametrize("state", _MAJORANT_STATES)
def test_majorant_apply_and_its_transpose_match_the_dense_majorant(rng, state):
    # the matrix-free |M| of the upper end, both ways, against the dense
    # majorant that dominates M = (D - Lop) / eps entry by entry: on the
    # lattice's cell, and summed over the blocks' cells, each on its own grid
    op = _majorant_operator(rng, state)
    mabs = dense_upper_end(op, P)[2]
    _, M1, M2 = split_diagonal(op)
    # M1 = mult - S_0 and |M| = |mult| - |S_0| hold roundings of S_0 on the same-l entries
    assert np.all(np.abs(M1 + M2) <= mabs * (1 + 1e-14) + 1e-15 * np.abs(op.stack[0]).max())
    lat = op.lattice
    cells = _majorant_cells(op, op._cells(np.arange(lat.size)))
    for transpose in (False, True):
        x = np.zeros(lat.mask.shape)
        x[lat.ells, lat.js] = rng.random(lat.size)
        got = op._majorant(x, cells, transpose, op._product(cells))
        want = (mabs.T if transpose else mabs) @ x[lat.ells, lat.js]
        assert np.all(got[~lat.mask] == 0.0)
        assert np.abs(got[lat.ells, lat.js] - want).max() <= 1e-14 * np.abs(want).max()
        summed = np.zeros_like(x)
        for block in map(op._cells, op._partition):
            block = _majorant_cells(op, block)
            sub = np.ix_(block.rows, block.cols[block.cols <= op.J])
            x_b = np.where(block.mask, x[sub], 0.0)
            summed[sub] += op._majorant(x_b, block, transpose, op._product(block))
        assert np.abs(summed[lat.ells, lat.js] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("state", _MAJORANT_STATES)
def test_fold_buffers_give_the_per_call_fold_bit_for_bit(rng, state):
    # `_product` builds its buffers once per solve; each call refills them
    # and gives the bits of the per-call fold, on the lattice, on every block,
    # on the |S_d| cells of the upper end, with and without a centre
    op = _majorant_operator(rng, state)
    lattice = op._cells(np.arange(op.lattice.size))
    for cells in (lattice, _majorant_cells(op, lattice), *map(op._cells, op._partition)):
        product = op._product(cells)
        for _ in range(2):  # the second call overwrites what the first left
            h = rng.standard_normal((op._rows, len(cells.cols)))
            centre = rng.standard_normal(h.shape)
            assert np.array_equal(product(h), fold_product(op, h, cells))
            assert np.array_equal(product(h, centre), fold_product(op, h, cells, centre))


def test_cells_are_built_lazily_and_the_lattice_cell_is_the_lattice():
    # assembly builds no cell, a solve builds those of the blocks it ran on
    # and no lattice-wide dv array, and the upper end of `inverse_norm` runs
    # on `_cells` of every point: the lattice's grid and mask, its dv_matrix
    # and one stride-1 part
    op = _stage0_operator(1, 32)
    lat, grid = op.lattice, (op.L + 1) * (op.J + 1)
    assert op._step > 1 and not op._cell_cache
    b = np.zeros(lat.size)
    b[op._partition[2]] = 1.0
    op.solve(to_field(lat, b))
    assert list(op._cell_cache) == [op._partition[2].tobytes()]
    assert np.array_equal(op.solved, b == 1.0)
    arrays = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
    arrays += [cells.dv for cells in op._cell_cache.values()]
    assert all(grid not in a.shape for a in arrays)
    op.inverse_norm(P)
    cells = op._cell_cache[np.arange(lat.size).tobytes()]
    assert cells.parts == ((0, 1),) and np.array_equal(cells.rows, np.arange(op.L + 1))
    assert np.array_equal(cells.mask, lat.mask) and np.array_equal(cells.cols, np.arange(op.J + 1))
    dv = np.zeros((op.dv_matrix.shape[0], grid))
    dv[:, lat.ells * (op.J + 1) + lat.js] = op.dv_matrix
    assert np.array_equal(cells.dv, dv[cells.slots[0] - 1])


def test_neumann_solve_builds_its_fold_buffers_once(monkeypatch):
    # a solve stopped after 3 sweeps and one of over 20 on the same block
    # build the same strided views and reach the same allocation peak: the
    # fold allocates nothing per sweep
    op = _stage0_operator(1, 64)
    b = np.zeros(op.lattice.size)
    b[op._partition[0][0]] = 1.0
    rhs = to_field(op.lattice, b)
    op.solve(rhs)  # the factorization and the block's cells, built once
    real, views = linearized.as_strided, []

    def as_strided(*args, **kwargs):
        views.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(linearized, "as_strided", as_strided)

    def solve(max_sweeps):
        monkeypatch.setattr(linearized, "_MAX_SWEEPS", max_sweeps)
        views.clear()
        sweeps = op.sweeps
        tracemalloc.start()
        try:
            op.solve(rhs)
        except ResonantSolveError:  # stopped after max_sweeps
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return op.sweeps - sweeps, len(views), peak
    few, many = solve(3), solve(100)
    assert few[0] == 3 and many[0] >= 20
    assert few[1] == many[1] > 0
    assert many[2] <= 1.05 * few[2]


@pytest.mark.parametrize("state", _MAJORANT_STATES)
def test_upper_end_matches_its_dense_form(rng, state):
    # the largest block Schur bound of the first K Neumann terms with
    # s_K <= 1/2, formed densely from the same majorant, and it bounds the
    # exact norm; so does each block's, from the row and column sums
    # restricted to the block
    op = _majorant_operator(rng, state)
    blocks = op._partition
    for params in (P, NormParams(0.7, 1.0)):
        op.inverse_norm(params)
        upper, terms, _ = dense_upper_end(op, params)
        assert op.upper_terms == terms >= 1
        assert abs(op.upper - upper * linearized._UPPER_MARGIN) <= 1e-12 * upper
        assert exact_inverse_norm(op, params) <= op.upper
        ends = op._upper_end(weight_grid(op, params), blocks)[0]
        assert len(ends) == len(blocks) and ends.max() <= op.upper
        assert all(exact_inverse_norm(op, params, [b]) <= end for b, end in zip(blocks, ends))


@pytest.mark.parametrize("state", _MAJORANT_STATES)
def test_upper_end_is_the_largest_block_end(rng, state):
    # B is block diagonal under `_partition`, so ||B|| = max_b ||B_b|| and the
    # largest block end bounds it; it is never above the lattice-wide Schur
    # bound with the same K, and at stage 1 of m = 1 (L = 16) strictly below it
    from resonant_kg.nash_moser import SolverConfig
    cfg = SolverConfig(eps=2e-3, m=1)
    op = _majorant_operator(rng, state)
    for params in (P, NormParams(cfg.sigmas()[1], cfg.s)):
        op.inverse_norm(params)
        ends = op._upper_end(weight_grid(op, params), op._partition)[0]
        whole = dense_upper_end(op, params, lattice_wide=True)[0] * linearized._UPPER_MARGIN
        assert op.upper == ends.max() and op.upper <= whole * (1 + 1e-12)
    if state == "m1":
        assert op.upper < 0.99 * whole


def test_upper_end_is_infinite_when_no_term_count_qualifies(monkeypatch):
    # m = 2 at stage 1 needs K = 3 Neumann terms: with at most 2 the upper end is inf
    from resonant_kg.nash_moser import SolverConfig
    cfg = SolverConfig(eps=2e-3, m=2)
    op = _stage0_operator(2, cfg.L(1))
    params = NormParams(cfg.sigmas()[1], cfg.s)
    op.inverse_norm(params)
    assert op.upper_terms == 3 and np.isfinite(op.upper)
    monkeypatch.setattr(linearized, "_MAX_TERMS", 2)
    value = op.inverse_norm(params)
    assert op.upper_terms == 0 and op.upper == np.inf
    # no block's upper end rules it out, so every block runs
    blocks = op._partition
    assert np.all(op._upper_end(weight_grid(op, params), blocks)[0] == np.inf)
    exact = exact_inverse_norm(op, params)
    assert abs(value - exact) <= 1e-14 * exact


def test_inverse_norm_names_sigma_L_beyond_the_double_range():
    # sigma L = 1920: the centred weights would reach e^+-960, past the double
    # range; the norm refuses at once, before any numpy overflow
    op = _stage0_operator(0, 64)
    with pytest.raises(ResonantSolveError, match=r"L_n=64: sigma L = 1920\.0 puts the weights"):
        op.inverse_norm(NormParams(30.0, 1.0))


def _components(a):
    """Ascending index sets of the connected components of (a != 0) | (a^T != 0).

    A frontier search from the lowest unreached index: a is block diagonal
    under this partition.  The oracle of `LinearizedOperator._partition`,
    read from the matrix rather than derived from the S_d support.
    """
    linked = (a != 0.0) | (a.T != 0.0)
    label = np.full(len(a), -1)
    blocks = []
    for seed in range(len(a)):
        if label[seed] >= 0:
            continue
        label[seed] = len(blocks)
        frontier = [seed]
        while len(frontier):
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & (label < 0))
            label[frontier] = len(blocks)
        blocks.append(np.flatnonzero(label == len(blocks)))
    return blocks


def _block_norm(a, w):
    """`block_inverse_norm` on the blocks of a that the oracle finds, one-by-one ones included."""
    return block_inverse_norm((a[np.ix_(c, c)], w[c]) for c in _components(a))


@pytest.mark.parametrize("state, blocks", [((0, 64), 6), ((1, 32), 6), ((2, 16), 8),
                                           ((3, 8), 10), ("static", 34), ("dv", 5),
                                           ("random", 1)],
                         ids=["m0", "m1", "m2", "m3", "static", "dv", "random"])
def test_components_partition_the_dense_oracle(rng, state, blocks):
    if state == "static":  # b = 3 w^2 has S_0 alone: each l is its own time class
        u = np.zeros((1, 5))
        u[0, [0, 2]] = 0.3, 0.1
        op = assemble_linearized(1e-3, state_at(zero_kernel(4), CoeffField(u)), 16, 4)
    elif state == "dv":  # M2 joins the cell of kernel slot (1, 0) to that of (4, 1)
        op = _stage0_operator(0, 64)
        dv = op.dv_matrix.copy()
        dv[0, (op.lattice.ells == 4) & (op.lattice.js == 1)] = 1.0
        op = dataclasses.replace(op, dv_matrix=dv)
    elif state == "random":
        op = _branch_operator(rng, 1, 12, 18)
    else:
        op = _stage0_operator(*state)
    n = op.lattice.size
    dense = dense_matrix(op)
    part = op._partition
    assert len(part) == blocks
    assert sorted(map(tuple, part)) == sorted(map(tuple, _components(dense)))
    assert np.array_equal(np.sort(np.concatenate(part)), np.arange(n))
    assert all(np.all(np.diff(c) > 0) for c in part)
    label = np.empty(n, dtype=int)
    for k, c in enumerate(part):
        label[c] = k
    assert np.all(dense[label[:, None] != label[None, :]] == 0.0)
    # each block is gathered on its own: the fold and the symbol bit for bit,
    # M2 (a product with dv) to roundoff
    mult, m2 = potential_parts(op, np.arange(n))
    roundoff = 1e-14 * max(np.abs(m2).max(), 1e-300)
    for idx in part:
        at = np.ix_(idx, idx)
        sub_mult, sub_m2 = potential_parts(op, idx)
        assert np.array_equal(sub_mult, mult[at])
        assert np.all(np.abs(sub_m2 - m2[at]) <= roundoff)
        block, exact = gather(op, idx), m2[at] == 0.0
        assert np.array_equal(block[exact], dense[at][exact])
        assert np.all(np.abs(block - dense[at]) <= op.eps * roundoff)


def test_components_follow_one_sided_coupling():
    # the pattern is symmetrized: a coupling stored only in the row of the
    # higher index still joins the two
    a = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0],
                  [1.0, 0.0, 4.0, 0.0], [0.0, 0.0, 0.0, 5.0]])
    assert [c.tolist() for c in _components(a)] == [[0, 2], [1], [3]]


@pytest.mark.parametrize("m, Ln", [(0, 64), (1, 32), (2, 16)])
def test_block_inverse_norm_matches_whole_matrix_gram(m, Ln):
    op = _stage0_operator(m, Ln)
    dense = dense_matrix(op)
    for params in (P, NormParams(1.0, 1.5, 2.0)):
        value = exact_inverse_norm(op, params)
        oracle = weighted_inverse_norm(dense, np.exp(op.lattice.log_weights(params)))
        assert abs(value - oracle) <= 1e-14 * oracle
        assert abs(op.inverse_norm(params) - oracle) <= 1e-14 * oracle


def test_inverse_norm_at_L_1024():
    # sigma L = 0.764 x 1024 = 782 > 709: the certificate's weights reach
    # e^782, and only their ratios w_i / w_j enter B.  The oracle forms each
    # entry w_i a_ij / w_j of B in log space, on each decoupled block
    from resonant_kg.nash_moser import SolverConfig, run
    result = run(SolverConfig(eps=1e-3, m=0, n_max=2))
    op = assemble_linearized(1e-3, state_at(result.kernel, result.w), 1024,
                             result.config.J_space)
    params = NormParams(0.764, 1.0)
    value = op.inverse_norm(params)
    assert op.lattice.size == 3072 and op.power_steps > 0 and np.isfinite(value)
    logw = op.lattice.log_weights(params)
    assert logw.max() > 782
    oracle = 0.0
    for idx in op._partition:
        inv = np.linalg.inv(gather(op, idx))
        with np.errstate(divide="ignore"):  # log 0 = -inf gives the entry 0
            b = np.sign(inv) * np.exp(np.log(np.abs(inv)) + logw[idx, None] - logw[idx])
        oracle = max(oracle, np.linalg.norm(b, 2))
    assert abs(value - oracle) <= 1e-14 * oracle


def _record_block_inversions(monkeypatch):
    """Record the order of every single matrix np.linalg.inv inverts.

    `factorize` inverts its per-l blocks as one stack, which is not recorded.
    """
    real_inv, orders = np.linalg.inv, []

    def inv(a, *args, **kwargs):
        if np.ndim(a) == 2:
            orders.append(len(a))
        return real_inv(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "inv", inv)
    return orders


def test_block_inverse_norm_checks_every_block_for_singularity():
    regular = np.array([[2.0, 1.0], [1.0, 3.0]])
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])  # exactly singular: inv raises
    a = scipy.linalg.block_diag(regular, singular)
    assert [c.tolist() for c in _components(a)] == [[0, 1], [2, 3]]
    with pytest.raises(ResonantSolveError, match="numerically singular"):
        _block_norm(a, np.ones(4))
    # the floor is on max |A_k| max |A_k^-1| over all blocks: 3e10 * 1e295
    a = scipy.linalg.block_diag(1e10 * regular, np.diag([1.0, 1e-295]))
    assert len(_components(a)) == 3
    with pytest.raises(ResonantSolveError, match="numerically singular"):
        _block_norm(a, np.ones(4))
    a = scipy.linalg.block_diag(regular, 0.5 * regular)
    w = np.array([1.0, 3.0, 2.0, 5.0])
    oracle = weighted_inverse_norm(a, w)
    assert abs(_block_norm(a, w) - oracle) <= 1e-14 * oracle
    # a zero one-by-one block has an infinite inverse
    a = scipy.linalg.block_diag(regular, [[0.0]])
    with pytest.raises(ResonantSolveError, match="numerically singular"):
        _block_norm(a, np.ones(3))
    for last in (0.5 * regular, [[0.1]], [[-0.7]]):
        a = scipy.linalg.block_diag(regular, [[4.0]], last)
        w = np.arange(1.0, len(a) + 1.0) ** 2
        oracle = weighted_inverse_norm(a, w)
        assert abs(_block_norm(a, w) - oracle) <= 1e-14 * oracle


def test_block_norm_drops_entries_below_its_resolution(monkeypatch):
    # a upper triangular with order-one inverse: the weighted inverse
    # B_ij = (a^-1)_ij w_i / w_j spans 1 down to 1e-300 above the diagonal
    a = np.eye(4) + np.triu(np.full((4, 4), 0.5))
    w = 10.0 ** (100.0 * np.arange(4))
    b = w[:, None] * np.linalg.inv(a) / w[None, :]
    assert 1e-303 < np.abs(b[0, 3]) < 1e-299 and np.abs(b).max() < 2.0
    unflushed = float(np.sqrt(np.linalg.eigvalsh(b.T @ b)[-1]))
    real_eigvalsh, grams = np.linalg.eigvalsh, []

    def eigvalsh(g):
        grams.append(g)
        return real_eigvalsh(g)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    value = block_inverse_norm([(a, w)])
    # the entries below 2^-60 max|B| / 4 are zero in the Gram matrix, and the
    # norm moves by at most 2^-60 relative, below one rounding
    assert np.count_nonzero(grams[0]) < np.count_nonzero(b.T @ b)
    assert np.all(grams[0][np.abs(b.T @ b) > 1e-17] != 0.0)
    assert abs(value - unflushed) <= 2.0 ** -52 * unflushed
    assert abs(value - np.linalg.norm(b, 2)) <= 1e-14 * value


def test_singleton_blocks_take_no_factorization(monkeypatch):
    # at eps = 0 every unknown is its own block and the norm is max 1 / |symbol|
    op = assemble_linearized(0.0, state_at(zero_kernel(2), CoeffField.zeros(4, 2)), 512, 2)
    orders = _record_block_inversions(monkeypatch)
    value = op.inverse_norm(P)
    assert op.lattice.size == 1536 and op.power_steps == 0
    assert value == op.upper == np.max(1.0 / np.abs(op.symbol_diagonal()))
    assert 1 not in orders


def test_eps_zero_norm_is_exact_above_exact_max(monkeypatch):
    # at eps = 0 the norm 1 / min |D| is exact at any size: no Krylov step at
    # the 2432 unknowns of the last stage, and both ends in the trace are it
    from resonant_kg.nash_moser import SolverConfig, run
    real, ops = linearized.LinearizedOperator.inverse_norm, []

    def inverse_norm(op, *args, **kwargs):
        ops.append(op)
        return real(op, *args, **kwargs)
    monkeypatch.setattr(linearized.LinearizedOperator, "inverse_norm", inverse_norm)
    rec = run(SolverConfig(eps=0.0, m=1, n_max=4)).trace.records[-1]
    op = ops[-1]
    assert op.lattice.size == 2432 and op.power_steps == 0
    assert rec.inverse_norm == rec.inverse_norm_upper == np.max(1.0 / np.abs(op.symbol_diagonal()))


_NO_SCIPY_SCRIPT = """
import os
import sys

sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import resonant_kg
from resonant_kg.nash_moser import SolverConfig, run
run(SolverConfig(eps=1e-3, m=0, n_max=3))
run(SolverConfig(eps=2e-3, m=1, n_max=3))
import numpy as np
from resonant_kg.resonance import ResonanceParams, measure_scan
measure_scan(0.04, 1000, ResonanceParams(0.05, 1.5, eps0=0.05), lambda e: np.full_like(e, 2.0))
from resonant_kg.cli import main
out = sys.argv[1]
run_dir = os.path.join(out, "run")
for argv in (["solve", "--eps", "2e-3", "--m", "1", "--stages", "2", "--out", run_dir],
             ["divisors", "--run", run_dir],
             ["spectrum", "--run", run_dir],
             ["verify", "--field", os.path.join(run_dir, "solution.field"), "--eps", "2e-3"],
             ["measure", "--eta", "0.1", "--samples", "200", "--solve-grid", "2",
              "--out", os.path.join(out, "measure.json")]):
    assert main(argv) == 0, argv
"""


def test_import_loads_no_sparse_module(tmp_path):
    # scipy is a test dependency only: the package, the solves, the measure
    # scan and all five commands run with every import of scipy refused
    import resonant_kg
    src = os.path.dirname(os.path.dirname(resonant_kg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)], env=env, check=True,
                   timeout=300)


def _inverse_norm_with_sweeps(op, params):
    """inverse_norm(params), the Neumann sweeps it ran and its Krylov steps."""
    sweeps = op.sweeps
    value = op.inverse_norm(params)
    return value, op.sweeps - sweeps, op.power_steps


@pytest.mark.parametrize("case", ["m0", "m1", "m2", "m3", "L1024"])
def test_krylov_exits_cut_sweeps_and_keep_the_estimate(monkeypatch, case):
    # the forward solves stop at F ||W dx|| <= u ||W x|| and the adjoint ones
    # at sqrt(u) relative; against both exits off (F = inf, the adjoint
    # tolerance at u) they cut sweeps, add no Krylov steps, and move the
    # estimate by at most 4u.  At L = 1024 the weights reach e^+-391, where squares of
    # v |x| taken at the scale of b would underflow and stop every solve at
    # its first sweep
    if case == "L1024":
        from resonant_kg.nash_moser import SolverConfig, run
        result = run(SolverConfig(eps=1e-3, m=0, n_max=2))
        op = assemble_linearized(1e-3, state_at(result.kernel, result.w), 1024,
                             result.config.J_space)
        params = NormParams(0.764, 1.0)
    else:
        op = _stage0_operator(int(case[1]), 64)
        params = P
    value, sweeps, steps = _inverse_norm_with_sweeps(op, params)
    real = linearized.LinearizedOperator._upper_end
    assert real(op, weight_grid(op, params), op._partition)[2] < np.inf

    def upper_end(self, wg, blocks):
        return (*real(self, wg, blocks)[:2], np.inf)
    monkeypatch.setattr(linearized.LinearizedOperator, "_upper_end", upper_end)
    monkeypatch.setattr(linearized, "_DIRECTION_RTOL", linearized._UNIT_ROUNDOFF)
    ref, ref_sweeps, ref_steps = _inverse_norm_with_sweeps(op, params)
    assert sweeps < ref_sweeps and steps <= ref_steps
    assert abs(value - ref) <= 4 * 2.0 ** -52 * ref
