import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from resonant_kg import CoeffField, NormParams, project_range
from resonant_kg.bifurcation import KernelField, solve_kernel
from resonant_kg.field_algebra import field_multiply, time_cutoff
from resonant_kg import linearized
from resonant_kg.linearized import (EXACT_NORM_MAX, ResonantSolveError, WLattice,
                                    assemble_linearized, dense_matrix,
                                    diagonalize_block, divisor_table,
                                    pairwise_divisor_constant,
                                    preconditioned_split_check, small_divisors,
                                    split_diagonal)
from resonant_kg.spherical_basis import (evaluate_profile, matrix_element,
                                         mean_integral, profile_norm,
                                         sobolev_embedding_constant)

from conftest import random_field

P = NormParams(0.4, 1.0, 2.0)


def zero_kernel(J):
    return KernelField(np.zeros(J + 1))


def test_unperturbed_operator_is_diagonal_symbol():
    op = assemble_linearized(0.0, CoeffField.zeros(4, 3), 0, 4, 3,
                             kernel=zero_kernel(3))
    lat = op.lattice
    sym = lat.ells.astype(float) ** 2 - (lat.js + 1.0) ** 2
    assert np.allclose(dense_matrix(op), np.diag(sym))
    # inversion is then entrywise division by the symbol
    rhs = project_range(CoeffField(np.random.default_rng(0).standard_normal((5, 4))))
    sol = op.solve(rhs)
    expect = lat.to_field(lat.to_vector(rhs) / sym)
    assert np.allclose(sol.u, expect.u)


def test_time_mean_potential_of_one_mode_branch():
    # w = 0 on branch m: b = 3 v_m^2, time mean 2 omega_m e_m^2
    from resonant_kg.bifurcation import one_mode_solution
    from resonant_kg.spherical_basis import eigen_product
    for m in (0, 1, 2):
        v = one_mode_solution(m, +1)
        op = assemble_linearized(1e-3, CoeffField.zeros(1, v.J), m, 4, 2 * m + 2,
                                 kernel=v)
        expect = 2.0 * (m + 1) * eigen_product(m, m)
        assert np.allclose(op.b0[: len(expect)], expect, atol=1e-12)
        assert np.abs(op.b0[len(expect):]).max(initial=0.0) < 1e-12


def test_symmetry_in_weighted_time_basis(rng):
    # D - eps M1 is self-adjoint for the (1, 2, 2, ...) time weights
    w = random_field(rng, 6, 5, scale=0.05, decay=0.3)
    ks = solve_kernel(w, 1, J_V=5)
    op = assemble_linearized(1e-2, w, 1, 6, 5, kernel=ks.kernel)
    parts = split_diagonal(op)
    sym_part = parts.D - op.eps * parts.M1
    mult = np.where(op.lattice.ells == 0, 1.0, 2.0)
    weighted = mult[:, None] * sym_part
    assert np.abs(weighted - weighted.T).max() < 1e-12 * max(1, np.abs(weighted).max())


def test_split_reassembles_exactly(rng):
    w = random_field(rng, 5, 4, scale=0.08, decay=0.2)
    ks = solve_kernel(w, 0, J_V=4)
    op = assemble_linearized(2e-2, w, 0, 5, 4, kernel=ks.kernel)
    parts = split_diagonal(op)
    dense = dense_matrix(op)
    assert np.abs(parts.reassemble(op.eps) - dense).max() < 1e-13 * np.abs(dense).max()


def test_time_constant_potential_has_no_offdiagonal():
    # kernel forced to zero and w constant in time: b = 3 w^2 is time constant,
    # so the zero-mean part M1 vanishes identically
    w = CoeffField.zeros(3, 2)
    w.u[0, 1] = 0.4
    op = assemble_linearized(1e-2, w, 0, 3, 2, kernel=zero_kernel(2))
    parts = split_diagonal(op)
    assert np.abs(parts.M1).max() == 0.0


def test_operator_matches_directional_derivative(rng):
    # matrix action vs finite differences of the projected nonlinearity
    eps, m, Ln, J = 1e-2, 0, 6, 4
    w = random_field(rng, Ln, J, scale=0.02, decay=0.3)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, w, m, Ln, J, kernel=ks.kernel)
    h = random_field(rng, Ln, J, decay=0.1)
    omega = np.sqrt(1 + eps)

    def gamma_proj(wf):
        k = solve_kernel(wf, m, J_V=J, tol=1e-13)
        u = k.kernel.embed(L=max(wf.L, k.kernel.J + 1), J=max(wf.J, k.kernel.J)) + wf
        g = field_multiply(field_multiply(u, u), u)
        return project_range(time_cutoff(g, Ln)).truncate(Ln, J, P)[0]

    t = 1e-5
    fd = (1.0 / (2 * t)) * (gamma_proj(w + t * h) - gamma_proj(w + (-t) * h))
    expected = h.apply_wave_symbol(omega) - eps * fd
    got = op.apply(h)
    assert (got - expected).norm(P) < 1e-8 * max(1.0, expected.norm(P))


def test_block_diagonalization_basics():
    blk = diagonalize_block(3, 0.0, np.zeros(1), 12)
    kept = np.array([j for j in range(13) if j != 2])
    assert np.array_equal(blk.js, kept)
    assert np.allclose(blk.lam, (kept + 1.0) ** 2)
    assert np.allclose(np.abs(blk.vectors[kept, np.arange(12)]), 1.0)
    # constant potential shifts every retained eigenvalue by exactly eps
    eps = 1e-3
    blk1 = diagonalize_block(3, eps, np.array([1.0]), 12)
    assert np.allclose(blk1.lam, (kept + 1.0) ** 2 + eps, atol=1e-14)


def test_block_drift_first_order(rng):
    # drift from omega_j^2 + eps*mean matches the diagonal matrix element
    eps = 1e-3
    b0 = np.zeros(3)
    b0[2] = 1.0  # e_2
    blk = diagonalize_block(4, eps, b0, 40)
    mean = mean_integral(b0)
    for i, j in enumerate(blk.js):
        drift = blk.lam[i] - (j + 1.0) ** 2
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
            blk = diagonalize_block(ell, eps, b0, 64)
            bound = C * eps * nb / (blk.js + 1.0) ** (1.0 - delta)
            drift = np.abs(blk.lam - (blk.js + 1.0) ** 2 - eps * mean)
            assert np.all(drift <= bound)


def test_eigenvalue_slope_and_curvature(rng):
    # d(lambda)/d(eps) at 0 equals <b0 e_j, e_j>; second derivative bounded
    b0 = rng.standard_normal(5) * 0.4
    sup = np.max(np.abs(evaluate_profile(b0, np.linspace(0, np.pi, 4096))))
    ell, J = 2, 24
    t = 1e-5
    lam0 = diagonalize_block(ell, 0.0, b0, J).lam
    lamp = diagonalize_block(ell, +t, b0, J).lam
    lamm = diagonalize_block(ell, -t, b0, J).lam
    blk = diagonalize_block(ell, 0.0, b0, J)
    slopes = (lamp - lamm) / (2 * t)
    for i, j in enumerate(blk.js):
        assert abs(slopes[i] - matrix_element(b0, int(j), int(j))) < 1e-6
    curv = (lamp - 2 * lam0 + lamm) / t ** 2
    assert np.all(np.abs(curv) <= 4.0 * sup ** 2 / (blk.js + 1.0) + 1e-2)


def test_block_orthogonality_and_weighted_normalization(rng):
    eps = 5e-3
    b0 = rng.standard_normal(6) * 0.3
    blk = diagonalize_block(5, eps, b0, 20)
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
    a = diagonalize_block(3, 1e-3, b0, 32, want_vectors=False)
    b = diagonalize_block(3, 1e-3, b0, 64, want_vectors=False)
    take = [i for i, j in enumerate(a.js) if j <= 16]
    for i in take:
        j = a.js[i]
        k = list(b.js).index(j)
        assert abs(a.lam[i] - b.lam[k]) < 1e-8 * abs(b.lam[k])


def test_banded_and_dense_paths_agree(rng):
    b0 = rng.standard_normal(7) * 0.4
    for ell in (0, 2, 9):
        dense = diagonalize_block(ell, 2e-3, b0, 40, want_vectors=True)
        banded = diagonalize_block(ell, 2e-3, b0, 40, want_vectors=False)
        assert np.allclose(np.sort(dense.lam), np.sort(banded.lam), atol=1e-10)


def test_neumann_threshold_guard():
    b0 = np.array([5.0, 3.0, 2.0])
    with pytest.raises(ValueError):
        diagonalize_block(2, 0.2, b0, 16)


def test_small_divisors_examples():
    # eps = 0, l = 5: omega_j = 5 removed; min over the rest is |25 - 16| = 9
    blocks = [diagonalize_block(ell, 0.0, np.zeros(1), 30) for ell in (0, 5)]
    rep = small_divisors(0.0, blocks, gamma=0.05, tau=1.5)
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
    blocks = [diagonalize_block(ell, eps, b0, 24) for ell in range(7)]
    rep = small_divisors(eps, blocks, gamma=0.05, tau=1.5)
    assert np.allclose(tab.alpha, rep.alpha, atol=1e-11)
    assert np.array_equal(tab.j_min, rep.j_min)


def test_inverse_roundtrip_and_norm_bound(rng):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, w, m, Ln, J, kernel=ks.kernel)
    rhs = random_field(rng, Ln, J, decay=0.1)
    sol = op.solve(rhs)
    err = (op.apply(sol) - rhs).norm(P) / rhs.norm(P)
    assert err < 1e-10
    gamma, tau = 0.05, 1.5
    assert op.inverse_norm(P) <= (648.0 / gamma) * Ln ** (tau - 1.0)


def test_solve_rejects_offlattice_support(rng):
    op = assemble_linearized(1e-3, CoeffField.zeros(4, 2), 0, 4, 2,
                             kernel=zero_kernel(2))
    bad = CoeffField.from_mode(6, 1, 1.0)  # beyond the time truncation
    with pytest.raises(ValueError):
        op.solve(bad)


def test_singular_factorization_raises():
    # at eps = 3 and b = 0, omega^2 l^2 = omega_j^2 at the kept point (l, j) = (1, 1):
    # the l = 1 block of D is exactly singular
    op = assemble_linearized(3.0, CoeffField.zeros(3, 2), 0, 3, 2,
                             kernel=zero_kernel(2))
    with pytest.raises(ResonantSolveError, match="block l=1"):
        op.factorize()


def test_preconditioned_split_unperturbed():
    op = assemble_linearized(0.0, CoeffField.zeros(4, 3), 0, 4, 3,
                             kernel=zero_kernel(3))
    rep = preconditioned_split_check(op, P, gamma=0.05, tau=1.5)
    assert rep.u_ok and rep.r1_norm == 0.0 and rep.r2_norm == 0.0
    assert rep.factorization_error < 1e-12
    assert rep.neumann_converged and rep.neumann_vs_dense < 1e-12


def test_preconditioned_split_perturbed(rng, monkeypatch):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, w, m, Ln, J, kernel=ks.kernel)
    rep = preconditioned_split_check(op, NormParams(0.4, 1.0), gamma=0.05, tau=1.5)
    assert rep.u_ok                      # ||U|| <= 4
    assert rep.dhalf_ok                  # ||D^-1/2|| <= 9/sqrt(gamma) with the s-shift
    assert rep.factorization_error < 1e-10
    assert rep.neumann_converged
    assert rep.neumann_vs_dense < 1e-8
    assert np.isfinite(rep.r1_constant) and np.isfinite(rep.r2_constant)
    # a production solve that does not settle is reported, not raised
    monkeypatch.setattr(linearized, "_MAX_SWEEPS", 1)
    op = assemble_linearized(eps, w, m, Ln, J, kernel=ks.kernel)
    rep = preconditioned_split_check(op, NormParams(0.4, 1.0), gamma=0.05, tau=1.5)
    assert not rep.neumann_converged and rep.neumann_vs_dense == np.inf
    assert rep.u_ok and rep.factorization_error < 1e-10


def test_lattice_roundtrip(rng):
    lat = WLattice(5, 4)
    f = random_field(rng, 5, 4, decay=0.1)
    assert np.allclose(lat.to_field(lat.to_vector(f)).u, f.u)
    assert lat.in_lattice_support(f)
    g = CoeffField.from_mode(2, 1, 1.0)  # resonant point
    assert not lat.in_lattice_support(g)


def test_inverse_norm_power_iteration_agrees(rng):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, w, m, Ln, J, kernel=ks.kernel)
    exact = op.inverse_norm(P)
    assert op.power_steps == 0 and op.norm_blocks >= 1
    powered = op.inverse_norm(P, exact_threshold=0, power_iterations=60)
    assert abs(powered - exact) < 1e-6 * exact
    # the stopped estimate is a lower bound (up to the exact value's own
    # rounding) within 1e-12 of the exact Gram value
    stopped = op.inverse_norm(P, exact_threshold=0)
    assert 0 < op.power_steps < 40 and op.norm_blocks == op.largest_block == 0
    assert exact * (1 - 1e-12) <= stopped <= exact * (1 + 1e-15)


def test_krylov_estimate_is_monotone_lower_bound(rng):
    eps, m, Ln, J = 1e-3, 0, 8, 3
    w = random_field(rng, Ln, J, scale=0.02, decay=0.4)
    op = assemble_linearized(eps, w, m, Ln, J, kernel=solve_kernel(w, m, J_V=J).kernel)
    exact = op.inverse_norm(P)
    estimates = [op.inverse_norm(P, exact_threshold=0, power_iterations=k) for k in range(1, 9)]
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))
    assert op.lattice.size == 32 and max(estimates) <= exact * (1 + 1e-15)


def test_krylov_estimate_exhausts_a_small_lattice(rng):
    # four unknowns: the estimate still moves at step 3, so the Krylov space
    # is the whole lattice at step 4, where the loop must stop
    op = _branch_operator(rng, 0, 2, 1, eps=0.1)
    n = op.lattice.size
    exact = op.inverse_norm(P)
    value = op.inverse_norm(P, exact_threshold=0, power_iterations=3 * n)
    assert op.power_steps == n == 4
    assert exact * (1 - 1e-13) <= value <= exact * (1 + 1e-15)


@pytest.mark.parametrize("threshold", [0, 10 ** 6], ids=["krylov", "exact"])
def test_inverse_norm_fails_closed_on_non_finite_operator(threshold):
    op = _stage0_operator(1, 32)
    op.stack[0, 0, 0] = np.nan
    with pytest.raises(ResonantSolveError, match="non-finite image at Krylov step 1"
                       if threshold == 0 else "not finite"):
        op.inverse_norm(P, exact_threshold=threshold)


def test_krylov_estimate_converges_in_few_steps_at_l128(monkeypatch):
    from resonant_kg.nash_moser import SolverConfig, run
    real = linearized.LinearizedOperator.inverse_norm
    seen = []

    def inverse_norm(op, params, *args, **kwargs):
        seen.append((op, params))
        return real(op, params, *args, **kwargs)
    monkeypatch.setattr(linearized.LinearizedOperator, "inverse_norm", inverse_norm)
    run(SolverConfig(eps=2e-3, m=1, n_max=4))
    op, params = seen[-1]
    assert op.L == 128 and op.lattice.size > EXACT_NORM_MAX
    estimate = real(op, params)
    steps = op.power_steps
    exact = real(op, params, exact_threshold=10 ** 6)
    assert 1 <= steps <= 8
    assert exact * (1 - 1e-12) <= estimate <= exact * (1 + 1e-15)


def test_assembly_forms_square_and_stack_once(rng, monkeypatch):
    # q = (v + w)^2 and the S_d stack of b = 3 q serve the whole assembly
    import sys
    from resonant_kg import field_algebra
    w = random_field(rng, 4, 5, scale=0.05, decay=0.3)
    kernel = solve_kernel(w, 1, J_V=5).kernel
    calls = {"field_multiply": 0, "mult_matrix_stack": 0}
    for name in calls:
        real = getattr(field_algebra, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("resonant_kg")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counted)
    assemble_linearized(2e-3, w, 1, 8, 5, kernel=kernel)
    assert calls == {"field_multiply": 1, "mult_matrix_stack": 1}


def _block_oracle(eps, b0, L_n, J_max):
    """Per-l banded eigensolves: the path divisor_table replaced."""
    blocks = [diagonalize_block(ell, eps, b0, J_max, want_vectors=False)
              for ell in range(L_n + 1)]
    return small_divisors(eps, blocks, gamma=0.05, tau=1.5)


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
    rep = _block_oracle(eps, b0, L_n, J_max)
    assert np.array_equal(tab.ells, rep.ells)
    assert np.all(np.abs(tab.alpha - rep.alpha) <= 1e-10 * rep.alpha)
    assert np.array_equal(tab.j_min, rep.j_min)
    assert np.array_equal(tab.ok, rep.ok)


def _dense_bands(kept, eps, B, bw):
    """Banded storage of omega_j^2 + eps B on the kept modes, read from the dense B."""
    n = len(kept)
    bands = np.zeros((bw + 1, n))
    bands[bw] = (kept + 1.0) ** 2 + eps * B[kept, kept]
    for d in range(1, bw + 1):
        bands[bw - d, d:] = eps * B[kept[: n - d], kept[d:]]
    return bands


@pytest.mark.parametrize("n", [65, 513, 1025])
@pytest.mark.parametrize("bw", [0, 4, 36])
def test_bands_from_diagonals_match_dense_bands(n, bw):
    # divisor_table and the per-block solves read only the first diagonals of
    # B, not the dense matrix: all modes, and every mode but one
    from resonant_kg.spherical_basis import diagonal_sums, multiplication_matrix
    b0 = np.random.default_rng(n + bw).standard_normal(bw + 1) * 0.3
    b0[0] = 2.0
    B = multiplication_matrix(b0, n)
    for kept, rows in ((np.arange(n), bw + 1), (linearized._kept_modes(n // 2, n), bw + 2)):
        diag = diagonal_sums(b0, n, rows)
        assert np.array_equal(linearized._bands(kept, 2e-3, diag, bw),
                              _dense_bands(kept, 2e-3, B, bw))


def test_divisor_table_secular_path_on_assembled_b0():
    # the time-mean potential of a converged m = 1 state, at (L_n, J_max) = (64, 128)
    from resonant_kg.nash_moser import SolverConfig, solve_stage, solve_stage0
    cfg = SolverConfig(eps=2e-3, m=1, n_max=2, divisor_diagnostics=False)
    w, kernel, _ = solve_stage0(cfg)
    w, kernel, _ = solve_stage(0, w, kernel, cfg)
    op = assemble_linearized(cfg.eps, w, 1, 64, cfg.J_space, kernel=kernel.kernel)
    tab = divisor_table(cfg.eps, op.b0, 64, 128, gamma=0.05, tau=1.5)
    rep = _block_oracle(cfg.eps, op.b0, 64, 128)
    assert np.all(np.abs(tab.alpha - rep.alpha) <= 1e-10 * rep.alpha)
    assert np.array_equal(tab.j_min, rep.j_min)


@pytest.mark.parametrize("m, Ln, J", [(0, 16, 4), (1, 12, 18), (1, 8, 30)])
def test_inverse_norm_matches_svd_oracle(rng, m, Ln, J):
    eps = 2e-3
    w = random_field(rng, 4, J, scale=0.02, decay=0.4)
    ks = solve_kernel(w, m, J_V=J)
    op = assemble_linearized(eps, w, m, Ln, J, kernel=ks.kernel)
    assert op.lattice.size <= 300
    for params in (P, NormParams(1.0, 1.5, 2.0)):
        wt = op.lattice.weights(params)
        inv = np.linalg.inv(dense_matrix(op))
        oracle = np.linalg.norm(wt[:, None] * inv / wt[None, :], 2)
        assert abs(op.inverse_norm(params) - oracle) <= 1e-14 * oracle


def _branch_operator(rng, m, Ln, J, eps=2e-3):
    w = random_field(rng, 6, J, scale=0.02, decay=0.4)
    return assemble_linearized(eps, w, m, Ln, J, kernel=solve_kernel(w, m, J_V=J).kernel)


def _stage0_operator(m, Ln):
    # a branch state holds only odd multiples of omega_m in time, so b has
    # only the multiples of 2 omega_m and the fold skips the other S_d
    from resonant_kg.nash_moser import SolverConfig, solve_stage0
    cfg = SolverConfig(eps=2e-3, m=m)
    w, kernel, _ = solve_stage0(cfg)
    return assemble_linearized(cfg.eps, w, m, Ln, cfg.J_space, kernel=kernel.kernel)


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
    for got, want in ((op.apply(h), dense @ x), (op.apply(h, adjoint=True), dense.T @ x)):
        got = lat.to_vector(got)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(got[lat.ells == 0] - want[lat.ells == 0]).max() \
            <= 1e-14 * np.abs(want[lat.ells == 0]).max()


@pytest.mark.parametrize("m, Ln, J", [(0, 64, 4), (1, 24, 18), (2, 8, 34)])
def test_solve_matches_lu_in_weighted_norm(rng, m, Ln, J):
    op = _branch_operator(rng, m, Ln, J)
    lat = op.lattice
    rhs = random_field(rng, Ln, J, decay=0.05)
    want = lat.to_field(scipy.linalg.lu_solve(scipy.linalg.lu_factor(dense_matrix(op)),
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
    got = lat.to_vector(op.solve(lat.to_field(b)))
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
    blocks, inverse = op.factorize()
    op._split = (blocks, -3.0 * inverse)
    with pytest.raises(ResonantSolveError, match="update grows at L_n=12, sweep 2"):
        op.solve(rhs)


def test_run_gathers_no_dense_matrix_above_exact_max(monkeypatch):
    from resonant_kg.nash_moser import SolverConfig, run
    real = linearized._convolution_matrix
    sizes = []

    def guarded(stack, lattice):
        sizes.append(lattice.size)
        if lattice.size > EXACT_NORM_MAX:
            raise AssertionError(f"dense gather at {lattice.size} unknowns")
        return real(stack, lattice)
    monkeypatch.setattr(linearized, "_convolution_matrix", guarded)
    result = run(SolverConfig(eps=2e-3, m=1, n_max=4))
    assert max(sizes) <= EXACT_NORM_MAX
    assert [r.inverse_norm_exact for r in result.trace.records] == [True] * 4 + [False]


def _whole_matrix_inverse_norm(a, w):
    """The exact inverse norm on the whole matrix: one LU and one Gram eigenvalue."""
    n = len(a)
    inv = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.eye(n, order="F"))
    inv *= w[:, None]
    inv /= w[None, :]
    gram = scipy.linalg.blas.dsyrk(1.0, inv, trans=1, lower=0)
    top = scipy.linalg.eigvalsh(gram, lower=False, subset_by_index=[n - 1, n - 1])
    return float(np.sqrt(top[0]))


@pytest.mark.parametrize("state, blocks", [((0, 64), 6), ((1, 32), 6), ((2, 16), 8),
                                           ("eps0", None), ("random", 1)],
                         ids=["m0", "m1", "m2", "eps0", "random"])
def test_components_partition_the_dense_oracle(rng, state, blocks):
    if state == "eps0":
        op = assemble_linearized(0.0, CoeffField.zeros(4, 4), 0, 16, 4, kernel=zero_kernel(4))
        blocks = op.lattice.size  # D alone: every unknown is its own block
    elif state == "random":
        op = _branch_operator(rng, 1, 12, 18)
    else:
        op = _stage0_operator(*state)
    dense = dense_matrix(op)
    comps = linearized._components(dense)
    assert len(comps) == blocks
    assert np.array_equal(np.sort(np.concatenate(comps)), np.arange(op.lattice.size))
    assert all(np.all(np.diff(c) > 0) for c in comps)
    label = np.empty(op.lattice.size, dtype=int)
    for k, c in enumerate(comps):
        label[c] = k
    assert np.all(dense[label[:, None] != label[None, :]] == 0.0)


def test_components_follow_one_sided_coupling():
    # the pattern is symmetrized: a coupling stored only in the row of the
    # higher index still joins the two
    a = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0],
                  [1.0, 0.0, 4.0, 0.0], [0.0, 0.0, 0.0, 5.0]])
    assert [c.tolist() for c in linearized._components(a)] == [[0, 2], [1], [3]]


@pytest.mark.parametrize("m, Ln", [(0, 64), (1, 32), (2, 16)])
def test_block_inverse_norm_matches_whole_matrix_gram(m, Ln):
    op = _stage0_operator(m, Ln)
    dense = dense_matrix(op)
    for params in (P, NormParams(1.0, 1.5, 2.0)):
        value = op.inverse_norm(params)
        assert op.norm_blocks >= 6 and op.largest_block < op.lattice.size
        oracle = _whole_matrix_inverse_norm(dense, op.lattice.weights(params))
        assert abs(value - oracle) <= 1e-14 * oracle


def test_exact_inverse_norm_factors_no_whole_matrix(monkeypatch):
    from resonant_kg.nash_moser import SolverConfig, run
    real_lu, real_norm = scipy.linalg.lu_factor, linearized.LinearizedOperator.inverse_norm
    orders, stages = [], []

    def lu_factor(a, *args, **kwargs):
        orders.append(len(a))
        return real_lu(a, *args, **kwargs)

    def inverse_norm(op, *args, **kwargs):
        start = len(orders)
        value = real_norm(op, *args, **kwargs)
        stages.append((op.lattice.size, op.norm_blocks, op.largest_block, orders[start:]))
        return value
    monkeypatch.setattr(scipy.linalg, "lu_factor", lu_factor)
    monkeypatch.setattr(linearized.LinearizedOperator, "inverse_norm", inverse_norm)
    run(SolverConfig(eps=1e-3, m=0, n_max=4))
    assert len(stages) == 4 and sum(len(s[3]) for s in stages) == len(orders)
    for n, count, largest, lus in stages:
        assert len(lus) == count and max(lus) == largest < n
    assert stages[-1][:3] == (384, 6, 65)


def test_block_inverse_norm_checks_every_block_for_singularity():
    regular = np.array([[2.0, 1.0], [1.0, 3.0]])
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])  # its LU has an exact zero pivot
    a = scipy.linalg.block_diag(regular, singular)
    comps = linearized._components(a)
    assert [c.tolist() for c in comps] == [[0, 1], [2, 3]]
    with pytest.raises(ResonantSolveError, match="numerically singular"):
        linearized._block_inverse_norm(a, np.ones(4), comps)
    # the pivot floor is relative to the largest pivot of any block
    a = scipy.linalg.block_diag(1e10 * regular, np.diag([1.0, 1e-295]))
    comps = linearized._components(a)
    assert len(comps) == 3
    with pytest.raises(ResonantSolveError, match="numerically singular"):
        linearized._block_inverse_norm(a, np.ones(4), comps)
    a = scipy.linalg.block_diag(regular, 0.5 * regular)
    w = np.array([1.0, 3.0, 2.0, 5.0])
    oracle = np.linalg.norm(w[:, None] * np.linalg.inv(a) / w[None, :], 2)
    value = linearized._block_inverse_norm(a, w, linearized._components(a))
    assert abs(value - oracle) <= 1e-14 * oracle
    # a one-by-one block is its own pivot
    a = scipy.linalg.block_diag(regular, [[0.0]])
    with pytest.raises(ResonantSolveError, match="numerically singular"):
        linearized._block_inverse_norm(a, np.ones(3), linearized._components(a))
    for last in (0.5 * regular, [[0.1]], [[-0.7]]):
        a = scipy.linalg.block_diag(regular, [[4.0]], last)
        w = np.arange(1.0, len(a) + 1.0) ** 2
        oracle = np.linalg.norm(w[:, None] * np.linalg.inv(a) / w[None, :], 2)
        value = linearized._block_inverse_norm(a, w, linearized._components(a))
        assert abs(value - oracle) <= 1e-14 * oracle


def test_singleton_blocks_take_no_factorization(monkeypatch):
    # at eps = 0 every unknown is its own block and the norm is max 1 / |symbol|
    op = assemble_linearized(0.0, CoeffField.zeros(4, 2), 0, 512, 2, kernel=zero_kernel(2))
    orders = []
    real_lu = scipy.linalg.lu_factor

    def lu_factor(a, *args, **kwargs):
        orders.append(len(a))
        return real_lu(a, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "lu_factor", lu_factor)
    value = op.inverse_norm(P)
    assert op.lattice.size == op.norm_blocks == 1536 and op.largest_block == 1
    assert value == np.max(1.0 / np.abs(op.symbol_diagonal()))
    assert 1 not in orders


def test_import_loads_no_sparse_module():
    # scipy.sparse would add tens of milliseconds and megabytes to every start
    import resonant_kg
    src = os.path.dirname(os.path.dirname(resonant_kg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import resonant_kg, sys; assert 'scipy.sparse' not in sys.modules"],
                   env=env, check=True, timeout=120)
