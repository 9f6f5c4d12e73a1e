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


def test_preconditioned_split_perturbed(rng):
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
    powered = op.inverse_norm(P, exact_threshold=0, power_iterations=60)
    assert abs(powered - exact) < 1e-6 * exact
    # the stopped estimate is a lower bound (up to the exact value's own
    # rounding) within 1e-12 of the exact Gram value
    stopped = op.inverse_norm(P, exact_threshold=0)
    assert 0 < op.power_steps < 40
    assert exact * (1 - 1e-12) <= stopped <= exact * (1 + 1e-15)


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
                                             (1, 32, 18, "branch")])
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
