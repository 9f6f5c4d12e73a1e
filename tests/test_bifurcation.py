import numpy as np
import pytest

from resonant_kg import CoeffField, NormParams
from resonant_kg.bifurcation import (KernelField, KernelSolveError, kernel_derivative_matrix,
                                     one_mode_solution, solve_kernel, total_field)
from resonant_kg.field_algebra import field_multiply
from resonant_kg.spherical_basis import multiplication_matrix

from conftest import from_mode, random_field
from oracles import (bif_block, block_determinant, kernel_derivative, kernel_residual,
                     linearize_kernel)


def test_one_mode_values():
    v0 = one_mode_solution(0)
    assert abs(v0.v[0] - np.sqrt(4.0 / 3.0)) < 1e-15
    v2 = one_mode_solution(2)
    assert abs(v2.v[2] - 2.0) < 1e-15
    with pytest.raises(ValueError):
        one_mode_solution(-1)


def test_one_mode_solves_kernel_equation():
    w0 = CoeffField.zeros(1, 0)
    for m in range(6):
        for sign in (+1, -1):  # the equation is odd: -alpha_m solves it too
            v = KernelField(sign * one_mode_solution(m).v)
            res = kernel_residual(v, CoeffField.zeros(1, v.J))
            scale = (m + 1) ** 3
            assert np.abs(res.v).max() <= 1e-13 * scale
    assert np.abs(kernel_residual(KernelField(np.zeros(3)), CoeffField.zeros(1, 2)).v).max() == 0.0


def test_kernel_residual_requires_range_input():
    v = one_mode_solution(0)
    w = from_mode(1, 0, 0.1)  # resonant entry: not in the range
    with pytest.raises(ValueError):
        kernel_residual(v, w)


def test_residual_linearization_consistency(rng):
    # res(v + t h, 0) = res(v, 0) + t * Lk h + O(t^2)
    m, J = 1, 5
    v = one_mode_solution(m, J_V=J)
    w = CoeffField.zeros(1, J)
    Lk = linearize_kernel(v, w)
    h = rng.standard_normal(J + 1)
    t = 1e-6
    rp = kernel_residual(KernelField(v.v + t * h), w).v
    rm = kernel_residual(KernelField(v.v - t * h), w).v
    fd = (rp - rm) / (2 * t)
    assert np.max(np.abs(fd - Lk @ h)) < 1e-7


def test_linearization_spectrum_m0():
    v = one_mode_solution(0, J_V=6)
    Lk = linearize_kernel(v, CoeffField.zeros(1, 6))
    wj = np.arange(7) + 1.0
    expected = wj ** 2 - 2.0
    expected[0] = -2.0
    assert np.allclose(np.diag(Lk), expected, atol=1e-13)
    assert np.abs(Lk - np.diag(np.diag(Lk))).max() < 1e-14


def test_block_structure_and_determinants():
    # m=1, j=0 block and its determinant
    B = bif_block(1, 0)
    assert np.array_equal(B, [[-3.0, -2.0], [-2.0, 1.0]])
    assert block_determinant(1, 0) == -7
    # closed form check (integer arithmetic) and match with the assembled matrix
    for m in range(1, 11):
        v = one_mode_solution(m, J_V=2 * m + 4)
        Lk = linearize_kernel(v, CoeffField.zeros(1, v.J))
        for j in range(m):
            blk = Lk[np.ix_([j, 2 * m - j], [j, 2 * m - j])]
            assert np.allclose(blk, bif_block(m, j), atol=1e-10)
            wm, wj = m + 1, j + 1
            assert block_determinant(m, j) == -wj * (wm - wj) ** 2 * (4 * wm - wj)
            assert block_determinant(m, j) < 0


def test_spectrum_nondegenerate_with_window():
    for m in (0, 1, 2, 3):
        J = 2 * m + 30
        v = one_mode_solution(m, J_V=J)
        Lk = linearize_kernel(v, CoeffField.zeros(1, J))
        assert np.allclose(Lk, Lk.T, atol=1e-12)
        lam = np.linalg.eigvalsh(Lk)
        assert np.min(np.abs(lam)) > 0.5
        # for j > 2m the matrix is diagonal with Lambda_j = omega_j^2 - 2 omega_m^2
        for j in range(2 * m + 1, J + 1):
            wj2 = (j + 1) ** 2
            diag = Lk[j, j]
            assert abs(diag - (wj2 - 2.0 * (m + 1) ** 2)) < 1e-12
            # j = 2m+1 sits exactly on the lower window edge: allow one ulp
            assert 0.5 * wj2 * (1 - 1e-12) <= abs(diag) <= wj2 * (1 + 1e-12)
            assert np.abs(Lk[j, : j]).max() < 1e-14


def test_solve_kernel_at_zero_is_one_mode():
    for m in (0, 2):
        res = solve_kernel(CoeffField.zeros(1, m + 2), m)
        vbar = one_mode_solution(m, J_V=res.kernel.J)
        assert np.allclose(res.kernel.v, vbar.v, atol=1e-14)
        assert res.iterations == 0


def test_solve_kernel_quadratic_convergence(rng):
    w = random_field(rng, 6, 5, scale=0.1, decay=0.3)
    res = solve_kernel(w, 1, J_V=5)
    hist = res.residual_norms
    assert hist[-1] <= 1e-12
    # quadratic contraction r_{k+1} <= C r_k^2 once inside the basin
    quad_pairs = [(hist[i], hist[i + 1]) for i in range(len(hist) - 1)
                  if 1e-10 < hist[i] < 1e-2]
    assert quad_pairs and all(r1 <= 10.0 * r0 ** 2 for r0, r1 in quad_pairs)
    # converged point actually solves the equation
    assert kernel_residual(res.kernel, w).norm(NormParams(0.0, 1.0)) <= 1e-12


def test_solve_kernel_squares_each_iterate_once(rng, monkeypatch):
    # the start and each accepted iterate cost u^2 and u^2 u; the Jacobian
    # of the next step reads the accepted iterate's u^2
    from resonant_kg import bifurcation
    calls = []

    def counted(a, b):
        calls.append(1)
        return field_multiply(a, b)
    monkeypatch.setattr(bifurcation, "field_multiply", counted)
    w = random_field(rng, 6, 5, scale=0.1, decay=0.3)
    res = solve_kernel(w, 1, J_V=5)
    assert res.iterations >= 2
    assert len(calls) == 2 + 2 * res.iterations  # no step was halved


@pytest.mark.parametrize("m", [2, 3])
def test_kernel_newton_stops_at_the_relative_floor(m):
    # Newton from the previous stage's kernel converges quadratically, so a
    # few steps reach residual <= 1e-13 max(1, ||A v||); more would be
    # line searches stalled at roundoff
    from resonant_kg.nash_moser import SolverConfig, run
    result = run(SolverConfig(eps=2e-3, m=m, n_max=3))
    assert all(rec.kernel_iters <= 3 for rec in result.trace.records)


def test_solve_kernel_nonconvergence_raises(rng, monkeypatch):
    # a large w needs several damped steps; an iteration cap must fail loudly
    from resonant_kg import bifurcation
    w = random_field(rng, 4, 3, scale=3.0, decay=0.1)
    monkeypatch.setattr(bifurcation, "NEWTON_MAX", 2)
    with pytest.raises(KernelSolveError, match="in 2 iterations"):
        solve_kernel(w, 0, J_V=3)


def test_kernel_derivative(rng):
    m, J = 0, 4
    w = random_field(rng, 5, J, scale=0.05, decay=0.3)
    res = solve_kernel(w, m, J_V=J)
    h = random_field(rng, 5, J, scale=1.0, decay=0.2)
    assert np.abs(kernel_derivative(res.kernel, w, CoeffField.zeros(5, J)).v).max() == 0.0
    dv = kernel_derivative(res.kernel, w, h)
    # finite differences of the implicit solution
    t = 1e-6
    vp = solve_kernel(w + t * h, m, J_V=J, start=res.kernel).kernel.v
    vm = solve_kernel(w + (-t) * h, m, J_V=J, start=res.kernel).kernel.v
    fd = (vp - vm) / (2 * t)
    assert np.max(np.abs(fd - dv.v)) < 1e-6 * max(1.0, np.abs(dv.v).max())


def test_derivative_matrix_columns_match_kernel_derivative(rng):
    # the fold gather against the product path: column c is the derivative
    # in the direction of the unit field at lattice point c
    from resonant_kg.linearized import WLattice
    m, L, J = 1, 6, 5
    w = random_field(rng, L, J, scale=0.05, decay=0.3)
    v = solve_kernel(w, m, J_V=J).kernel
    lattice = WLattice(L, J)
    u = total_field(v, w)
    stack = multiplication_matrix(3.0 * field_multiply(u, u).u, J + 1)
    mat = kernel_derivative_matrix(stack, J + 1, lattice.ells, lattice.js)
    assert mat.shape == (J + 1, lattice.size)
    for c, (ell, j) in enumerate(zip(lattice.ells, lattice.js)):
        unit = from_mode(int(ell), int(j), 1.0, L=L, J=J)
        col = kernel_derivative(v, w, unit).v
        assert np.abs(mat[:, c] - col).max() < 1e-12 * max(1.0, np.abs(col).max())


def test_derivative_linear_response(rng):
    # v(w) - v(0) = dv(0)[w] + O(||w||^2)
    m, J = 0, 3
    zero = CoeffField.zeros(4, J)
    base = solve_kernel(zero, m, J_V=J)
    h = random_field(rng, 4, J, scale=1.0, decay=0.2)
    dv = kernel_derivative(base.kernel, zero, h)
    errs = []
    for t in (1e-3, 1e-4):
        vt = solve_kernel(t * h, m, J_V=J).kernel.v
        errs.append(np.abs(vt - base.kernel.v - t * dv.v).max() / t ** 2)
    assert errs[0] < 50 and errs[1] < 50  # second-order remainder stays O(t^2)


def test_derivative_matches_hand_oracle():
    # m=0, w=0.  The base is v = alpha cos(t) e_0 with alpha^2 = 4/3, so
    # q = v^2 = alpha^2 (1/2 + cos(2t)/2) e_0 and the linearization is the
    # diagonal matrix diag(-2, omega_j^2 - 2).
    m, J = 0, 4
    zero = CoeffField.zeros(5, J)
    base = solve_kernel(zero, m, J_V=J)
    # (a) h = cos(2t) e_2: q h has time frequencies {0, 2, 4} on e_2, never
    #     the resonant frequency 3, so the response vanishes.
    h2 = from_mode(2, 2, 0.5, L=5, J=J)
    assert np.abs(kernel_derivative(base.kernel, zero, h2).v).max() < 1e-15
    # (b) h = cos(4t) e_1: q h contains (alpha^2/4) cos(2t) e_1, the resonant
    #     pair for j = 1; rhs_1 = 3 alpha^2 / 4 = 1 and Lk_11 = 2, so dv = e_1/2.
    h1 = from_mode(4, 1, 0.5, L=5, J=J)
    dv = kernel_derivative(base.kernel, zero, h1)
    oracle = np.zeros(J + 1)
    oracle[1] = 0.5
    assert np.allclose(dv.v, oracle, atol=1e-12)
