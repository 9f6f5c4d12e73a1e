import numpy as np
import pytest

from resonant_kg.spherical_basis import eigen_product, mean_integral, multiplication_matrix

from conftest import (evaluate_basis, evaluate_profile, gauss_nodes, profile_norm,
                      profile_product, quad_inner, quad_triple)
from oracles import matrix_element, sobolev_embedding_constant


def test_eigen_product_examples():
    p = eigen_product(2, 3)
    assert np.array_equal(p, [0, 1, 0, 1, 0, 1])
    for k in range(6):
        q = eigen_product(0, k)
        assert q[k] == 1.0 and np.count_nonzero(q) == 1
    # (4,4): coefficients computed by the quadrature oracle
    p44 = eigen_product(4, 4)
    expected = np.array([quad_triple(4, 4, l) for l in range(9)])
    assert np.allclose(p44, expected, atol=1e-10)


def test_eigen_product_against_quadrature_sweep():
    for j in range(0, 9):
        for k in range(j, 9):
            p = eigen_product(j, k)
            for ell in range(j + k + 1):
                assert abs(p[ell] - quad_triple(j, k, ell)) < 1e-10


def test_orthonormality_by_quadrature():
    x, w = gauss_nodes(64)
    E = evaluate_basis(12, x)
    for j in range(13):
        for k in range(13):
            val = quad_inner(E[j], E[k], x, w)
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-10
    # e_2 = 1 + 2 cos(2x) = sin(3x) / sin(x)
    x = np.linspace(0.05, np.pi - 0.05, 201)
    vals = evaluate_profile(np.array([0, 0, 1.0]), x)
    assert np.allclose(vals, np.sin(3 * x) / np.sin(x), atol=1e-12)


def test_cube_inner_product_is_omega():
    # <e_m^3, e_m> = omega_m
    for m in range(11):
        em = np.zeros(m + 1)
        em[m] = 1.0
        cube = profile_product(profile_product(em, em), em)
        assert abs(cube[m] - (m + 1)) < 1e-12


def test_profile_multiply_examples(rng):
    a = rng.standard_normal(7)
    assert np.allclose(profile_product(np.array([1.0]), a), a)
    p = profile_product(np.array([0, 1.0]), np.array([0, 0, 1.0]))
    assert np.allclose(p, [0, 1, 0, 1])  # e_1 e_2 = e_1 + e_3
    # bilinearity and commutativity
    b = rng.standard_normal(5)
    c = rng.standard_normal(6)
    assert np.allclose(profile_product(a, b + np.pad(c, (0, 0))[:5]),
                       profile_product(a, b) + profile_product(a, c[:5]))
    ab = profile_product(a, b)
    ba = profile_product(b, a)
    assert np.allclose(ab, ba, atol=1e-14)


def test_mean_integral():
    assert mean_integral(np.array([1.0])) == 1.0
    # (1/pi) int e_1 = 0: check by quadrature as well
    x, w = gauss_nodes(32)
    e1 = evaluate_profile(np.array([0, 1.0]), x)
    assert abs(np.sum(w * e1) / np.pi - 0.0) < 1e-12
    assert mean_integral(np.array([0, 1.0])) == 0.0
    p = np.array([0, 0, 1.0, 3.0])  # e_2 + 3 e_3
    vals = evaluate_profile(p, x)
    oracle = np.sum(w * vals) / np.pi
    assert abs(mean_integral(p) - oracle) < 1e-10
    assert mean_integral(p) == 1.0


def test_matrix_element():
    assert matrix_element(np.array([1.0]), 4, 4) == 1.0
    assert matrix_element(np.array([0, 0, 1.0]), 5, 5) == 1.0
    # against quadrature for a generic profile
    b = np.array([0.3, -0.2, 0.5, 0.1])
    x, w = gauss_nodes(48)
    bx = evaluate_profile(b, x)
    E = evaluate_basis(8, x)
    for j in range(7):
        for k in range(7):
            oracle = quad_inner(bx * E[j], E[k], x, w)
            assert abs(matrix_element(b, j, k) - oracle) < 1e-10


def test_multiplication_matrix_matches_elements(rng):
    b = rng.standard_normal(9)
    M = multiplication_matrix(b, 12)
    for j in range(12):
        for k in range(12):
            assert abs(M[j, k] - matrix_element(b, j, k)) < 1e-13
    assert np.allclose(M, M.T)


def test_multiplication_matrix_exact_on_steep_profiles():
    # entries far below the largest coefficient keep their value: each entry
    # is compared in relative terms with the direct partial sum
    steep = np.exp(-2.0 * np.arange(41))
    for b, size in ((np.array([1.0, 0.0, 1e-200]), 4), (steep, 30)):
        M = multiplication_matrix(b, size)
        for j in range(size):
            for k in range(size):
                ref = matrix_element(b, j, k)
                assert abs(M[j, k] - ref) <= 1e-14 * abs(ref), (j, k, M[j, k], ref)
    assert multiplication_matrix(np.array([1.0, 0.0, 1e-200]), 3)[0, 2] == 1e-200


def test_diagonal_split_bound(rng):
    # <b e_j, e_j> = mean + r_j with |r_j| <= c(d) ||b||_{H^(r+1+d)} (2 omega_j)^-r
    delta = 0.5
    r = 1.0 - delta
    c = sobolev_embedding_constant(delta)
    for _ in range(5):
        b = rng.standard_normal(9) * np.exp(-0.3 * np.arange(9))
        mean = mean_integral(b)
        nb = profile_norm(b, r + 1 + delta)
        for j in range(24):
            rj = matrix_element(b, j, j) - mean
            assert abs(rj) <= c * nb / (2 * (j + 1)) ** r + 1e-13


def test_offdiagonal_decay_bound(rng):
    # |<b e_j, e_k>| <= c(d) ||b||_{H^(r+1+d)} (<k-j>^-r + (w_k+w_j)^-r), d = 0.5
    delta = 0.5
    c = sobolev_embedding_constant(delta)
    for r in (1.0, 2.0):
        for _ in range(4):
            b = rng.standard_normal(17) * np.exp(-0.2 * np.arange(17))
            nb = profile_norm(b, r + 1 + delta)
            for j in range(0, 20, 3):
                for k in range(0, 20, 3):
                    lhs = abs(matrix_element(b, j, k))
                    gap = max(1, abs(k - j))
                    rhs = c * nb * (gap ** (-r) + (j + k + 2.0) ** (-r))
                    assert lhs <= rhs * (1 + 1e-12)


def test_embedding_constant_is_upper_bound():
    # partial sums must stay below the reported constant (integral tail bound)
    c = sobolev_embedding_constant(0.5, terms=1000)
    n = np.arange(1, 200000, dtype=float)
    partial = np.sqrt(2 * np.pi * np.sum(n ** -2.0))
    assert partial < c
    assert abs(c - np.sqrt(2 * np.pi * np.pi ** 2 / 6)) < 1e-3


def test_input_validation():
    with pytest.raises(ValueError):
        eigen_product(-1, 2)
    with pytest.raises(ValueError):
        sobolev_embedding_constant(0.0)
