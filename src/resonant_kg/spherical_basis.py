"""Exact arithmetic on the spherically symmetric eigenbasis of the 3-sphere.

The radial profile u(x) of a spherically symmetric function on S^3 is
expanded in the orthonormal basis

    e_j(x) = sin((j+1) x) / sin(x),     j = 0, 1, 2, ...

of L^2([0, pi], (2/pi) sin^2(x) dx).  The operator A = -Laplacian + 1 acts as
A e_j = omega_j^2 e_j with omega_j = j + 1, and products of basis elements
expand exactly with unit coefficients:

    e_j e_k = sum_{l=0}^{min(j,k)} e_{|j-k| + 2l}.

A "profile" here is a plain 1-D float array of expansion coefficients; the
array index is the mode number j.  All operations are exact coefficient
arithmetic (no quadrature, no aliasing), which keeps extremely small
coefficients meaningful.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "omega",
    "eigen_product",
    "product_rule",
    "profile_multiply",
    "profile_norm",
    "mean_integral",
    "matrix_element",
    "diagonal_sums",
    "multiplication_matrix",
    "to_circle_fourier",
    "circle_norm_sq",
    "sobolev_embedding_constant",
    "evaluate_basis",
    "evaluate_profile",
]


def omega(j):
    """Frequency omega_j = j + 1 of mode j (scalar or array)."""
    return np.asarray(j) + 1


def eigen_product(j: int, k: int) -> np.ndarray:
    """Expansion of e_j * e_k: ones at |j-k|, |j-k|+2, ..., j+k."""
    if j < 0 or k < 0:
        raise ValueError("mode indices must be nonnegative")
    out = np.zeros(j + k + 1)
    out[abs(j - k) : j + k + 1 : 2] = 1.0
    return out


@functools.lru_cache(maxsize=32)
def product_rule(ja: int, jb: int) -> np.ndarray:
    """Read-only 0/1 matrix of the product rule for modes j <= ja, k <= jb.

    Row j (jb+1) + k is eigen_product(j, k) padded to ja + jb + 1 columns, so a
    flattened block of pair products p[j, k] = a_j b_k maps to the coefficients
    of the product by one matmul.  Every output is then a plain sum of its own
    products (times 1, plus exact zeros); only the summation order is the
    matmul's.  The array is cached and shared between callers.
    """
    out = np.zeros(((ja + 1) * (jb + 1), ja + jb + 1))
    for j in range(ja + 1):
        for k in range(jb + 1):
            row = eigen_product(j, k)
            out[j * (jb + 1) + k, : len(row)] = row
    out.flags.writeable = False
    return out


def profile_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two profiles, up to mode len(a)+len(b)-2.

    The one-row case of the product kernel: the pair products a_j b_k go
    through product_rule, the single spatial kernel that field_multiply uses
    too.  "Exact" means no transform and no quadrature: each output
    coefficient is a plain sum of the products that belong to it, so tiny
    coefficients are not contaminated by cancellation artifacts.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.outer(a, b).ravel() @ product_rule(len(a) - 1, len(b) - 1)


def profile_norm(p: np.ndarray, r: float = 0.0) -> float:
    """Sobolev norm ||p||_{H^r_x} = sqrt(sum_j p_j^2 omega_j^(2r))."""
    p = np.asarray(p, dtype=float)
    w = omega(np.arange(len(p))).astype(float) ** (2.0 * r)
    return float(np.sqrt(np.sum(w * p * p)))


def mean_integral(p: np.ndarray) -> float:
    """(1/pi) * integral of p over [0, pi] = sum of even-index coefficients.

    Follows from int_0^pi e_j dx = pi for even j and 0 for odd j.
    """
    p = np.asarray(p, dtype=float)
    return float(np.sum(p[0::2]))


def matrix_element(b: np.ndarray, j: int, k: int) -> float:
    """<b e_j, e_k> in H^0_x, computed exactly in coefficient space.

    Equals the sum of b_n over n = |j-k|, |j-k|+2, ..., j+k (clipped to the
    truncation of b).
    """
    b = np.asarray(b, dtype=float)
    lo = abs(j - k)
    hi = min(j + k, len(b) - 1)
    if lo > hi:
        return 0.0
    return float(np.sum(b[lo : hi + 1 : 2]))


def diagonal_sums(b: np.ndarray, size: int, count: int) -> np.ndarray:
    """Diagonals d < count of multiplication_matrix(b, size): out[..., d, i] = S[i, i+d].

    Each is the running sum S[i, i+d] = sum_{n <= i} b_{d+2n}, i < size (the
    entries with i + d >= size continue the sum past the matrix), formed in
    O(size count).  Running sums only add (a difference of prefix sums would
    cancel every entry far below the largest b_n to rounding), so each entry
    is the exact partial sum of its own coefficients.
    """
    b = np.asarray(b, dtype=float)
    padded = np.zeros(b.shape[:-1] + (max(b.shape[-1], count + 2 * size),))
    padded[..., : b.shape[-1]] = b
    n = np.arange(size)
    return np.cumsum(padded[..., np.arange(count)[:, None] + 2 * n[None, :]], axis=-1)


def multiplication_matrix(b: np.ndarray, size: int) -> np.ndarray:
    """Dense symmetric matrix S with S[j,k] = <b e_k, e_j> for j,k < size.

    The product rule read as a matrix: along diagonal d the entries are the
    running sums of diagonal_sums, gathered.  b may also be a stack of
    profiles along its last axis; the result then has shape
    b.shape[:-1] + (size, size).
    """
    n = np.arange(size)
    return diagonal_sums(b, size, size)[..., np.abs(n[:, None] - n[None, :]),
                                        np.minimum.outer(n, n)]


def to_circle_fourier(p: np.ndarray) -> np.ndarray:
    """Exponential-basis expansion on the unit circle.

    Using e_j = sum_{m=0}^{j} exp(i(2m-j)x), a profile maps to circle
    coefficients c_q with c_q = c_{-q}; returns the array c[q] for q >= 0,
    c[q] = sum of p_j over j >= q with j = q (mod 2).
    """
    p = np.asarray(p, dtype=float)
    c = np.zeros_like(p)
    for parity in (0, 1):
        idx = np.arange(parity, len(p), 2)
        if len(idx):
            c[idx] = np.cumsum(p[idx][::-1])[::-1]
    return c


def circle_norm_sq(p: np.ndarray, r: float = 0.0) -> float:
    """Squared H^r(S^1, dx) norm: 2*pi * sum_q <q>^(2r) |c_q|^2 over q in Z."""
    c = to_circle_fourier(p)
    q = np.arange(len(c))
    jap = np.maximum(q, 1).astype(float) ** (2.0 * r)
    doubling = np.where(q == 0, 1.0, 2.0)
    return float(2.0 * np.pi * np.sum(doubling * jap * c * c))


def sobolev_embedding_constant(delta: float, terms: int = 20000) -> float:
    """Rigorous upper bound for c(delta) = sqrt(2 pi) (sum_j omega_j^(-1-2d))^(1/2).

    Partial sum plus the integral-comparison tail bound
    sum_{n > N} n^(-1-2d) <= N^(-2d) / (2d), so the returned constant is an
    upper bound for the exact infinite sum.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = np.arange(1, terms + 1, dtype=float)
    partial = np.sum(n ** (-1.0 - 2.0 * delta))
    tail = terms ** (-2.0 * delta) / (2.0 * delta)
    return float(np.sqrt(2.0 * np.pi * (partial + tail)))


def evaluate_basis(jmax: int, x: np.ndarray) -> np.ndarray:
    """Stable pointwise values E[j, i] = e_j(x_i) for j = 0..jmax.

    Uses the finite cosine sums e_j = 1 + 2 sum cos(2px) (j even) and
    e_j = 2 sum cos(px) over odd p <= j (j odd); well defined at x = 0, pi.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cos_table = np.cos(np.outer(np.arange(jmax + 1), x))  # cos(p x)
    coeffs = np.zeros((jmax + 1, jmax + 1))
    for j in range(jmax + 1):
        if j % 2 == 0:
            coeffs[j, 0] = 1.0
            coeffs[j, 2 : j + 1 : 2] = 2.0
        else:
            coeffs[j, 1 : j + 1 : 2] = 2.0
    return coeffs @ cos_table


def evaluate_profile(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pointwise values of a profile on a grid."""
    p = np.asarray(p, dtype=float)
    return p @ evaluate_basis(len(p) - 1, x)
