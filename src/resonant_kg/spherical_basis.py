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
    "eigen_product",
    "product_rule",
    "mean_integral",
    "diagonal_sums",
    "multiplication_matrix",
]


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


def mean_integral(p: np.ndarray) -> float:
    """(1/pi) * integral of p over [0, pi] = sum of even-index coefficients.

    Follows from int_0^pi e_j dx = pi for even j and 0 for odd j.
    """
    p = np.asarray(p, dtype=float)
    return float(np.sum(p[0::2]))


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
