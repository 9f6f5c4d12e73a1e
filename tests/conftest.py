"""Shared oracles and helpers for the test suite.

The quadrature oracle integrates basis products against the normalized
measure (2/pi) sin^2(x) dx with Gauss-Legendre of sufficient degree, fully
independently of the coefficient-space product rule it is used to check.
Pointwise evaluation on a grid is the oracle of the products and symbols.
"""

import numpy as np
import pytest

from resonant_kg import CoeffField, field_multiply, project_range


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


def evaluate_field(f: CoeffField, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pointwise values of a field on the tensor grid, shape (len(t), len(x))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    doubling = np.where(np.arange(f.L + 1) == 0, 1.0, 2.0)
    T = np.cos(np.outer(np.arange(f.L + 1), t))  # (L+1, nt)
    return T.T @ (doubling[:, None] * f.u) @ evaluate_basis(f.J, x)


def from_mode(ell: int, j: int, value: float = 1.0,
              L: int | None = None, J: int | None = None) -> CoeffField:
    """The field with the one entry value at (ell, j), on (L+1, J+1) rows and columns."""
    f = CoeffField.zeros(ell if L is None else L, j if J is None else J)
    f.u[ell, j] = value
    return f


def profile_product(a, b) -> np.ndarray:
    """The exact product of two profiles: field_multiply on time-constant one-row fields."""
    a, b = (CoeffField(np.asarray(p, dtype=float)[None, :]) for p in (a, b))
    return field_multiply(a, b).u[0]


def profile_norm(p, r: float) -> float:
    """||p||_{H^r_x} = sqrt(sum_j p_j^2 omega_j^(2r)), summed directly.

    CoeffField.norm of the one-row field at sigma = 0 is the same sum,
    accumulated in log space, and differs from this one by an ulp or so.
    """
    p = np.asarray(p, dtype=float)
    w = (np.arange(len(p)) + 1.0) ** (2.0 * r)
    return float(np.sqrt(np.sum(w * p * p)))


def gauss_nodes(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    # map [-1, 1] -> [0, pi]
    return 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w


def quad_inner(f_vals: np.ndarray, g_vals: np.ndarray, x: np.ndarray, w: np.ndarray):
    """<f, g> in L^2([0,pi], (2/pi) sin^2 x dx) from point values on Gauss nodes."""
    return float(np.sum(w * f_vals * g_vals * np.sin(x) ** 2) * 2.0 / np.pi)


def evaluate_profile(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pointwise values of a profile on a grid."""
    p = np.asarray(p, dtype=float)
    return p @ evaluate_basis(len(p) - 1, x)


def quad_triple(j: int, k: int, ell: int, npts: int | None = None) -> float:
    """<e_j e_k, e_ell> by quadrature; node count covers the trig frequency."""
    if npts is None:
        npts = (j + k + ell) + 25
    x, w = gauss_nodes(npts)
    E = evaluate_basis(max(j, k, ell), x)
    return quad_inner(E[j] * E[k], E[ell], x, w)


def random_field(rng, L: int, J: int, scale: float = 1.0, decay: float = 0.5) -> CoeffField:
    """Random range field with mildly decaying coefficients."""
    ell = np.arange(L + 1)[:, None]
    j = np.arange(J + 1)[None, :]
    u = rng.standard_normal((L + 1, J + 1)) * scale * np.exp(-decay * (ell + j))
    return project_range(CoeffField(u))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
