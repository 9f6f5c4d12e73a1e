"""Shared oracles and helpers for the test suite.

The quadrature oracle integrates basis products against the normalized
measure (2/pi) sin^2(x) dx with Gauss-Legendre of sufficient degree, fully
independently of the coefficient-space product rule it is used to check.
"""

import numpy as np
import pytest

from resonant_kg import CoeffField, project_range
from resonant_kg.spherical_basis import evaluate_basis


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
