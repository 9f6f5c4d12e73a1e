"""Kernel (bifurcation) equation: A v = Pi_V (v + w)^3.

The kernel of -d_tt - A consists of the resonant modes cos(omega_j t) e_j(x);
a kernel field is the coefficient vector v_j of that basis.  For w = 0 the
equation has the explicit one-mode solutions

    v_m = alpha_m cos(omega_m t) e_m(x),   alpha_m = +/- sqrt(4 omega_m / 3),

which are nondegenerate: the linearization at (v_m, 0) decomposes into the
eigenvalue -2 omega_m^2 on the m-th mode, eigenvalues omega_j^2 - 2 omega_m^2
for j > 2m, and 2x2 blocks coupling modes (j, 2m-j) for j < m whose
determinant -omega_j (omega_m - omega_j)^2 (4 omega_m - omega_j) never
vanishes.  That nondegeneracy is what lets a damped Newton iteration from the
one-mode solution converge to v(w) for every small range component w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spherical_basis as sb
from .field_algebra import (CoeffField, NormParams, field_multiply, fold_entries,
                            log_time_weights, project_kernel)

__all__ = [
    "KernelField",
    "one_mode_solution",
    "total_field",
    "solve_kernel",
    "kernel_derivative_matrix",
    "KernelSolveResult",
    "KernelSolveError",
]

NEWTON_MAX = 40  # Newton steps of solve_kernel before it gives up


class KernelSolveError(RuntimeError):
    """Newton iteration for the kernel equation failed to converge."""


@dataclass
class KernelField:
    """Coefficients v_j of cos(omega_j t) e_j(x), j = 0..J_V."""

    v: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)

    @property
    def J(self) -> int:
        return len(self.v) - 1

    def embed(self, L: int | None = None, J: int | None = None) -> CoeffField:
        """CoeffField supported on the resonant diagonal (stored value v_j / 2)."""
        need_L = self.J + 1
        L = need_L if L is None else max(L, need_L)
        J = self.J if J is None else max(J, self.J)
        f = CoeffField.zeros(L, J)
        js = np.arange(self.J + 1)
        f.u[js + 1, js] = self.v / 2.0
        return f

    def norm(self, params: NormParams) -> float:
        """The field norm of `embed()`: the weight rule at l = omega_j = j + 1, on v_j / 2."""
        wj = np.arange(self.J + 1, dtype=float) + 1.0
        w = np.exp(log_time_weights(self.J + 1, params)[1:]) * wj ** (2.0 * params.r)
        return float(np.sqrt(np.sum(w * (0.5 * self.v) ** 2)))

    def copy(self) -> "KernelField":
        return KernelField(self.v.copy())


def extract_kernel(f: CoeffField, J_V: int) -> KernelField:
    """Kernel coefficients of a field: v_j = 2 * f[omega_j, j]."""
    v = np.zeros(J_V + 1)
    top = min(J_V, f.J, f.L - 1)
    js = np.arange(top + 1)
    v[: top + 1] = 2.0 * f.u[js + 1, js]
    return KernelField(v)


def one_mode_solution(m: int, *, J_V: int | None = None) -> KernelField:
    """The explicit solution alpha_m cos(omega_m t) e_m, alpha_m = +sqrt(4 omega_m / 3)."""
    if m < 0:
        raise ValueError("mode m must be nonnegative")
    J_V = m if J_V is None else max(J_V, m)
    v = np.zeros(J_V + 1)
    v[m] = np.sqrt(4.0 * (m + 1) / 3.0)
    return KernelField(v)


def _check_in_range(w: CoeffField):
    if np.any(project_kernel(w).u != 0.0):
        raise ValueError("w must lie in the range (no resonant-diagonal entries)")


def total_field(v: KernelField, w: CoeffField) -> CoeffField:
    """The state u = v + w: the kernel field embedded on the resonant diagonal plus w."""
    return v.embed(L=max(w.L, v.J + 1), J=max(w.J, v.J)) + w


def _square_and_residual(v: KernelField, w: CoeffField):
    """(u, u^2, u^3, A v - Pi_V u^3) at the state u = v + w, from two products of u."""
    u = total_field(v, w)
    q = field_multiply(u, u)
    cube = field_multiply(q, u)
    res = (np.arange(v.J + 1, dtype=float) + 1.0) ** 2 * v.v - extract_kernel(cube, v.J).v
    return u, q, cube, KernelField(res)


def _kernel_block(stack: np.ndarray, n: int, factor: float) -> np.ndarray:
    """Dense matrix of h -> A h - factor Pi_V(p h) on the n kernel modes.

    stack holds the S_d matrices of p; entry [j, j'] couples kernel modes
    through the time frequencies |omega_j - omega_j'| and omega_j + omega_j'.
    """
    wj = np.arange(n) + 1
    modes = np.arange(n)
    coupling = fold_entries(stack, wj[:, None], modes[:, None], wj[None, :], modes[None, :])
    return np.diag(wj.astype(float) ** 2) - factor * coupling


def _kernel_jacobian(q: CoeffField, n: int) -> np.ndarray:
    """Dense matrix of h -> A h - 3 Pi_V(q h) on n kernel modes from q = (v + w)^2's rows <= 2 n."""
    return _kernel_block(sb.multiplication_matrix(q.u[: 2 * n + 1], n), n, 3.0)


@dataclass
class KernelSolveResult:
    """The stage state: converged kernel v(w), u = v + w, q = u^2, u^3 and the Newton record."""

    kernel: KernelField
    u: CoeffField
    q: CoeffField
    cube: CoeffField
    residual_norms: list = field(default_factory=list)
    iterations: int = 0

    @property
    def v(self) -> np.ndarray:
        return self.kernel.v

    @property
    def b0(self) -> np.ndarray:
        """Time mean of the potential b = 3 q."""
        return 3.0 * self.q.u[0]


def solve_kernel(w: CoeffField, m: int, J_V: int | None = None,
                 params: NormParams | None = None,
                 start: KernelField | None = None) -> KernelSolveResult:
    """Damped Newton from start, else the one-mode solution with alpha_m > 0; converges to v(w).

    The equation is odd, so the branch through -alpha_m is the negation of
    this one: its kernel at w is -v(-w).

    Converged means residual <= 1e-13 max(1, ||A v||) in the norm `params`,
    tested before each step.  The empirical Newton basin replaces any
    a-priori radius: a step that no halving decreases, or NEWTON_MAX steps
    without convergence, raise KernelSolveError.
    """
    _check_in_range(w)
    params = params or NormParams(0.0, 1.0, 2.0)
    J_V = max(m, w.J) if J_V is None else J_V
    v = start if start is not None else one_mode_solution(m, J_V=J_V)
    v = KernelField(np.pad(v.v, (0, max(J_V - v.J, 0))))  # a copy, padded to J_V
    wj2 = (np.arange(v.J + 1, dtype=float) + 1.0) ** 2
    u, q, cube, res = _square_and_residual(v, w)
    rnorm = res.norm(params)
    history = [rnorm]
    while rnorm > 1e-13 * max(1.0, KernelField(wj2 * v.v).norm(params)):
        it = len(history)
        if it > NEWTON_MAX:
            raise KernelSolveError(
                f"kernel Newton did not converge in {NEWTON_MAX} iterations "
                f"(residual {rnorm:.3e})")
        try:
            delta = np.linalg.solve(_kernel_jacobian(q, v.J + 1), -res.v)
        except np.linalg.LinAlgError as exc:
            raise KernelSolveError(f"singular kernel linearization at iteration {it}") from exc
        step = 1.0
        for _ in range(8):
            cand = KernelField(v.v + step * delta)
            cu, cq, ccube, cres = _square_and_residual(cand, w)
            cnorm = cres.norm(params)
            if cnorm < rnorm:
                break
            step *= 0.5
        else:
            raise KernelSolveError(
                f"kernel Newton stalled at residual {rnorm:.3e} (w outside the empirical basin)")
        v, u, q, cube, res, rnorm = cand, cu, cq, ccube, cres, cnorm
        history.append(rnorm)
    return KernelSolveResult(v, u, q, cube, history, len(history) - 1)


def kernel_derivative_matrix(stack: np.ndarray, n: int,
                             ells: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Matrix of h -> d_w v(w)[h] from stored range coefficients to kernel coefficients.

    stack holds S_d of b = 3 (v + w)^2 for its time rows (`fold_entries`); n
    is the number of kernel modes.  Columns are indexed by the lattice points
    (ells[c], js[c]) of the range truncation; row j'' is the kernel
    coefficient of mode j'' (twice its stored entry, hence the 2).
    """
    wj = np.arange(n) + 1  # kernel time frequencies
    rhs = 2.0 * fold_entries(stack, wj[:, None], np.arange(n)[:, None],
                             ells[None, :], js[None, :])
    return np.linalg.solve(_kernel_block(stack, n, 1.0), rhs)
