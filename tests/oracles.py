"""Dense oracles of the linearized operator, for the tests and the acceptance suite.

The package applies, solves and bounds Lop = D - eps M without forming an
n x n matrix, and reads block spectra from banded storage.  These helpers
form the same objects densely, at the small sizes the tests use, so that
each fast path is checked against a slow one.
"""

from dataclasses import dataclass

import numpy as np

from resonant_kg import linearized
from resonant_kg.field_algebra import NormParams
from resonant_kg.linearized import ResonantSolveError, SpectralBlock, diagonalize_block
from resonant_kg.spherical_basis import multiplication_matrix


def dense_matrix(op) -> np.ndarray:
    """The dense n x n matrix of Lop on the lattice: the block gather over the whole lattice."""
    return linearized._gather(op, np.arange(op.lattice.size))


def weighted_inverse_norm(a: np.ndarray, w: np.ndarray) -> float:
    """||diag(w) a^-1 diag(w)^-1||_2 from the SVD of the whole inverse."""
    return float(np.linalg.norm(w[:, None] * np.linalg.inv(a) / w[None, :], 2))


def split_diagonal(op):
    """Dense (D, M1, M2) with Lop = D - eps M1 - eps M2.

    D holds the blocks that `factorize` builds, M1 the zero-mean part of b.
    """
    lattice = op.lattice
    blocks, _ = op.factorize()
    same = lattice.ells[:, None] == lattice.ells[None, :]
    rows, cols = lattice.js[:, None], lattice.js[None, :]
    D = np.where(same, blocks[lattice.ells[:, None], rows, cols], 0.0)
    mult, m2 = linearized._potential_parts(op, np.arange(lattice.size))
    return D, mult - np.where(same, op.stack[0][rows, cols], 0.0), m2


@dataclass
class DenseBlock(SpectralBlock):
    """Eigenpairs of one l-block, labeled by continuation from eps = 0 (lam in label order)."""

    vectors: np.ndarray  # columns in full-j coordinates


def block_matrix(ell: int, eps: float, b0: np.ndarray, J_max: int):
    """The dense l-block omega_j^2 + eps B (j <= J_max, j != |l| - 1) and its modes."""
    kept = linearized._kept_modes(ell, J_max + 1)
    B = multiplication_matrix(np.asarray(b0, dtype=float), J_max + 1)
    return np.diag((kept + 1.0) ** 2) + eps * B[np.ix_(kept, kept)], kept


def dense_block(ell: int, eps: float, b0: np.ndarray, J_max: int) -> DenseBlock:
    """Dense symmetric eigensolve of one l-block (`block_matrix`).

    Each eigenvector is labeled by the eps = 0 mode e_j it overlaps most,
    the vectors with the largest entry first.
    """
    S, kept = block_matrix(ell, eps, b0, J_max)
    lam, vec = np.linalg.eigh(S)
    perm = np.empty(len(lam), dtype=int)
    taken = np.zeros(len(lam), dtype=bool)
    for col in np.argsort(-np.max(np.abs(vec), axis=0)):
        row = next(r for r in np.argsort(-np.abs(vec[:, col])) if not taken[r])
        perm[row], taken[row] = col, True
    full = np.zeros((J_max + 1, len(kept)))
    full[kept, :] = vec[:, perm]
    return DenseBlock(ell=ell, js=kept, lam=lam[perm], vectors=full)


def small_divisors(eps: float, b0: np.ndarray, ells, J_max: int, gamma: float = 0.05,
                   tau: float = 1.5, block=diagonalize_block):
    """alpha_l = min_j |omega^2 l^2 - lambda_{l,j}(eps)| and its label, one block solve per l.

    The per-block path that `divisor_table` replaced; `block` gives the
    spectrum of one block (the banded `diagonalize_block` or `dense_block`).
    """
    ells = np.asarray(ells)
    alpha, j_min = np.empty(len(ells)), np.empty(len(ells), dtype=int)
    for i, ell in enumerate(ells):
        blk = block(int(ell), eps, b0, J_max)
        divisors = np.abs((1.0 + eps) * blk.ell ** 2 - blk.lam)
        k = int(np.argmin(divisors))
        alpha[i], j_min[i] = divisors[k], blk.js[k]
    return linearized._divisor_report(eps, gamma, tau, ells, alpha, j_min)


@dataclass
class PrecondReport:
    """Diagnostics of the sign/half-power preconditioner splitting."""

    u_ok: bool
    dhalf_ok: bool
    r1_norm: float
    r1_constant: float
    r2_norm: float
    r2_constant: float
    factorization_error: float
    neumann_converged: bool
    neumann_vs_dense: float


def preconditioned_split_check(op, params: NormParams, gamma: float,
                               tau: float) -> PrecondReport:
    """Form U = sgn(D), R_i = |D|^(-1/2) M_i |D|^(-1/2) and verify the bounds.

    U and |D|^(+-1/2) come from one batched eigensolve of the blocks of D
    that `factorize` builds (the unit row of a resonant slot is an
    eigenvector of its own, and it is cut out with the slot).  The
    production solve is checked column by column against the dense inverse;
    a solve that does not settle is reported, never absorbed.
    """
    lattice = op.lattice
    _, M1, M2 = split_diagonal(op)
    lam, vec = np.linalg.eigh(op.factorize()[0])  # factorize rejects singular blocks
    same = lattice.ells[:, None] == lattice.ells[None, :]
    at = (lattice.ells[:, None], lattice.js[:, None], lattice.js[None, :])

    def block_function(values):
        """The matrix function V diag(values) V^T of each block, placed on the lattice."""
        blocks = (vec * values[:, None, :]) @ vec.transpose(0, 2, 1)
        return np.where(same, blocks[at], 0.0)

    U = block_function(np.sign(lam))
    Dm = block_function(np.abs(lam) ** -0.5)   # |D|^(-1/2)
    Dp = block_function(np.abs(lam) ** +0.5)   # |D|^(+1/2)
    R1 = Dm @ M1 @ Dm
    R2 = Dm @ M2 @ Dm
    recon = Dp @ (U - op.eps * R1 - op.eps * R2) @ Dp
    dense = dense_matrix(op)
    scale = max(np.abs(dense).max(), 1.0)
    fact_err = float(np.abs(recon - dense).max() / scale)

    w_s = lattice.weights(params)
    shifted = NormParams(params.sigma, params.s + (tau - 1.0) / 2.0, params.r)
    w_sh = lattice.weights(shifted)

    def opnorm(M, w_out, w_in):
        return float(np.linalg.norm(w_out[:, None] * M / w_in[None, :], 2))

    # ||U|| <= 4 and ||D^-1/2|| <= 9 / sqrt(gamma) from s to the shifted s
    u_ok = opnorm(U, w_s, w_s) <= 4.0 + 1e-9
    dhalf_ok = opnorm(Dm, w_s, w_sh) <= 9.0 / np.sqrt(gamma) * (1 + 1e-9)
    r1_norm = opnorm(R1, w_sh, w_sh)
    r2_norm = opnorm(R2, w_sh, w_sh)
    r1_constant = r1_norm * gamma * max(op.eps, 1e-300) ** ((tau - 1.0) / 2.0)
    r2_constant = r2_norm * gamma

    converged, neumann_vs_dense = False, np.inf
    try:
        inv_neumann = np.column_stack([lattice.to_vector(op.solve(lattice.to_field(e)))
                                       for e in np.eye(lattice.size)])
    except ResonantSolveError:
        pass
    else:
        converged = True
        inv_dense = np.linalg.inv(dense)
        neumann_vs_dense = float(np.abs(inv_neumann - inv_dense).max()
                                 / max(np.abs(inv_dense).max(), 1e-300))
    return PrecondReport(u_ok=u_ok, dhalf_ok=dhalf_ok, r1_norm=r1_norm,
                         r1_constant=r1_constant, r2_norm=r2_norm, r2_constant=r2_constant,
                         factorization_error=fact_err, neumann_converged=converged,
                         neumann_vs_dense=neumann_vs_dense)
