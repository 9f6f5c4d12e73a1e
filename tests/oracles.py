"""Dense and banded oracles of the linearized operator and the Melnikov grid, for the tests.

The package applies, solves and bounds Lop = D - eps M without forming an
n x n matrix, reads block spectra from windows of a few modes, and checks the
Melnikov conditions on the near-integer pairs only.  These helpers form the
same objects densely, in banded storage or on the whole pair grid, at the
sizes the tests use, so that each fast path is checked against a slow one.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from resonant_kg import linearized
from resonant_kg.field_algebra import NormParams
from resonant_kg.linearized import ResonantSolveError
from resonant_kg.resonance import ConditionRecord
from resonant_kg.spherical_basis import diagonal_sums, multiplication_matrix


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
class Block:
    """Eigenvalues of one l-block omega_j^2 + eps B on the complement of e_{l-1}."""

    ell: int
    js: np.ndarray   # retained mode labels, ascending
    lam: np.ndarray  # eigenvalues of the labels


@dataclass
class DenseBlock(Block):
    """Eigenpairs of one l-block, labeled by continuation from eps = 0 (lam in label order)."""

    vectors: np.ndarray  # columns in full-j coordinates


def kept_modes(ell: int, size: int) -> np.ndarray:
    """Mode labels of an l-block: j < size except the resonant j = |l| - 1."""
    js = np.arange(size)
    return js[js != abs(ell) - 1]


def band_width(eps: float, b0: np.ndarray, size: int) -> int:
    """Half-bandwidth of eps B: the spatial support of b0, capped by the block size."""
    support = np.nonzero(b0)[0]
    if eps == 0.0 or len(support) == 0:
        return 0
    return min(int(support[-1]), size - 1)


def bands(kept: np.ndarray, eps: float, diag: np.ndarray, bw: int) -> np.ndarray:
    """Upper banded storage of omega_j^2 + eps B restricted to the modes kept.

    diag holds the diagonals of B, B[i, i + d] = diag[d, i]
    (spherical_basis.diagonal_sums), up to the largest offset between kept
    modes d <= bw apart: bw + 1 when one mode is deleted.  Deleting an index
    never widens the band, so bw (the half-bandwidth of eps B, 0 when it is
    diagonal or vanishes) holds for every restriction.
    """
    n = len(kept)
    out = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        out[bw - d, d:] = eps * diag[kept[d:] - kept[: n - d], kept[: n - d]]
    out[bw] += (kept + 1.0) ** 2
    return out


def banded_block(ell: int, eps: float, b0: np.ndarray, J_max: int) -> Block:
    """Eigenvalues of one l-block omega_j^2 + eps B (j <= J_max, j != |l| - 1), in one banded solve.

    B couples modes only within the spatial support of b0, so the block is
    read in banded storage from the first diagonals of B (`bands`).  The
    ascending eigenvalues are paired with the ascending labels.  The
    eigenvalues carry the roundoff of the whole block: up to 166 ulps at
    J_max = 1024 on a branch's b0.
    """
    b0 = np.asarray(b0, dtype=float)
    bw = band_width(eps, b0, J_max + 1)
    diag = diagonal_sums(b0, J_max + 1, bw + 2)
    kept = kept_modes(ell, J_max + 1)
    bw = min(bw, max(len(kept) - 1, 0))  # k modes have at most k - 1 bands
    ab = bands(kept, eps, diag, bw)
    lam = scipy.linalg.eigvals_banded(ab, lower=False) if bw > 0 else ab[0]
    return Block(ell=ell, js=kept, lam=lam)


def refined_eigenvalues(eps: float, b0: np.ndarray, J_max: int, ells, js):
    """The eigenvalue of label j in block l, for each pair (l, j), as an exact square and a shift.

    The banded and dense eigensolves carry the roundoff of the whole block,
    tens of ulps of lambda at J_max = 2048.  Here the block is shifted by the
    exact square s = (j + 1)^2, three steps of banded inverse iteration
    from e_j find the eigenvector x, and its Rayleigh quotient rho in the
    shifted coordinates is accurate to a few ulps of max(lambda, 1).
    Returns s and rho: lambda = s + rho.
    """
    n = J_max + 1
    bw = band_width(eps, b0, n)
    diag = diagonal_sums(b0, n, bw + 2)
    shifts, shifted = [], []
    for ell, j in zip(ells, js):
        kept = kept_modes(ell, n)
        k, w, s = len(kept), min(bw, len(kept) - 1), (j + 1.0) ** 2
        # off[d][i] = eps B[kept_i, kept_{i+d}]; the diagonal is shifted exactly
        off = [eps * diag[kept[d:] - kept[: k - d], kept[: k - d]] for d in range(w + 1)]
        centre = (kept + 1.0) ** 2 - s + off[0]
        rho = float(centre[kept == j][0])
        if w > 0:
            ab = np.zeros((2 * w + 1, k))  # solve_banded storage of the shifted block
            for d in range(1, w + 1):
                ab[w - d, d:] = ab[w + d, : k - d] = off[d]
            x, rho = (kept == j).astype(float), 0.0
            for _ in range(3):
                ab[w] = centre - rho
                try:
                    x = scipy.linalg.solve_banded((w, w), ab, x)
                except np.linalg.LinAlgError:  # rho is an exact eigenvalue
                    break
                x /= np.linalg.norm(x)
                y = centre * x
                for d in range(1, w + 1):
                    y[: k - d] += off[d] * x[d:]
                    y[d:] += off[d] * x[: k - d]
                rho = float(x @ y)
        shifts.append(s)
        shifted.append(rho)
    return np.array(shifts), np.array(shifted)


def block_matrix(ell: int, eps: float, b0: np.ndarray, J_max: int):
    """The dense l-block omega_j^2 + eps B (j <= J_max, j != |l| - 1) and its modes."""
    kept = kept_modes(ell, J_max + 1)
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
                   tau: float = 1.5, block=banded_block):
    """alpha_l = min_j |omega^2 l^2 - lambda_{l,j}(eps)| and its label, one block solve per l.

    The per-block path that `divisor_table` replaced; `block` gives the
    spectrum of one block (`banded_block` or `dense_block`).
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


def grid_condition_failures(eps: float, mean_value: float, gamma: float, tau: float,
                            ell_max: int, factor: float, strict: bool) -> list:
    """Pairs in [1/(3 eps), ell_max] x [1, 2 ell_max] violating the conditions,
    from the whole (l, omega_j) meshgrid; records in grid order (l, then omega_j)."""
    if eps <= 0.0:
        return []
    ell_lo = int(np.ceil(1.0 / (3.0 * eps)))
    if ell_lo > ell_max:
        return []
    omega = np.sqrt(1.0 + eps)
    ells = np.arange(ell_lo, ell_max + 1)
    wjs = np.arange(1, 2 * ell_max + 1)
    E, W = np.meshgrid(ells.astype(float), wjs.astype(float), indexing="ij")
    lhs_plain = np.abs(omega * E - W)
    lhs_shift = np.abs(omega * E - W - eps * mean_value / (2.0 * W))
    thr = factor * gamma / (E + W) ** tau
    clears = np.greater if strict else np.greater_equal
    bad = ~(clears(lhs_plain, thr) & clears(lhs_shift, thr))
    bad &= E != W
    return [ConditionRecord(ell=int(ells[i]), j=int(wjs[k]) - 1,
                            lhs_shifted=float(lhs_shift[i, k]), lhs_plain=float(lhs_plain[i, k]),
                            threshold=float(thr[i, k]), ok=False)
            for i, k in zip(*np.nonzero(bad))]
