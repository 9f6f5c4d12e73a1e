"""Reference implementations and paper identities that the tests compare against.

The package applies, solves and bounds Lop = D - eps M without forming an
n x n matrix, reads block spectra from windows of a few modes, and checks the
Melnikov conditions on the near-integer pairs only.  These helpers form the
same objects densely, in banded storage or on the whole pair grid, at the
sizes the tests use, so that each fast path is checked against a slow one.
They also hold the paper's side lemmas, which no command runs: the
matrix elements and the Sobolev embedding constant of the eigenbasis, the
kernel equation's residual, Jacobian, derivative and 2x2 bifurcation
blocks, the smoothing and analyticity-trade inequalities, and the pairwise
divisor constant.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided

from resonant_kg import linearized
from resonant_kg.bifurcation import (KernelField, _check_in_range, _kernel_jacobian,
                                     _square_and_residual, extract_kernel, total_field)
from resonant_kg.field_algebra import (CoeffField, NormParams, field_multiply, fold_entries,
                                       wave_symbol)
from resonant_kg.linearized import ResonantSolveError
from resonant_kg.nash_moser import SolveTrace, StageRecord
from resonant_kg.resonance import ConditionRecord
from resonant_kg.spherical_basis import diagonal_sums, multiplication_matrix


def potential_parts(op, idx: np.ndarray, absolute: bool = False):
    """Product by b and the kernel-correction term M2 on the lattice points idx x idx.

    Both are gathered from the S_d stack by the fold.  M2 = (product by b of
    the embedded kernel correction) @ dv: the gather column of kernel mode
    j'' is the fold of S-blocks at time frequency omega_j'', and the
    embedding stores v_j'' / 2.  With `absolute`, from |S_d| and |dv|.
    """
    stack, dv = (np.abs(op.stack), np.abs(op.dv_matrix)) if absolute else (op.stack, op.dv_matrix)
    ell, j = op.lattice.ells[idx][:, None], op.lattice.js[idx][:, None]
    gath = fold_entries(stack, ell, j, *op._kernel_slots)
    return fold_entries(stack, ell, j, ell.T, j.T), gath @ (0.5 * dv[:, idx])


def gather(op, idx: np.ndarray) -> np.ndarray:
    """Lop on the lattice points idx x idx: symbol - eps mult - eps M2."""
    mult, m2 = potential_parts(op, idx)
    return np.diag(op._symbol[op.lattice.ells[idx], op.lattice.js[idx]]) - op.eps * mult \
        - op.eps * m2


def dense_matrix(op) -> np.ndarray:
    """The dense n x n matrix of Lop on the lattice: the block gather over the whole lattice."""
    return gather(op, np.arange(op.lattice.size))


def fold_product(op, h: np.ndarray, cells, centre: np.ndarray | None = None) -> np.ndarray:
    """The product by b of `LinearizedOperator._product`, with every operand allocated per call.

    out[l] = sum_d S_d g_d[l], g_0 = h (or `centre`) and
    g_d[l] = h[|l - d|] + h[l + d], by the same chunks of d, strided views of
    the mirrored copy hz and GEMMs, in the same order: the fold that
    `_product`'s buffers, built once per solve, replace.
    """
    rows, size = h.shape
    count = len(cells.stacked) // size
    step, chunk = op._step, max(1, linearized._FOLD_CHUNK_BYTES // (8 * rows * size))
    hz = np.zeros((2 * rows + step * count, size))
    hz[: 2 * rows - 1] = h[np.abs(np.arange(1 - rows, rows))]
    down, item = hz.strides
    out = np.zeros_like(h)
    for first, stride in cells.parts:
        part = out[first::stride]
        for i0 in range(0, count, chunk):
            width = min(chunk, count - i0)
            shape = (len(part), width, size)
            g = np.add(as_strided(hz[rows - 1 - first + step * i0], shape,
                                  (-stride * down, step * down, item), writeable=False),
                       as_strided(hz[rows - 1 + first + step * i0], shape,
                                  (stride * down, step * down, item), writeable=False),
                       out=np.empty(shape))
            if i0 == 0:
                g[:, 0] = (h if centre is None else centre)[first::stride]
            part += g.reshape(len(part), width * size) @ \
                cells.stacked[i0 * size : (i0 + width) * size]
    return out


def weighted_inverse_norm(a: np.ndarray, w: np.ndarray) -> float:
    """||diag(w) a^-1 diag(w)^-1||_2 from the SVD of the whole inverse."""
    return float(np.linalg.norm(w[:, None] * np.linalg.inv(a) / w[None, :], 2))


def diagonal_blocks(op) -> np.ndarray:
    """The per-l blocks of D, (L+1, J+1, J+1), whose inverses `factorize` keeps.

    D_l = omega^2 l^2 - omega_j^2 - eps S_0, with the resonant slot j = l - 1
    carried as a unit row and column.
    """
    J = op.J
    blocks = np.repeat(-op.eps * op.stack[None, 0, : J + 1, : J + 1], op.L + 1, axis=0)
    blocks[:, np.arange(J + 1), np.arange(J + 1)] += wave_symbol(op.omega, op.L, J)
    ells = np.arange(1, min(op.L, J + 1) + 1)
    blocks[ells, ells - 1, :] = 0.0
    blocks[ells, :, ells - 1] = 0.0
    blocks[ells, ells - 1, ells - 1] = 1.0
    return blocks


def split_diagonal(op):
    """Dense (D, M1, M2) with Lop = D - eps M1 - eps M2.

    D holds the blocks of `diagonal_blocks`, M1 the zero-mean part of b.
    """
    lattice = op.lattice
    blocks = diagonal_blocks(op)
    same = lattice.ells[:, None] == lattice.ells[None, :]
    rows, cols = lattice.js[:, None], lattice.js[None, :]
    D = np.where(same, blocks[lattice.ells[:, None], rows, cols], 0.0)
    mult, m2 = potential_parts(op, np.arange(lattice.size))
    return D, mult - np.where(same, op.stack[0][rows, cols], 0.0), m2


def block_inverse_norm(pairs) -> float:
    """sigma_max(W A^-1 W^-1) for A block diagonal, from its pairs (block A_k, weights w_k).

    The largest over k of ||W_k A_k^-1 W_k^-1||_2, one pair at a time.  Its
    entries below 2^-60 max / n_k are set to zero first (subnormals slow
    `eigvalsh`), which moves the norm by at most 2^-60 relative.  A
    non-finite entry, an exactly singular block, or max|A_k| max|A_k^-1|
    over the blocks so far above 1e300 raises ResonantSolveError.
    """
    top, size, inv_size = 0.0, 1.0, 0.0
    for sub, w in pairs:
        if not np.isfinite(sub).all():
            raise ResonantSolveError("linearized operator is not finite")
        try:
            inv = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            raise ResonantSolveError(linearized._SINGULAR) from None
        size = max(size, float(np.abs(sub).max()))
        inv_size = max(float(np.abs(inv).max()), inv_size)  # keeps a NaN
        if not size * inv_size <= 1e300:  # also catches a NaN
            raise ResonantSolveError(linearized._SINGULAR)
        b = w[:, None] * inv / w[None, :]
        b[np.abs(b) < 2.0 ** -60 * np.abs(b).max() / len(b)] = 0.0
        top = max(top, float(np.sqrt(np.linalg.eigvalsh(b.T @ b)[-1])))
    return top


def centred_weights(op, params: NormParams) -> np.ndarray:
    """The lattice weights over their geometric midpoint, as `inverse_norm` reads them."""
    logw = op.lattice.log_weights(params)
    return np.exp(logw - 0.5 * (logw.max() + logw.min()))


def weight_grid(op, params: NormParams) -> np.ndarray:
    """`centred_weights` on the (L + 1, J + 1) grid, ones off the lattice (`inverse_norm`'s)."""
    wg = np.ones(op.lattice.mask.shape)
    wg[op.lattice.ells, op.lattice.js] = centred_weights(op, params)
    return wg


def exact_inverse_norm(op, params: NormParams, blocks=None) -> float:
    """The exact norm that `inverse_norm` brackets, over `_partition`'s blocks (or `blocks`)."""
    w = centred_weights(op, params)
    return block_inverse_norm((gather(op, idx), w[idx])
                              for idx in (op._partition if blocks is None else blocks))


def dense_upper_end(op, params: NormParams, max_terms: int = 8, lattice_wide: bool = False):
    """The upper end of `inverse_norm`, without its rounding margin, and its K, formed densely.

    |M| is the fold of |S_d| (its d = 0 same-l term left to D) plus that of
    the kernel slots times 0.5 |dv|, |D^-1| the symmetrized `factorize`
    blocks.  With X_T = W eps |D^-1| |M| W^-1, X_D = W |D^-1| W^-1 and
    Schur(X) = sqrt(||X||_1 ||X||_inf): for the first K with
    s_K = Schur(X_T^K) <= 1/2, the largest over the blocks of `_partition`
    of Schur(X_b) / (1 - s_K), X_b the block of X = sum_{k<K} X_T^k X_D;
    with `lattice_wide`, Schur(X) / (1 - s_K), the bound on the whole
    lattice that the block ends replace.  (inf, 0) when no K <= max_terms
    qualifies.  Returns (value, K, |M|).
    """
    lat, n = op.lattice, op.lattice.size
    mult, m2 = potential_parts(op, np.arange(n), absolute=True)
    same = lat.ells[:, None] == lat.ells[None, :]
    mabs = mult - np.where(same, np.abs(op.stack[0])[lat.js[:, None], lat.js], 0.0) + m2
    inverse = np.abs(op.factorize())
    inverse = np.maximum(inverse, inverse.transpose(0, 2, 1))
    dinv = np.where(same, inverse[lat.ells[:, None], lat.js[:, None], lat.js], 0.0)
    w = centred_weights(op, params)
    xd, xt = w[:, None] * dinv / w, w[:, None] * (op.eps * dinv @ mabs) / w

    def schur(x):
        return float(np.sqrt(x.sum(axis=0).max() * x.sum(axis=1).max()))
    partial, power = xd, xt
    for terms in range(1, max_terms + 1):
        if schur(power) <= 0.5:
            ends = [schur(partial)] if lattice_wide else [
                schur(partial[np.ix_(b, b)]) for b in op._partition]
            return max(ends) / (1.0 - schur(power)), terms, mabs
        partial, power = xd + xt @ partial, xt @ power
    return np.inf, 0, mabs


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
    (`diagonal_blocks`; the unit row of a resonant slot is an
    eigenvector of its own, and it is cut out with the slot).  The
    production solve is checked column by column against the dense inverse;
    a solve that does not settle is reported, never absorbed.
    """
    lattice = op.lattice
    _, M1, M2 = split_diagonal(op)
    op.factorize()  # rejects singular blocks
    lam, vec = np.linalg.eigh(diagonal_blocks(op))
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

    w_s = np.exp(lattice.log_weights(params))
    shifted = NormParams(params.sigma, params.s + (tau - 1.0) / 2.0, params.r)
    w_sh = np.exp(lattice.log_weights(shifted))

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
        inv_neumann = np.column_stack([lattice.to_vector(op.solve(to_field(lattice, e)))
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
                            threshold=float(thr[i, k]))
            for i, k in zip(*np.nonzero(bad))]


# -- lattice and trace round trips -------------------------------------------


def to_field(lattice, vec: np.ndarray) -> CoeffField:
    """The field of a lattice vector: the inverse of lattice.to_vector."""
    f = CoeffField.zeros(lattice.L, lattice.J)
    f.u[lattice.ells, lattice.js] = vec
    return f


def apply_operator(op, f: CoeffField) -> CoeffField:
    """Lop f by the one apply on the lattice's cell; entries of f off the lattice are ignored."""
    cells = op._cells(np.arange(op.lattice.size))
    return CoeffField(op._apply(op.lattice.to_grid(f), cells, op._product(cells)))


def trace_from_jsonl(path) -> SolveTrace:
    """The SolveTrace of a trace.jsonl file, one StageRecord per line."""
    with open(path) as fh:
        return SolveTrace([StageRecord(**json.loads(line)) for line in fh if line.strip()])


# -- the eigenbasis: matrix elements and the embedding constant --------------


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


# -- the kernel equation A v = Pi_V (v + w)^3 --------------------------------


def kernel_residual(v: KernelField, w: CoeffField) -> KernelField:
    """A v - Pi_V (v + w)^3, exactly in coefficient space."""
    _check_in_range(w)
    return _square_and_residual(v, w)[-1]


def linearize_kernel(v: KernelField, w: CoeffField) -> np.ndarray:
    """Dense matrix of h -> A h - 3 Pi_V((v+w)^2 h) on the truncated kernel."""
    u = total_field(v, w)
    return _kernel_jacobian(field_multiply(u, u), v.J + 1)


def kernel_derivative(v: KernelField, w: CoeffField, h: CoeffField) -> KernelField:
    """Directional derivative d_w v(w)[h] of the implicit kernel solution.

    Solves linearize_kernel(v, w)[dv] = 3 Pi_V((v+w)^2 h) for h in the range.
    """
    _check_in_range(h)
    u = total_field(v, w)
    q = field_multiply(u, u)
    rhs = extract_kernel(field_multiply(q, h), v.J).v * 3.0
    return KernelField(np.linalg.solve(_kernel_jacobian(q, v.J + 1), rhs))


def bif_block(m: int, j: int) -> np.ndarray:
    """2x2 coupling block between kernel modes j and 2m - j (0 <= j <= m-1)."""
    if not 0 <= j <= m - 1:
        raise ValueError("need 0 <= j <= m-1")
    wm, wj, wc = m + 1, j + 1, 2 * m - j + 1
    return np.array([[wj * wj - 2 * wm * wj, -wm * wj],
                     [-wm * wj, wc * wc - 2 * wm * wm]], dtype=float)


def block_determinant(m: int, j: int) -> int:
    """det of bif_block in closed form: -omega_j (omega_m-omega_j)^2 (4 omega_m - omega_j)."""
    wm, wj = m + 1, j + 1
    return -wj * (wm - wj) ** 2 * (4 * wm - wj)


# -- smoothing and analyticity-trade inequalities ----------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a bound verification: lhs <= rhs (with the two sides)."""

    ok: bool
    lhs: float
    rhs: float

    def __bool__(self) -> bool:
        return self.ok


_REL_SLACK = 1e-12  # floating-point rounding guard for exact-equality cases


def smoothing_bound_check(f: CoeffField, sigma: float, sigma_prime: float,
                          L_n: int, s: float = 1.0, r: float = 2.0) -> CheckResult:
    """Check ||f||_{sigma',s} <= exp(-L_n (sigma - sigma')) ||f||_{sigma,s}.

    Requires f supported on time frequencies l > L_n.
    """
    if not (0.0 <= sigma_prime <= sigma):
        raise ValueError("need 0 <= sigma' <= sigma")
    if np.any(f.u[: min(L_n, f.L) + 1, :] != 0.0):
        raise ValueError(f"field has support at time frequencies <= {L_n}")
    lhs = f.norm(NormParams(sigma_prime, s, r))
    rhs = float(np.exp(-L_n * (sigma - sigma_prime))) * f.norm(NormParams(sigma, s, r))
    return CheckResult(lhs <= rhs * (1.0 + _REL_SLACK), lhs, rhs)


def trade_bound_constant(alpha: float, beta: float) -> float:
    """sup_{x>=0} exp(-alpha x) <x>^beta <= max(1, exp(-beta) (beta/alpha)^beta)."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha, beta must be >= 0")
    if beta == 0.0:
        return 1.0
    if alpha == 0.0:
        return np.inf
    return max(1.0, float(np.exp(-beta) * (beta / alpha) ** beta))


def sobolev_trade_check(f: CoeffField, alpha: float, beta: float,
                        sigma: float, s: float, r: float = 2.0) -> CheckResult:
    """Check ||f||_{sigma-alpha, s+beta} <= max(1, e^-beta (beta/alpha)^beta) ||f||_{sigma,s}."""
    if alpha > sigma:
        raise ValueError("alpha must not exceed sigma")
    lhs = f.norm(NormParams(sigma - alpha, s + beta, r))
    rhs = trade_bound_constant(alpha, beta) * f.norm(NormParams(sigma, s, r))
    return CheckResult(lhs <= rhs * (1.0 + _REL_SLACK), lhs, rhs)


# -- products of small divisors ----------------------------------------------


def pairwise_divisor_constant(report) -> float:
    """Empirical constant C in 1/(alpha_l alpha_k) <= C |k-l|^(2(tau-1)/beta) / (gamma^2 eps^(tau-1)).

    beta = (2 - tau)/tau.  Returns the supremum over all pairs l != k of the
    DivisorReport (a finite value verifies the product bound at this
    truncation).
    """
    tau, gamma, eps = report.tau, report.gamma, report.eps
    beta = (2.0 - tau) / tau
    a = report.alpha
    l = report.ells.astype(float)
    inv = 1.0 / np.outer(a, a)
    dist = np.abs(l[:, None] - l[None, :])
    with np.errstate(divide="ignore"):
        bound_shape = dist ** (2.0 * (tau - 1.0) / beta) / (gamma ** 2 * max(eps, 1e-300) ** (tau - 1.0))
    mask = dist > 0
    return float(np.max(inv[mask] / bound_shape[mask]))
