"""Linearized range operator: matrix-free application, the paper's splitting, divisors.

On the range truncation (time frequencies l <= L_n, space modes j <= J_max,
excluding the resonant pairs j = l - 1) the linearization of the range
equation around w is

    Lop h = (-omega^2 d_tt - A) h - eps P_n Pi_W (b h) - eps P_n Pi_W (b dv[h]),
    b = 3 (v(w) + w)^2,

with dv the derivative of the kernel solution.  Splitting b into its time
mean b0 and the oscillating part gives the diagonal family

    D_l = omega^2 l^2 - A - eps pi_l (b0 .) pi_l

and Lop = D - eps M.  The operator is never formed: `apply` reads the
product by b from the S_d stack of b (one GEMM per chunk of d) and the
kernel correction from the thin dv_matrix, and `solve` runs the Neumann
iteration x <- x + D^-1 (b - Lop x) on the per-l blocks of D, which
contracts by about 3e-3 per sweep on the solution branches and stops
componentwise, so coefficients far below the largest keep their value.
The weighted norm of the inverse is exact up to EXACT_NORM_MAX unknowns and
a Krylov lower bound through the same solves above it: the largest singular
value of B Q for B the weighted inverse and Q an orthonormal basis of the
Krylov space of B^T B, which is at most ||B|| because ||Q|| = 1 (Golub-Kahan).
The exact value is the maximum over the decoupled blocks of the dense oracle
(`dense_matrix`; on a branch 6 to 10 blocks, found from its nonzero pattern)
of the top eigenvalue of each block's Gram matrix.

The spectra of D_l (a Sturm-Liouville perturbation of omega_j^2) control
the small divisors alpha_l = min_j |omega^2 l^2 - lambda_{l,j}(eps)|.  Every
block is one matrix omega_j^2 + eps B with the row and column of e_{l-1}
deleted, so the divisor table diagonalizes that matrix once and finds each
block's eigenvalue nearest omega^2 l^2 from a secular equation; the
per-block banded eigensolve stays for `diagonalize_block` and as the test
oracle.  The sign/half-power preconditioner splitting is kept as a
diagnostic that certifies the expected bounds and checks `solve` against
the dense inverse.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided

from . import spherical_basis as sb
from .bifurcation import (KernelField, KernelSolveResult, kernel_derivative_matrix,
                          solve_kernel, total_field)
from .field_algebra import (CoeffField, NormParams, field_multiply, fold_entries,
                            mult_matrix_stack)

__all__ = [
    "WLattice",
    "LinearizedOperator",
    "assemble_linearized",
    "dense_matrix",
    "split_diagonal",
    "SpectralBlock",
    "diagonalize_block",
    "DivisorReport",
    "small_divisors",
    "divisor_table",
    "pairwise_divisor_constant",
    "preconditioned_split_check",
    "PrecondReport",
    "ResonantSolveError",
    "EXACT_NORM_MAX",
]


# Largest unknown count at which LinearizedOperator.inverse_norm is exact;
# above it the value is a Krylov lower bound.
EXACT_NORM_MAX = 1600
# A Neumann solve that has not settled after this many sweeps raises.
_MAX_SWEEPS = 100
# The sweeps stop at the first stalled componentwise-relative update at or
# below this: above it a stall is the fill-in of components that the
# right-hand side leaves zero, which can take 20 sweeps.
_STALL_LEVEL = 2.0 ** -30
# An update that grows while above this fraction of the largest component
# means the splitting does not contract.
_SETTLED = 2.0 ** -40
# Relative change of the Krylov estimate at which inverse_norm stops.
_POWER_RTOL = 1e-14
# Bytes of one chunk of the time fold's GEMM operand (kept cache-sized).
_FOLD_CHUNK_BYTES = 1 << 20


class ResonantSolveError(RuntimeError):
    """A block of D is singular, or the Neumann iteration does not settle."""


@dataclass(frozen=True)
class WLattice:
    """Index bookkeeping for the range truncation (l <= L, j <= J, j != l-1).

    `mask` is the (L+1, J+1) grid of lattice points; ells and js list them
    in row-major order.
    """

    L: int
    J: int
    ells: np.ndarray = field(init=False, repr=False)
    js: np.ndarray = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ll, jj = np.meshgrid(np.arange(self.L + 1), np.arange(self.J + 1), indexing="ij")
        keep = jj != ll - 1
        object.__setattr__(self, "ells", ll[keep].copy())
        object.__setattr__(self, "js", jj[keep].copy())
        object.__setattr__(self, "mask", keep)

    @property
    def size(self) -> int:
        return len(self.ells)

    def to_vector(self, f: CoeffField) -> np.ndarray:
        g = f.padded(self.L, self.J)
        return g.u[self.ells, self.js].copy()

    def to_field(self, vec: np.ndarray) -> CoeffField:
        f = CoeffField.zeros(self.L, self.J)
        f.u[self.ells, self.js] = vec
        return f

    def to_grid(self, f: CoeffField) -> np.ndarray:
        """f on the (L+1, J+1) grid with every entry off the lattice zero."""
        return np.where(self.mask, f.padded(self.L, self.J).u[: self.L + 1, : self.J + 1], 0.0)

    def weights(self, params: NormParams) -> np.ndarray:
        """Per-coefficient norm weights: ||f||^2 = sum (w_i c_i)^2 on the lattice."""
        ell = self.ells.astype(float)
        wj = (self.js + 1).astype(float)
        mult = np.where(self.ells == 0, 1.0, 2.0)
        return np.sqrt(mult) * np.exp(params.sigma * ell) * \
            np.maximum(ell, 1.0) ** params.s * wj ** params.r

    def in_lattice_support(self, f: CoeffField) -> bool:
        """True if every nonzero entry of f sits on a lattice point."""
        g = f.u.copy()
        top_l = min(self.L, f.L)
        top_j = min(self.J, f.J)
        sub = g[: top_l + 1, : top_j + 1]
        ll, jj = np.meshgrid(np.arange(top_l + 1), np.arange(top_j + 1), indexing="ij")
        sub = np.where(jj == ll - 1, sub, 0.0)
        outside = float(np.abs(sub).max(initial=0.0))
        g[: top_l + 1, : top_j + 1] = 0.0
        outside = max(outside, float(np.abs(g).max(initial=0.0)))
        return outside == 0.0


def _convolution_matrix(stack: np.ndarray, lattice: WLattice) -> np.ndarray:
    """Dense matrix of h -> product-by-b on the lattice from the S_d stack.

    Filled one l row-block at a time by the cos-halfline fold gather.
    """
    mat = np.empty((lattice.size, lattice.size))
    for ell in range(lattice.L + 1):
        rows = lattice.ells == ell
        mat[rows] = fold_entries(stack, ell, lattice.js[rows][:, None],
                                 lattice.ells[None, :], lattice.js[None, :])
    return mat


def _potential_parts(stack: np.ndarray, dv: np.ndarray, lattice: WLattice):
    """Dense product by b on the lattice and the kernel-correction term M2.

    stack holds the S_d matrices of b.  M2 = (product by b of the embedded
    kernel correction) @ dv: the gather column of kernel mode j'' is the fold
    of S-blocks at time frequency omega_j'', and the embedding stores v_j'' / 2.
    """
    mult = _convolution_matrix(stack, lattice)
    modes = np.arange(len(dv))
    gath = fold_entries(stack, lattice.ells[:, None], lattice.js[:, None],
                        modes[None, :] + 1, modes[None, :])
    return mult, gath @ (0.5 * dv)


@dataclass
class LinearizedOperator:
    """The linearized operator, applied matrix-free, with the stage state it linearizes at.

    u = v(w) + w is the state, q = u^2, and stack the S_d matrices of the
    potential b = 3 q (mult_matrix_stack); dv_matrix maps lattice
    coefficients to the kernel derivative.  The counter `sweeps` holds the
    Neumann sweeps run on this operator and `power_steps` the Krylov steps
    (forward solves) of the last `inverse_norm` (0 when it was exact);
    `norm_blocks` and `largest_block` hold the decoupled block count and the
    largest block of the last exact `inverse_norm` (0 after a Krylov estimate).
    """

    eps: float
    omega: float
    lattice: WLattice
    u: CoeffField
    q: CoeffField
    stack: np.ndarray
    dv_matrix: np.ndarray

    def __post_init__(self):
        self.sweeps = 0
        self.power_steps = self.norm_blocks = self.largest_block = 0
        self._split = None
        L, J = self.L, self.J
        n_k, size = self.dv_matrix.shape[0], self.stack.shape[1]
        # the product by b is taken on rows l <= L and on the kernel slots
        # (j'' + 1, j'').  S_d vanishes beyond the time truncation of q and,
        # on a branch whose state holds only odd multiples of omega_m, off the
        # multiples of 2 omega_m: the fold reads S_d at d = 0, step, 2 step, ...
        self._rows = max(L, n_k) + 1
        live = np.flatnonzero(np.abs(self.stack[: 2 * self._rows - 1]).max(axis=(1, 2)))
        self._step = int(np.gcd.reduce(live)) or 1
        top = int(live[-1]) if len(live) else 0
        self._stacked = np.ascontiguousarray(self.stack[: top + 1 : self._step]).reshape(-1, size)
        # a subnormal entry adds less than 2^-1022 times the input to an output,
        # below the precision of any output in the normal range for inputs of
        # order one (the scaled Neumann iterates), and it makes the GEMM
        # twenty times slower on x86
        self._stacked[np.abs(self._stacked) < np.finfo(float).tiny] = 0.0
        self._chunk = max(1, _FOLD_CHUNK_BYTES // (8 * self._rows * size))
        self._kernel_slots = (np.arange(n_k) + 1, np.arange(n_k))
        ell = np.arange(L + 1, dtype=float)[:, None]
        wj = np.arange(J + 1, dtype=float)[None, :] + 1.0
        self._symbol = self.omega ** 2 * ell ** 2 - wj ** 2
        dv_grid = np.zeros((n_k, (L + 1) * (J + 1)))
        dv_grid[:, self.lattice.ells * (J + 1) + self.lattice.js] = self.dv_matrix
        self._dv_grid = dv_grid

    @property
    def L(self) -> int:
        return self.lattice.L

    @property
    def J(self) -> int:
        return self.lattice.J

    @property
    def b0(self) -> np.ndarray:
        """Time mean of the potential b = 3 q."""
        return 3.0 * self.q.u[0]

    def symbol_diagonal(self) -> np.ndarray:
        return self._symbol[self.lattice.mask]

    def factorize(self):
        """The per-l blocks of D and their inverses, (L+1, J+1, J+1) each, computed once.

        D_l = omega^2 l^2 - omega_j^2 - eps S_0 on the modes j != l - 1; the
        resonant slot is carried as a unit row and column, so each block is
        J x J on the lattice.  A singular block raises ResonantSolveError.
        Non-finite blocks are not rejected: they make `solve` return
        non-finite values, which the Picard loop of `nash_moser.solve_stage`
        reports with the stage and iteration.
        """
        if self._split is None:
            J = self.J
            blocks = np.repeat(-self.eps * self.stack[None, 0, : J + 1, : J + 1],
                               self.L + 1, axis=0)
            blocks[:, np.arange(J + 1), np.arange(J + 1)] += self._symbol
            ells = np.arange(1, min(self.L, J + 1) + 1)
            blocks[ells, ells - 1, :] = 0.0
            blocks[ells, :, ells - 1] = 0.0
            blocks[ells, ells - 1, ells - 1] = 1.0
            inverse = np.full_like(blocks, np.nan)
            finite = np.isfinite(blocks).all(axis=(1, 2))
            try:
                inverse[finite] = np.linalg.inv(blocks[finite])
            except np.linalg.LinAlgError:
                for ell in np.nonzero(finite)[0]:  # name the exactly singular block
                    try:
                        inverse[ell] = np.linalg.inv(blocks[ell])
                    except np.linalg.LinAlgError:
                        raise ResonantSolveError(f"block l={ell} of D is singular") from None
            bad = finite & ~np.isfinite(inverse).all(axis=(1, 2))
            if bad.any():
                raise ResonantSolveError(f"block l={int(np.argmax(bad))} of D is numerically "
                                         "singular (amplitude effectively resonant)")
            self._split = (blocks, inverse)
        return self._split

    def _product(self, h: np.ndarray) -> np.ndarray:
        """Product by b on stored coefficients h (rows l, columns j of the stack).

        Stored row l' stands for the frequencies +l' and -l', so
        out[l] = sum_d S_d g_d[l] with g_0 = h and g_d[l] = h[|l - d|] + h[l + d]
        for d >= 1.  In the mirrored, zero-padded copy hz (hz[rows - 1 + p] =
        h[|p|]) the rows g_d[l] for a chunk of the live d are read through
        two strided views of hz, at l + d and through the mirror at |l - d|;
        each chunk is then one GEMM against the stacked S_d.
        """
        rows, size = h.shape
        count = len(self._stacked) // size
        step = self._step
        hz = np.zeros((2 * rows + step * count, size))
        hz[: 2 * rows - 1] = h[np.abs(np.arange(1 - rows, rows))]
        down, item = hz.strides
        out = np.zeros_like(h)
        for i0 in range(0, count, self._chunk):
            width = min(self._chunk, count - i0)
            centre = hz[rows - 1 + step * i0]
            shape = (rows, width, size)
            g = np.add(as_strided(centre, shape, (-down, step * down, item), writeable=False),
                       as_strided(centre, shape, (down, step * down, item), writeable=False),
                       out=np.empty(shape))  # C order, so the reshape below is a view
            if i0 == 0:
                g[:, 0] = h
            out += g.reshape(rows, width * size) @ self._stacked[i0 * size : (i0 + width) * size]
        return out

    def _apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Lop x (Lop^T x when adjoint) for x on the lattice grid.

        The product by b is self-adjoint under the multiplicities
        Mw = diag(1, 2, 2, ...) of the stored rows, so its transpose is
        Mw (product by b) Mw^-1; M2 = (product by b on the kernel slots) @ dv / 2
        transposes to dv^T times that product read at the kernel slots.
        """
        L, J = self.L, self.J
        h = np.zeros((self._rows, self.stack.shape[1]))
        h[: L + 1, : J + 1] = x
        if adjoint:
            h[1:] *= 0.5
            p = self._product(h)
            p[1:] *= 2.0
            out = self._symbol * x - self.eps * p[: L + 1, : J + 1]
            kernel = self._dv_grid.T @ (0.5 * p[self._kernel_slots])
            out -= self.eps * kernel.reshape(L + 1, J + 1)
        else:
            h[self._kernel_slots] = 0.5 * (self._dv_grid @ x.ravel())
            out = self._symbol * x - self.eps * self._product(h)[: L + 1, : J + 1]
        out[~self.lattice.mask] = 0.0
        return out

    def apply(self, f: CoeffField, adjoint: bool = False) -> CoeffField:
        """Lop f (Lop^T f when adjoint) on the lattice; entries of f off it are ignored."""
        return CoeffField(self._apply(self.lattice.to_grid(f), adjoint))

    def _neumann(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve Lop x = b (Lop^T x = b) on the lattice grid by x <- x + D^-1 (b - Lop x).

        b is scaled by the power of two at its largest entry, which is
        exact.  The sweeps stop when every component moves by less than one
        ulp of itself, or when the largest componentwise-relative update
        stops decreasing at or below _STALL_LEVEL.  A zero b returns zero; a
        non-finite b or iterate returns at once.  An update that grows above
        roundoff, or _MAX_SWEEPS sweeps, raise ResonantSolveError.  The
        caller has run `factorize`.
        """
        inverse = self._split[1]
        peak = float(np.max(np.abs(b)))
        if peak == 0.0:
            return np.zeros_like(b)
        if not np.isfinite(peak):
            return np.full_like(b, np.nan)
        scale = np.ldexp(1.0, np.frexp(peak)[1])
        b = b / scale
        x = np.zeros_like(b)
        prev_rel = prev_top = np.inf
        for sweep in range(1, _MAX_SWEEPS + 1):
            r = b - self._apply(x, adjoint) if sweep > 1 else b
            dx = (inverse @ r[:, :, None])[:, :, 0]
            x = x + dx
            self.sweeps += 1
            if not np.all(np.isfinite(x)):
                return x
            moved = np.abs(dx)
            size = np.abs(x)
            if np.all(moved < np.spacing(size)):
                return x * scale
            top = float(moved.max())
            if top > prev_top and top > _SETTLED * float(size.max()):
                raise ResonantSolveError(f"Neumann update grows at L_n={self.L}, "
                                         f"sweep {sweep} ({prev_top:.3e} -> {top:.3e})")
            # subnormal components carry no relative accuracy
            normal = size >= np.finfo(float).tiny
            rel = float(np.divide(moved, size, out=np.zeros_like(size), where=normal).max())
            if prev_rel <= rel <= _STALL_LEVEL:
                return x * scale
            prev_rel, prev_top = rel, top
        raise ResonantSolveError(f"Neumann iteration at L_n={self.L} did not settle "
                                 f"by sweep {_MAX_SWEEPS}")

    def solve(self, rhs: CoeffField) -> CoeffField:
        """Lop^-1 rhs by the Neumann iteration of the splitting D - eps M."""
        if not self.lattice.in_lattice_support(rhs):
            raise ValueError("right-hand side has support outside the range truncation")
        self.factorize()
        return CoeffField(self._neumann(self.lattice.to_grid(rhs)))

    def inverse_norm(self, params: NormParams, exact_threshold: int = EXACT_NORM_MAX,
                     power_iterations: int = 40) -> float:
        """Operator norm of the inverse on the weighted (sigma, s, r) metric.

        With B = diag(w) Lop^{-1} diag(w)^{-1} (w the lattice weights), the
        norm is sigma_max(B) = sqrt(lambda_max(B^T B)).  Up to
        `exact_threshold` unknowns it is exact: the maximum over the
        decoupled blocks of the dense oracle (`_components`) of each block's
        norm from its Gram matrix (`_block_inverse_norm`); `norm_blocks` and
        `largest_block` record the split.  Above it, a Golub-Kahan (Lanczos)
        estimate through the Neumann solves and their adjoints: Krylov step k
        solves for y_k = B q_k, where q_1 is uniform and q_k+1 is B^T y_k
        orthogonalized twice against q_1..q_k (classical Gram-Schmidt), and
        returns sigma_max(y_1..y_k) from their k x k Gram matrix.  As
        ||B Q|| <= ||B|| ||Q|| = ||B||, it is a lower bound, and it never
        decreases in k.  It stops once it changes by at most 1e-14 relative
        (tested before the adjoint solve) or after min(`power_iterations`, n)
        steps, counted in `power_steps`.  A singular or non-finite operator
        raises ResonantSolveError.
        """
        self.factorize()
        w = self.lattice.weights(params)
        n = self.lattice.size
        self.power_steps = self.norm_blocks = self.largest_block = 0
        if n <= exact_threshold:
            dense = dense_matrix(self)
            blocks = _components(dense)
            self.norm_blocks, self.largest_block = len(blocks), max(map(len, blocks))
            return _block_inverse_norm(dense, w, blocks)
        shape = self.lattice.mask.shape
        wg = np.ones(shape)
        wg[self.lattice.ells, self.lattice.js] = w
        q = np.where(self.lattice.mask, 1.0 / np.sqrt(n), 0.0).reshape(1, -1)  # rows q_i
        y = np.empty((0, q.shape[1]))                                         # rows B q_i
        est, last = 0.0, min(power_iterations, n)
        for step in range(1, last + 1):
            image = wg * self._neumann(q[-1].reshape(shape) / wg)
            if not np.all(np.isfinite(image)):
                raise ResonantSolveError(f"inverse norm at L_n={self.L}: non-finite image "
                                         f"at Krylov step {step}")
            y = np.vstack([y, image.ravel()])
            prev, est = est, float(np.sqrt(np.linalg.eigvalsh(y @ y.T)[-1]))
            if est - prev <= _POWER_RTOL * est or step == last:
                break
            z = (self._neumann(wg * image, adjoint=True) / wg).ravel()  # B^T y_k
            for _ in range(2):  # classical Gram-Schmidt, twice
                z -= q.T @ (q @ z)
            nz = float(np.linalg.norm(z))
            if nz == 0.0:
                break
            q = np.vstack([q, z / nz])
        self.power_steps = step
        return est


def dense_matrix(op: LinearizedOperator) -> np.ndarray:
    """The dense n x n matrix of Lop on the lattice: the oracle of `apply`.

    Gathered from the S_d stack as diag(symbol) - eps mult - eps M2, formed
    in place in that order.  Production forms it only in the exact branch
    of `inverse_norm` (n <= EXACT_NORM_MAX); the split diagnostics and the
    tests read it too.
    """
    mult, m2 = _potential_parts(op.stack, op.dv_matrix, op.lattice)
    mult *= -op.eps
    mult[np.diag_indices_from(mult)] += op.symbol_diagonal()
    m2 *= op.eps
    mult -= m2
    return mult


def _components(a: np.ndarray) -> list[np.ndarray]:
    """Ascending index sets of the connected components of (a != 0) | (a^T != 0).

    A frontier search from the lowest unreached index: a is block diagonal
    under this partition.  On a branch the state holds only odd multiples of
    omega_m in time, so Lop couples l only to l' = +-l mod 2 omega_m and keeps
    a spatial parity (6 to 10 blocks).  The partition is read from the
    matrix, not derived from m: at eps = 0 every unknown is its own block,
    and a generic state is one block.
    """
    linked = (a != 0.0) | (a.T != 0.0)
    label = np.full(len(a), -1)
    blocks = []
    for seed in range(len(a)):
        if label[seed] >= 0:
            continue
        label[seed] = len(blocks)
        frontier = [seed]
        while len(frontier):
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & (label < 0))
            label[frontier] = len(blocks)
        blocks.append(np.flatnonzero(label == len(blocks)))
    return blocks


def _block_inverse_norm(a: np.ndarray, w: np.ndarray, blocks: list[np.ndarray]) -> float:
    """sigma_max(diag(w) a^-1 diag(w)^-1) for a block diagonal under `blocks`.

    The weights are diagonal, so B is block diagonal under the same
    partition and its norm is the largest over the blocks, each the square
    root of the top eigenvalue of the perfectly conditioned Gram matrix
    B_k^T B_k.  A one-by-one block is its own pivot a_ii and has the norm
    1 / |a_ii| (the weights cancel); all of them are taken in one pass.  A
    non-finite entry in a block, or a pivot that is zero or below 1e-300 of
    the largest pivot of any block, raises ResonantSolveError.
    """
    multi = [idx for idx in blocks if len(idx) > 1]
    single = np.array([idx[0] for idx in blocks if len(idx) == 1], dtype=int)
    diag = a[single, single]
    subs = [a[np.ix_(idx, idx)] for idx in multi]
    if not (np.isfinite(diag).all() and all(np.isfinite(sub).all() for sub in subs)):
        raise ResonantSolveError("linearized operator is not finite")
    with warnings.catch_warnings():
        # exact singularity is detected below and raised as an error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lus = [scipy.linalg.lu_factor(sub, overwrite_a=True, check_finite=False)
               for sub in subs]
    pivots = np.abs(np.concatenate([diag] + [np.diag(lu) for lu, _ in lus]))
    if pivots.min() == 0.0 or pivots.min() < 1e-300 * max(pivots.max(), 1.0):
        raise ResonantSolveError("linearized operator is numerically singular "
                                 "(amplitude effectively resonant)")
    top = float(np.max(1.0 / pivots[: len(single)], initial=0.0))
    for idx, lu in zip(multi, lus):
        k, wk = len(idx), w[idx]
        # a Fortran-ordered right-hand side is solved in place, and syrk
        # reads the Fortran-ordered B_k without a copy
        inv = scipy.linalg.lu_solve(lu, np.eye(k, order="F"), overwrite_b=True)
        inv *= wk[:, None]
        inv /= wk[None, :]
        gram = scipy.linalg.blas.dsyrk(1.0, inv, trans=1, lower=0)  # upper B_k^T B_k
        top = max(top, float(np.sqrt(scipy.linalg.eigvalsh(
            gram, lower=False, subset_by_index=[k - 1, k - 1], overwrite_a=True)[0])))
    return top


def assemble_linearized(eps: float, w: CoeffField, m: int, L_n: int, J_max: int,
                        kernel: KernelSolveResult | KernelField | None = None
                        ) -> LinearizedOperator:
    """Build the linearized operator at (eps, w) on the (L_n, J_max) lattice.

    q = (v + w)^2 is formed once, and one S_d stack of b = 3 q serves the
    product by b and the kernel derivative dv.
    """
    omega = float(np.sqrt(1.0 + eps))
    if kernel is None:
        kernel = solve_kernel(w, m, J_V=J_max)
    kf = kernel.kernel if isinstance(kernel, KernelSolveResult) else kernel
    lattice = WLattice(L_n, J_max)
    u = total_field(kf, w)
    q = field_multiply(u, u)
    n_k = kf.J + 1
    stack = mult_matrix_stack(3.0 * q, max(J_max + 1, n_k),
                              max(2 * L_n, L_n + n_k, 2 * n_k))
    dv = kernel_derivative_matrix(stack, n_k, lattice.ells, lattice.js)
    return LinearizedOperator(eps=eps, omega=omega, lattice=lattice,
                              u=u, q=q, stack=stack, dv_matrix=dv)


@dataclass
class SplitParts:
    """Diagonal / off-diagonal decomposition Lop = D - eps M1 - eps M2."""

    D: np.ndarray
    M1: np.ndarray
    M2: np.ndarray

    def reassemble(self, eps: float) -> np.ndarray:
        return self.D - eps * self.M1 - eps * self.M2


def split_diagonal(op: LinearizedOperator) -> SplitParts:
    """Dense D (the blocks `factorize` builds), M1 (zero-mean part of b) and M2."""
    lattice = op.lattice
    blocks, _ = op.factorize()
    same = lattice.ells[:, None] == lattice.ells[None, :]
    rows, cols = lattice.js[:, None], lattice.js[None, :]
    D = np.where(same, blocks[lattice.ells[:, None], rows, cols], 0.0)
    mult, m2 = _potential_parts(op.stack, op.dv_matrix, lattice)
    return SplitParts(D=D, M1=mult - np.where(same, op.stack[0][rows, cols], 0.0), M2=m2)


@dataclass
class SpectralBlock:
    """Eigenpairs of S_l(eps) = A + eps pi_l b0 pi_l on the complement of e_{l-1}."""

    ell: int
    eps: float
    js: np.ndarray              # retained mode labels
    lam: np.ndarray             # eigenvalues, in label order
    vectors: np.ndarray | None  # columns in full-j coordinates (or None)
    J_max: int


def _kept_modes(ell: int, size: int) -> np.ndarray:
    """Mode labels of an l-block: j < size except the resonant j = |l| - 1."""
    js = np.arange(size)
    return js[js != abs(ell) - 1]


def _bands(kept: np.ndarray, eps: float, diag: np.ndarray, bw: int) -> np.ndarray:
    """Upper banded storage of omega_j^2 + eps B restricted to the modes kept.

    diag holds the diagonals of B, B[i, i + d] = diag[d, i]
    (spherical_basis.diagonal_sums), up to the largest offset between kept
    modes d <= bw apart: bw + 1 when one mode is deleted.  Deleting an index
    never widens the band, so bw (the half-bandwidth of eps B, 0 when it is
    diagonal or vanishes) holds for every restriction.
    """
    n = len(kept)
    bands = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        bands[bw - d, d:] = eps * diag[kept[d:] - kept[: n - d], kept[: n - d]]
    bands[bw] += (kept + 1.0) ** 2
    return bands


def _block_spectrum(ell: int, eps: float, diag: np.ndarray, bw: int):
    """Eigenvalues of omega_j^2 + eps B on the modes j != |l| - 1, and those modes.

    diag holds the first bw + 2 diagonals of the multiplication matrix B of
    b0 (see _bands) and bw is the half-bandwidth of eps B.  One
    eigvals_banded solve per block; at small eps the ascending eigenvalues
    match the ascending labels.
    """
    kept = _kept_modes(ell, diag.shape[-1])
    bw = min(bw, max(len(kept) - 1, 0))  # k modes have at most k - 1 bands
    bands = _bands(kept, eps, diag, bw)
    if bw == 0:
        return bands[0], kept
    try:
        return scipy.linalg.eigvals_banded(bands, lower=False), kept
    except scipy.linalg.LinAlgError as exc:
        raise ResonantSolveError(f"banded eigensolve failed at l={ell}") from exc


def _band_width(eps: float, b0: np.ndarray, size: int) -> int:
    """Half-bandwidth of eps B: the spatial support of b0, capped by the block size."""
    support = np.nonzero(b0)[0]
    if eps == 0.0 or len(support) == 0:
        return 0
    return min(int(support[-1]), size - 1)


def diagonalize_block(ell: int, eps: float, b0: np.ndarray, J_max: int,
                      want_vectors: bool = True) -> SpectralBlock:
    """Dense symmetric eigensolve of one l-block, labeled by overlap with e_j.

    The eigenvalue-only path uses the banded solver (the potential couples
    modes only within the spatial support of b0), which keeps large J_max
    cheap.  Requires |eps| below the Neumann threshold 1 / sup|b0|.
    """
    b0 = np.asarray(b0, dtype=float)
    if eps != 0.0 and np.any(b0 != 0.0):
        # 5% safety margin on the grid sup estimate
        sup = 1.05 * float(np.max(np.abs(sb.evaluate_profile(b0, np.linspace(0, np.pi, 2048)))))
        if abs(eps) * sup >= 1.0:
            raise ValueError(
                f"|eps| = {abs(eps)} beyond the Neumann threshold 1/sup|b0| = {1.0 / sup:.3e}")
    if not want_vectors:
        bw = _band_width(eps, b0, J_max + 1)
        lam, kept = _block_spectrum(ell, eps, sb.diagonal_sums(b0, J_max + 1, bw + 2), bw)
        return SpectralBlock(ell=ell, eps=eps, js=kept, lam=lam, vectors=None, J_max=J_max)
    B = sb.multiplication_matrix(b0, J_max + 1)
    kept = _kept_modes(ell, J_max + 1)
    Sk = np.diag((kept + 1.0) ** 2) + eps * B[np.ix_(kept, kept)]
    try:
        lam, vec = scipy.linalg.eigh(Sk)
    except scipy.linalg.LinAlgError as exc:
        raise ResonantSolveError(f"dense eigensolve failed at l={ell}") from exc
    # continuation labeling: match each eigenvector to the eps=0 mode it overlaps most
    perm = np.empty(len(lam), dtype=int)
    taken = np.zeros(len(lam), dtype=bool)
    for col in np.argsort(-np.max(np.abs(vec), axis=0)):
        cand = np.argsort(-np.abs(vec[:, col]))
        for row in cand:
            if not taken[row]:
                perm[row] = col
                taken[row] = True
                break
    lam = lam[perm]
    vec = vec[:, perm]
    full = np.zeros((J_max + 1, len(kept)))
    full[kept, :] = vec
    return SpectralBlock(ell=ell, eps=eps, js=kept, lam=lam, vectors=full, J_max=J_max)


@dataclass
class DivisorReport:
    """Small-divisor table alpha_l with minimizing labels and the admissibility floor."""

    eps: float
    gamma: float
    tau: float
    ells: np.ndarray
    alpha: np.ndarray
    j_min: np.ndarray
    floor: np.ndarray
    ok: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.ok))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ell", "alpha", "j_min", "floor", "ok"])
            for i in range(len(self.ells)):
                w.writerow([int(self.ells[i]), repr(float(self.alpha[i])),
                            int(self.j_min[i]), repr(float(self.floor[i])),
                            int(self.ok[i])])


def _divisor_report(eps: float, gamma: float, tau: float, ells: np.ndarray,
                    alpha: np.ndarray, j_min: np.ndarray) -> DivisorReport:
    """Attach the admissibility floor gamma / (20 max(l, 1)^(tau - 1)) to alpha_l."""
    floor = gamma / (20.0 * np.maximum(np.abs(ells), 1) ** (tau - 1.0))
    return DivisorReport(eps=eps, gamma=gamma, tau=tau, ells=ells, alpha=alpha,
                         j_min=j_min, floor=floor, ok=alpha >= floor)


def small_divisors(eps: float, blocks: list[SpectralBlock], gamma: float,
                   tau: float) -> DivisorReport:
    """alpha_l = min_j |omega^2 l^2 - lambda_{l,j}(eps)| with argmin, per block."""
    ells = np.array([blk.ell for blk in blocks])
    alpha = np.empty(len(blocks))
    j_min = np.empty(len(blocks), dtype=int)
    for i, blk in enumerate(blocks):
        divisors = np.abs((1.0 + eps) * blk.ell ** 2 - blk.lam)
        k = int(np.argmin(divisors))
        alpha[i] = divisors[k]
        j_min[i] = blk.js[k]
    return _divisor_report(eps, gamma, tau, ells, alpha, j_min)


# A pole whose eigenvector has weight below this on the deleted mode is an
# eigenvalue of the block to working accuracy (deflation, as in LAPACK's
# divide and conquer).
_DEFLATION_WEIGHT = (4.0 * np.finfo(float).eps) ** 2
# Bisection halves a bracket of at most half a pole gap; after 64 halvings the
# bracket is far below one ulp of the root.
_BISECTION_STEPS = 64


def _secular_roots(lam: np.ndarray, prob: np.ndarray, weight: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of f(mu) = sum w_k / (lam_k - mu) in each gap (lo, hi) of its poles.

    Problem p owns the terms with prob == p; lo and hi are two consecutive
    poles of it, so f increases from -inf to +inf across the gap.  Each root
    is bisected as an offset from the nearer end pole, which keeps the
    offset exact to relative accuracy however close the root sits to it.
    """
    size = len(lo)

    def f(poles, mu):
        return np.bincount(prob, weight / (poles - mu[prob]), minlength=size)

    mid = 0.5 * (lo + hi)
    near_lo = f(lam, mid) > 0.0
    origin = np.where(near_lo, lo, hi)
    shifted = lam - origin[prob]
    left = np.where(near_lo, 0.0, mid - hi)
    right = np.where(near_lo, mid - lo, 0.0)
    for _ in range(_BISECTION_STEPS):
        x = 0.5 * (left + right)
        above = f(shifted, x) > 0.0
        right = np.where(above, x, right)
        left = np.where(above, left, x)
    return origin + 0.5 * (left + right)


def _nearest_eigenvalue(lam: np.ndarray, t: np.ndarray, rows: np.ndarray,
                        poles: np.ndarray, weight: np.ndarray):
    """Distance from t[r] to the nearest eigenvalue of block r, and its rank.

    lam holds the ascending eigenvalues of M.  Block r is M with one row and
    column deleted; its live poles are lam[poles] with the secular weights
    `weight` on the entries where rows == r (row-major, ascending within a
    row).  Its eigenvalues are every other pole of lam (deflated) and one
    secular root in each gap between consecutive live poles; a row with no
    live pole is M itself.
    """
    size = len(t)
    count = np.bincount(rows, minlength=size)
    start = np.cumsum(count) - count
    # live pole g_t is the last at or below t; the roots in the gaps after
    # live poles g_t - 1, g_t, g_t + 1 are the only ones that can be nearest
    g_t = np.bincount(rows, lam[poles] <= t[rows], minlength=size).astype(int) - 1
    gaps = g_t[:, None] + np.arange(-1, 2)
    pr, pc = np.nonzero((gaps >= 0) & (gaps <= count[:, None] - 2))
    lo_at = np.zeros(gaps.shape, dtype=int)  # entry of the gap's lower pole
    lo_at[pr, pc] = start[pr] + gaps[pr, pc]
    # each bisection problem reads every live entry of its row
    nterm = count[pr]
    prob = np.repeat(np.arange(len(pr)), nterm)
    term = np.arange(len(prob)) - np.repeat(np.cumsum(nterm) - nterm - start[pr], nterm)
    roots = np.full(gaps.shape, np.nan)
    roots[pr, pc] = _secular_roots(lam[poles[term]], prob, weight[term],
                                   lam[poles[lo_at[pr, pc]]], lam[poles[lo_at[pr, pc] + 1]])
    # nearest deflated pole (none when every pole of the row is live)
    dist = np.abs(t[:, None] - lam[None, :])
    dist[rows, poles] = np.inf
    k_defl = np.argmin(dist, axis=1)
    cand = np.abs(t[:, None] - roots)
    cand[np.isnan(cand)] = np.inf
    cand = np.column_stack([cand, dist[np.arange(size), k_defl]])
    pick = np.argmin(cand, axis=1)
    rank = np.empty(size, dtype=int)
    is_root = pick < 3
    at = lo_at[is_root, pick[is_root]]
    # below a root in the gap after live pole g lie g roots and the deflated
    # poles under it: one fewer than M's poles under it (clipped to the gap
    # in case the root rounds onto an end pole)
    rank[is_root] = np.clip(np.searchsorted(lam, roots[is_root, pick[is_root]]),
                            poles[at] + 1, poles[at + 1]) - 1
    # M has k eigenvalues below a deflated pole lam_k; the block has one fewer
    # when the secular function is negative there
    defl = ~is_root
    on = defl[rows]
    f_defl = np.bincount(rows[on], weight[on] / (lam[poles[on]] - lam[k_defl[rows[on]]]),
                         minlength=size)
    rank[defl] = k_defl[defl] - (f_defl[defl] < 0.0)
    return cand[np.arange(size), pick], rank


def divisor_table(eps: float, b0: np.ndarray, L_n: int, J_max: int, gamma: float,
                  tau: float) -> DivisorReport:
    """Divisor report over l = 0..L_n from one banded eigensolve.

    Every block is M = omega_j^2 + eps B (j <= J_max) with the row and column
    of e_i, i = l - 1, deleted.  With M = V diag(lam) V^T, the eigenvalues of
    the block are the poles lam_k whose weight V[i, k]^2 deflates, and one
    root of the secular equation sum_live V[i, k]^2 / (lam_k - mu) = 0 in each
    gap between consecutive live poles (Golub 1973).  Only the roots in the
    gap holding omega^2 l^2 and in its two neighbours can be the nearest
    eigenvalue; they are bisected for all l at once.  Blocks l = 0 and
    l > J_max + 1 delete nothing.  j_min is the kept label of the chosen
    eigenvalue's rank, the ascending-label rule of the per-block banded
    solve (`diagonalize_block(..., want_vectors=False)`).
    """
    b0 = np.asarray(b0, dtype=float)
    n = J_max + 1
    bw = _band_width(eps, b0, n)
    bands = _bands(np.arange(n), eps, sb.diagonal_sums(b0, n, bw + 1), bw)
    ells = np.arange(L_n + 1)
    deleted = ells - 1
    cut = np.nonzero((deleted >= 0) & (deleted < n))[0]
    if bw == 0:
        # M is diagonal and ascending: V = I, only pole i is live in block l
        lam = bands[0]
        rows, poles, weight = cut, deleted[cut], np.ones(len(cut))
    else:
        try:
            lam, V = scipy.linalg.eig_banded(bands, lower=False)
        except scipy.linalg.LinAlgError as exc:
            raise ResonantSolveError("banded eigensolve failed") from exc
        W = V[deleted[cut]] ** 2
        r, poles = np.nonzero(W >= _DEFLATION_WEIGHT)
        rows, weight = cut[r], W[r, poles]
    alpha, rank = _nearest_eigenvalue(lam, (1.0 + eps) * ells ** 2, rows, poles, weight)
    j_min = rank + ((deleted >= 0) & (rank >= deleted))
    return _divisor_report(eps, gamma, tau, ells, alpha, j_min)


def pairwise_divisor_constant(report: DivisorReport) -> float:
    """Empirical constant C in 1/(alpha_l alpha_k) <= C |k-l|^(2(tau-1)/beta) / (gamma^2 eps^(tau-1)).

    beta = (2 - tau)/tau.  Returns the supremum over all pairs l != k of the
    report (a finite value verifies the product bound at this truncation).
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


@dataclass
class PrecondReport:
    """Diagnostics of the sign/half-power preconditioner splitting."""

    u_norm: float
    u_ok: bool
    dhalf_norm: float
    dhalf_bound: float
    dhalf_ok: bool
    r1_norm: float
    r1_constant: float
    r2_norm: float
    r2_constant: float
    factorization_error: float
    neumann_converged: bool
    neumann_vs_dense: float


def preconditioned_split_check(op: LinearizedOperator, params: NormParams,
                               gamma: float, tau: float) -> PrecondReport:
    """Form U = sgn(D), R_i = |D|^(-1/2) M_i |D|^(-1/2) and verify the bounds.

    U and |D|^(+-1/2) come from one batched eigensolve of the blocks of D
    that `factorize` builds (the unit row of a resonant slot is an
    eigenvector of its own, and it is cut out with the slot).  The
    production solve is checked column by column against the dense inverse;
    a solve that does not settle is reported, never absorbed.
    """
    lattice = op.lattice
    parts = split_diagonal(op)
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
    R1 = Dm @ parts.M1 @ Dm
    R2 = Dm @ parts.M2 @ Dm
    recon = Dp @ (U - op.eps * R1 - op.eps * R2) @ Dp
    dense = dense_matrix(op)
    scale = max(np.abs(dense).max(), 1.0)
    fact_err = float(np.abs(recon - dense).max() / scale)

    w_s = lattice.weights(params)
    shifted = NormParams(params.sigma, params.s + (tau - 1.0) / 2.0, params.r)
    w_sh = lattice.weights(shifted)

    def opnorm(M, w_out, w_in):
        return float(np.linalg.norm(w_out[:, None] * M / w_in[None, :], 2))

    u_norm = opnorm(U, w_s, w_s)
    dhalf_norm = opnorm(Dm, w_s, w_sh)
    dhalf_bound = 9.0 / np.sqrt(gamma)
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
    return PrecondReport(u_norm=u_norm, u_ok=u_norm <= 4.0 + 1e-9,
                         dhalf_norm=dhalf_norm, dhalf_bound=dhalf_bound,
                         dhalf_ok=dhalf_norm <= dhalf_bound * (1 + 1e-9),
                         r1_norm=r1_norm, r1_constant=r1_constant,
                         r2_norm=r2_norm, r2_constant=r2_constant,
                         factorization_error=fact_err,
                         neumann_converged=converged,
                         neumann_vs_dense=neumann_vs_dense)


def spectrum_to_csv(blocks: list[SpectralBlock], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ell", "j", "lambda"])
        for blk in blocks:
            for j, lam in zip(blk.js, blk.lam):
                w.writerow([blk.ell, int(j), repr(float(lam))])
