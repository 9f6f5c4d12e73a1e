"""Linearized range operator: matrix-free application, the paper's splitting, divisors.

On the range truncation (time frequencies l <= L_n, space modes j <= J_max,
excluding the resonant pairs j = l - 1) the linearization of the range
equation around w is

    Lop h = (-omega^2 d_tt - A) h - eps P_n Pi_W (b h) - eps P_n Pi_W (b dv[h]),
    b = 3 (v(w) + w)^2,

with dv the derivative of the kernel solution.  Splitting b into its time
mean b0 and the oscillating part gives the diagonal family

    D_l = omega^2 l^2 - A - eps pi_l (b0 .) pi_l

and Lop = D - eps M.  The operator is never formed: its apply reads the
product by b from the S_d stack of b (one GEMM per chunk of d, in buffers
built once per solve) and the kernel correction from the thin dv_matrix.
Lop is block diagonal under the decoupled blocks (6 to 10 on a branch),
which the symmetry of the S_d support and of dv_matrix gives before any
entry is gathered; every fold runs on the cell (rows, modes, S_d and dv)
of one block or of the lattice.  `solve` runs the Neumann iteration
x <- x + D^-1 (b - Lop x) (only D^-1 of the per-l blocks of D is kept) on
each block where b is nonzero, as the solution is exactly zero on the
others; a Picard right-hand side fills one block, 6 to 17% of the unknowns.
The iteration contracts by about 3e-3 per sweep on the solution branches.
The Picard solves stop componentwise, so coefficients far below the
largest keep their value; the certificate's Krylov solves may stop
earlier, at the normwise accuracy its estimate reads (`_krylov`).  The
norm of the weighted inverse B = W Lop^-1 W^-1, W the field norm's weights
(read in log space and centred, so finite at L = 1024), is bracketed, at
every size, by two ends (exact at eps = 0).  The upper end is a Schur test
on an entrywise majorant of the Neumann series of D^-1 M, applied by the
same fold on |S_d|, |dv| and the |D_l^-1| blocks: an upper bound up to the
rounding of D^-1 itself on each block, whose largest bounds B.  The lower
end, a Golub-Kahan estimate through the same solves, runs block by block in
descending order of the upper ends until the next is at most the estimate.
Lop is the Hessian of the reduced action, so Lop^T = Mw Lop Mw^-1 for the
time multiplicities Mw = diag(1, 2, 2, ...) of the stored rows: B^T is a
forward solve too, and there is one apply.

The spectra of D_l (a Sturm-Liouville perturbation of omega_j^2) control
the small divisors alpha_l = min_j |omega^2 l^2 - lambda_{l,j}(eps)|.  Every
block is one matrix omega_j^2 + eps B with the row and column of e_{l-1}
deleted, and one path reads its eigenvalues: windows of a few modes,
diagonalized many at once in one stacked eigh, each eigenvalue reported
with the residual bound ||r||^2 / delta on its distance to the block's (r
the coupling out of the window, delta the gap to the other modes' Weyl
intervals).  A window widens until that bound is below one ulp, so the cost
is linear in the number of eigenvalues.  The divisor table takes one window
per l, around omega^2 l^2, and subtracts the bound from each divisor: the
reported alpha_l is a lower bound.  `block_spectrum` takes one window per
label of one block, for the `spectrum` command.  No n x n matrix is formed
here: the dense matrix of Lop, its split, the dense and banded block
eigensolves and the preconditioner diagnostics are test oracles
(tests/oracles.py).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import spherical_basis as sb
from .bifurcation import KernelField, kernel_derivative_matrix, total_field
from .field_algebra import (CoeffField, NormParams, field_multiply, kernel_mask, log_time_weights,
                            wave_symbol, write_csv)

__all__ = [
    "WLattice",
    "LinearizedOperator",
    "assemble_linearized",
    "DivisorReport",
    "divisor_table",
    "block_spectrum",
    "ResonantSolveError",
]


# A Neumann solve that has not settled after this many sweeps raises.
_MAX_SWEEPS = 100
# The sweeps stop at the first stalled componentwise-relative update at or
# below this: above it a stall is the fill-in of components that the
# right-hand side leaves zero, which can take 20 sweeps.
_STALL_LEVEL = 2.0 ** -30
# An update that grows while above this fraction of the largest component
# means the splitting does not contract.
_SETTLED = 2.0 ** -40
# Relative change of the Krylov estimate at which inverse_norm stops,
# and the most Krylov steps it takes.
_POWER_RTOL = 1e-14
_MAX_KRYLOV_STEPS = 40
# Weight of the uniform vector in a warm Krylov start: a direction error d
# moves the Ritz value by O(d^2), so sqrt(_POWER_RTOL) is below what it resolves.
_WARM_UNIFORM = np.sqrt(_POWER_RTOL)
# The accuracy a Krylov solve needs (`_krylov`): the unit roundoff u, which
# the forward solves' images reach, and sqrt(u) for the adjoint solves'
# directions.
_UNIT_ROUNDOFF = 2.0 ** -52
_DIRECTION_RTOL = np.sqrt(_UNIT_ROUNDOFF)
# The most Neumann terms K of the upper end of inverse_norm, and its relative
# margin: its values are chains of K sums of nonnegative terms, each of which
# rounds by at most as many ulps as it has terms, far below 2^-30 on any lattice
# whose weights stay in the double range.
_MAX_TERMS = 8
_UPPER_MARGIN = 1.0 + 2.0 ** -30
# Bytes of one chunk of the time fold's GEMM operand (kept cache-sized).
_FOLD_CHUNK_BYTES = 1 << 20
_SINGULAR = "linearized operator is numerically singular (amplitude effectively resonant)"


class ResonantSolveError(RuntimeError):
    """A block of D is singular, or the Neumann iteration does not settle."""


# Where the fold runs, a set of decoupled blocks (`_cells`; the lattice is all of
# them): x on the grid rows x modes (cols <= J, a prefix of cols), and h on all
# rows and the modes cols, whose product by b computes the rows first + stride k
# of each of parts against `stacked`, the S_d on cols x cols; dv fills h at the
# kernel slots (row, index into cols).
_Cells = namedtuple("_Cells", "rows parts cols modes slots dv symbol mask stacked")


@dataclass(frozen=True)
class WLattice:
    """Index bookkeeping for the range truncation (l <= L, j <= J, j != l-1).

    `mask` is the (L+1, J+1) grid of lattice points; ells and js list them
    in row-major order.  `log_weights` reads the field norm's weight rule.
    """

    L: int
    J: int
    ells: np.ndarray = field(init=False, repr=False)
    js: np.ndarray = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mask = ~kernel_mask(self.L, self.J)
        ells, js = np.nonzero(mask)
        object.__setattr__(self, "ells", ells)
        object.__setattr__(self, "js", js)
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return len(self.ells)

    def to_vector(self, f: CoeffField) -> np.ndarray:
        g = f.padded(self.L, self.J)
        return g.u[self.ells, self.js].copy()

    def to_grid(self, f: CoeffField) -> np.ndarray:
        """f on the (L+1, J+1) grid with every entry off the lattice zero."""
        return np.where(self.mask, f.padded(self.L, self.J).u[: self.L + 1, : self.J + 1], 0.0)

    def log_weights(self, params: NormParams) -> np.ndarray:
        """log w_i of the per-coefficient norm weights, ||f||^2 = sum (w_i c_i)^2 on the lattice."""
        return 0.5 * log_time_weights(self.L, params)[self.ells] + params.r * np.log(self.js + 1.0)

    def in_lattice_support(self, f: CoeffField) -> bool:
        """True if every nonzero entry of f sits on a lattice point (NaN counts as nonzero)."""
        g = f.padded(self.L, self.J).u
        g[: self.L + 1, : self.J + 1][self.mask] = 0.0
        return not g.any()


@dataclass
class LinearizedOperator:
    """The linearized operator, applied matrix-free, with the stage state it linearizes at.

    u = v(w) + w is the state, q = u^2, and stack the S_d matrices of the
    potential b = 3 q for q's time rows, d <= q.L (S_d past them is zero);
    dv_matrix maps lattice coefficients to the kernel derivative.  The
    counter `sweeps` holds the Neumann sweeps run on this operator, and
    `solved` marks the unknowns of the blocks that `solve` ran on.  The last
    `inverse_norm` leaves the Krylov steps (forward solves) of its lower
    end, summed over the blocks that ran, in `power_steps` (0 at eps = 0)
    and the unknowns of the block of the estimate in `krylov_block`, its
    upper end, the largest block end, in `upper` and that end's Neumann
    terms K in `upper_terms`, and its top right singular vector in
    `top_vector` (None before the first call).
    """

    eps: float
    lattice: WLattice
    u: CoeffField
    q: CoeffField
    stack: np.ndarray
    dv_matrix: np.ndarray

    def __post_init__(self):
        self.sweeps = 0
        self.power_steps = self.krylov_block = self.upper_terms = 0
        self.upper, self.top_vector = np.inf, None
        self.solved = np.zeros(self.lattice.size, dtype=bool)
        self._inverse, self._cell_cache = None, {}
        n_k, size = self.dv_matrix.shape[0], self.stack.shape[1]
        # the product by b is taken on rows l <= L and on the kernel slots
        # (j'' + 1, j'').  S_d vanishes beyond the time truncation of q and,
        # on a branch whose state holds only odd multiples of omega_m, off the
        # multiples of 2 omega_m: the fold reads S_d at d = 0, step, 2 step, ...
        self._rows = max(self.L, n_k) + 1
        live = np.flatnonzero(np.abs(self.stack[: 2 * self._rows - 1]).max(axis=(1, 2)))
        self._step = int(np.gcd.reduce(live)) or 1
        top = int(live[-1]) if len(live) else 0
        self._fold = np.s_[: top + 1 : self._step]
        self._stacked = np.ascontiguousarray(self.stack[self._fold]).reshape(-1, size)
        # a subnormal entry adds less than 2^-1022 times the input to an output,
        # below the precision of any output in the normal range for inputs of
        # order one (the scaled Neumann iterates), and it makes the GEMM
        # twenty times slower on x86
        self._stacked[np.abs(self._stacked) < np.finfo(float).tiny] = 0.0
        self._kernel_slots = (np.arange(n_k) + 1, np.arange(n_k))
        self._symbol = wave_symbol(self.omega, self.L, self.J)

    @property
    def omega(self) -> float:
        return float(np.sqrt(1.0 + self.eps))

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

    def factorize(self) -> np.ndarray:
        """The inverses of the per-l blocks of D, (L+1, J+1, J+1), computed once.

        D_l = omega^2 l^2 - omega_j^2 - eps S_0 on the modes j != l - 1; the
        resonant slot is carried as a unit row and column, so each block is
        J x J on the lattice.  Only the inverses are kept.  A singular block
        raises ResonantSolveError.  Non-finite blocks are not rejected: they
        make `solve` return non-finite values, which the Picard loop of
        `nash_moser.solve_stage` reports with the stage and iteration.
        """
        if self._inverse is None:
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
            self._inverse = inverse
        return self._inverse

    def _product(self, cells):
        """The product by b on stored coefficients h (rows l, columns cells.cols of the stack).

        Stored row l' stands for the frequencies +l' and -l', so
        out[l] = sum_d S_d g_d[l] with g_0 = h (or `centre`) and
        g_d[l] = h[|l - d|] + h[l + d] for d >= 1.  In the mirrored,
        zero-padded copy hz (hz[rows - 1 + p] = h[|p|]) the rows g_d[l] for a
        chunk of the live d are read through two strided views of hz, at
        l + d and through the mirror at |l - d|; each chunk is then one GEMM
        against the stacked S_d.  Only the rows first + stride k of each of
        `cells.parts` are computed.  hz, the views, g and out are built here,
        once per Neumann solve or `_upper_end`: the returned
        product(h, centre=None) refills them, and the next call overwrites out.
        """
        rows, size = self._rows, len(cells.cols)
        count = len(cells.stacked) // size
        step, chunk = self._step, max(1, _FOLD_CHUNK_BYTES // (8 * rows * size))
        hz, out = np.zeros((2 * rows + step * count, size)), np.zeros((rows, size))
        mirror, (down, item) = np.abs(np.arange(1 - rows, rows)), hz.strides
        operand, image, plan = np.empty(rows * min(chunk, count) * size), np.empty(out.size), []
        for first, stride in cells.parts:
            part = out[first::stride]  # a view: the GEMMs accumulate into out
            for i0 in range(0, count, chunk):
                shape = (len(part), min(chunk, count - i0), size)
                g = operand[: np.prod(shape)].reshape(shape)  # C order, so g.reshape is a view
                plan.append((part, *(as_strided(hz[rows - 1 + s * first + step * i0], shape,
                                                (s * stride * down, step * down, item),
                                                writeable=False) for s in (-1, 1)),
                             g, g.reshape(len(part), -1), image[: part.size].reshape(part.shape),
                             cells.stacked[i0 * size : (i0 + shape[1]) * size],
                             np.s_[first::stride] if i0 == 0 else None))

        def product(h, centre=None):
            np.take(h, mirror, axis=0, out=hz[: 2 * rows - 1], mode="clip")  # in range: no buffer
            out.fill(0.0)
            for part, low, high, g, flat, gemm, stacked, lead in plan:
                np.add(low, high, out=g)
                if lead is not None:
                    g[:, 0] = (h if centre is None else centre)[lead]
                part += np.matmul(flat, stacked, out=gemm)
            return out
        return product

    def _apply(self, x: np.ndarray, cells, product) -> np.ndarray:
        """Lop x for x on the grid of `cells` by its `_product`: the one apply, both orientations.

        Lop is the Hessian of the Lyapunov-Schmidt reduced action at (v(w), w),
        so it is symmetric in the L^2 pairing, which counts stored row l >= 1
        twice (it stands for +l and -l): Lop^T = Mw Lop Mw^-1 with
        Mw = diag(1, 2, 2, ...) on the rows, the kernel correction M2 included.
        """
        h = np.zeros((self._rows, len(cells.cols)))
        h[cells.rows, : x.shape[1]] = x
        h[cells.slots] = 0.5 * (cells.dv @ x.ravel())
        out = cells.symbol * x - self.eps * product(h)[cells.rows, : x.shape[1]]
        out[~cells.mask] = 0.0
        return out

    def _majorant(self, x: np.ndarray, cells, transpose: bool, product) -> np.ndarray:
        """|M| x, or |M|^T x, for x >= 0 on the grid of `cells`, |M| an entrywise majorant of M.

        cells holds |S_d| and |dv|.  Forward: the fold of x and of the kernel
        slots 0.5 |dv| x, its d = 0 term on the slots only (on x it is part
        of D).  Transposed, as the fold F over all stored rows has
        F^T = Mw F Mw^-1: Mw times the fold of x / Mw without its d = 0 term,
        plus |dv|^T times the whole fold at the slots (0.5 Mw = 1 there).
        """
        rows, slots, nx = cells.rows, cells.slots, x.shape[1]
        h = np.zeros((self._rows, len(cells.cols)))
        centre = np.zeros_like(h)
        if transpose:
            mw = np.where(rows == 0, 1.0, 2.0)[:, None]
            h[rows, :nx] = x / mw
            out = product(h, centre)
            s0 = cells.stacked[: len(cells.cols)]  # the stacked S_d start at d = 0
            out[slots] += np.einsum("kj,jk->k", h[slots[0]], s0[:, slots[1]])
            out = mw * out[rows, :nx] + (cells.dv.T @ out[slots]).reshape(x.shape)
        else:
            centre[slots] = 0.5 * (cells.dv @ x.ravel())
            h[rows, :nx] = x
            out = product(h + centre, centre)[rows, :nx]
        out[~cells.mask] = 0.0
        return out

    def _neumann(self, b: np.ndarray, cells, weight: np.ndarray | None = None,
                 gain: float = 0.0) -> np.ndarray:
        """Solve Lop x = b on the grid of the block `cells` by x <- x + D^-1 (b - Lop x).

        b is scaled by the power of two at its largest entry, which is
        exact.  The sweeps stop when every component moves by less than one
        ulp of itself, or when the largest componentwise-relative update
        stops decreasing at or below _STALL_LEVEL.  Given weights v on the
        grid, they also stop at the first sweep with gain ||v dx|| <= ||v x||
        in the 2-norm, for a caller that reads v x to that accuracy only
        (`_krylov`); so no solve runs past the componentwise stop.  v |x| is
        formed at the scale of the returned x, where its squares stay normal:
        at the scale of b the weights e^+-391 of L = 1024 make them underflow.
        A zero b returns zero; a non-finite iterate returns at once.  An
        update that grows above roundoff, or _MAX_SWEEPS sweeps, raise
        ResonantSolveError.  The caller has run `factorize`; D^-1 on the grid
        is its sub-block, as D_l is block diagonal over the mode components.
        """
        peak = float(np.max(np.abs(b)))
        if peak == 0.0:
            return np.zeros_like(b)
        inverse = self._inverse[np.ix_(cells.rows, cells.modes, cells.modes)]
        scale = np.ldexp(1.0, np.frexp(peak)[1])
        b, product, tiny = b / scale, self._product(cells), np.finfo(float).tiny
        # the update and the iterate side by side: one abs and one max serve both
        state, mag = np.zeros((2, *b.shape)), np.empty((2, *b.shape))
        (dx, x), (moved, size) = state, mag
        weighted = None if weight is None else np.empty_like(mag)
        prev_rel = prev_top = np.inf
        for sweep in range(1, _MAX_SWEEPS + 1):
            r = b - self._apply(x, cells, product) if sweep > 1 else b
            np.matmul(inverse, r[:, :, None], out=dx[:, :, None])
            x += dx
            self.sweeps += 1
            np.abs(state, out=mag)
            top, largest = mag.max(axis=(1, 2))  # NaN or inf when x is not finite
            if not math.isfinite(largest):
                return x
            if np.all(moved < np.spacing(size)):
                return x * scale
            if top > prev_top and top > _SETTLED * largest:
                raise ResonantSolveError(f"Neumann update grows at L_n={self.L}, "
                                         f"sweep {sweep} ({prev_top:.3e} -> {top:.3e})")
            if weighted is not None:
                np.multiply(mag, scale, out=weighted)
                weighted *= weight
                moved_sq, size_sq = np.einsum("kij,kij->k", weighted, weighted)
                if gain * gain * moved_sq <= size_sq:
                    return x * scale
            # subnormal components carry no relative accuracy
            normal = size >= tiny
            rel = float(np.divide(moved, size, out=np.zeros_like(size), where=normal).max())
            if prev_rel <= rel <= _STALL_LEVEL:
                return x * scale
            prev_rel, prev_top = rel, top
        raise ResonantSolveError(f"Neumann iteration at L_n={self.L} did not settle "
                                 f"by sweep {_MAX_SWEEPS}")

    def solve(self, rhs: CoeffField) -> CoeffField:
        """Lop^-1 rhs by the Neumann iteration of the splitting D - eps M, block by block.

        Lop is block diagonal under `_partition`, so `_neumann` runs only on
        the blocks where rhs has a nonzero entry (marked in `solved`): on the
        others the solution is zero, as `_neumann` returns for a zero rhs.  A
        non-finite entry anywhere in rhs gives an all-NaN solution.
        """
        if not self.lattice.in_lattice_support(rhs):
            raise ValueError("right-hand side has support outside the range truncation")
        self.factorize()
        lat, b = self.lattice, self.lattice.to_grid(rhs)
        if not np.all(np.isfinite(b)):
            return CoeffField(np.full_like(b, np.nan))
        x = np.zeros_like(b)
        for idx in self._partition:
            if b[lat.ells[idx], lat.js[idx]].any():
                cells = self._cells(idx)
                sub = np.ix_(cells.rows, cells.modes)
                part = self._neumann(np.where(cells.mask, b[sub], 0.0), cells)
                x[sub] = np.where(cells.mask, part, x[sub])
                self.solved[idx] = True
        return CoeffField(x)

    @cached_property
    def _partition(self) -> list[np.ndarray]:
        """Ascending index sets of decoupled blocks of Lop, found without forming it, once.

        The product by b couples (l, j) to (l', j') through S_|l-l'| and
        S_l+l' at [j, j'], so only within one class {+-l mod step} of the
        live S_d (l alone when only S_0 is live) and one component of the
        graph of their union on the modes; M2 joins the cell (class,
        component) of kernel slot (j'' + 1, j'') to those of the support of
        row j'' of dv_matrix.  A branch has 6 to 10 blocks.
        """
        lat, n, size = self.lattice, self.lattice.size, self.stack.shape[1]
        step = self._step if len(self._stacked) > size else 2 * self._rows
        reach = (self.stack[: 2 * self._rows - 1] != 0.0).any(axis=0) | np.eye(size, dtype=bool)
        # paths of up to size steps in the graph of the modes that S_d couples:
        # comp is the lowest mode of each mode's component
        comp = np.linalg.matrix_power(reach | reach.T, size).argmax(axis=1)
        ell = np.append(lat.ells, self._kernel_slots[0])  # the lattice, then the kernel slots
        mode = comp[np.append(lat.js, self._kernel_slots[1])]
        cell = np.minimum(ell % step, -ell % step) * size + mode
        label = np.arange(self._rows * size)
        for row, s in zip(self._dv_support, cell[n:]):
            joined = label[np.append(cell[:n][row], s)]
            label[np.isin(label, joined)] = joined.min()
        root = label[cell[:n]]
        order = np.argsort(root, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)

    @cached_property
    def _dv_support(self) -> np.ndarray:
        """Where dv_matrix is nonzero: it joins `_partition`'s cells, and gives `_cells` slots."""
        return self.dv_matrix != 0.0

    def _cells(self, idx: np.ndarray):
        """`_Cells` of the lattice points idx, a block of `_partition` or all of them, built once.

        Its rows are those of its residues mod step: d runs over multiples of
        step, so a residue reads only itself and its mirror.  Its columns are
        its modes and the kernel slots that dv_matrix fills from it, whose
        rows dv holds at the points' places on its grid.
        """
        key = idx.tobytes()
        if key in self._cell_cache:
            return self._cell_cache[key]
        lat, step, size = self.lattice, self._step, self.stack.shape[1]
        ells, js = lat.ells[idx], lat.js[idx]
        residue = np.bincount(ells % step, minlength=step) > 0  # np.unique loads numpy.ma
        rows = np.flatnonzero(residue[np.arange(self.L + 1) % step])
        if len(rows) > self.L:  # a cell on every row folds them as one part
            step, residue = 1, residue[:1]
        slots = np.flatnonzero(self._dv_support[:, idx].any(axis=1))
        cols = np.flatnonzero(np.bincount(np.append(js, slots), minlength=size))
        xc = cols[cols <= self.J]
        at = np.searchsorted(rows, ells) * len(xc) + np.searchsorted(xc, js)  # on the grid
        dv = np.zeros((len(slots), len(rows) * len(xc)))
        for row, slot in zip(dv, slots):  # one row at a time: no gathered copy of the block
            row[at] = self.dv_matrix[slot, idx]
        stacked = (self._stacked if len(cols) == size  # on every column: no copy
                   else self._stacked.reshape(-1, size * size).take(
                       (cols[:, None] * size + cols).ravel(), axis=1))  # in C order
        cells = self._cell_cache[key] = _Cells(
            rows, tuple((int(r), step) for r in np.flatnonzero(residue)), cols, xc,
            (slots + 1, np.searchsorted(cols, slots)), dv, self._symbol[np.ix_(rows, xc)],
            (np.bincount(at, minlength=dv.shape[1]) > 0).reshape(len(rows), -1),
            stacked.reshape(-1, len(cols)))
        return cells

    def _upper_end(self, wg: np.ndarray, blocks: list[np.ndarray]):
        """Upper bounds on each block's ||B_b|| from the paper's splitting, their K and F.

        With T = eps W D^-1 M W^-1, B = sum_{k<K} T^k W D^-1 W^-1 + T^K B, so
        ||B|| <= ||sum_{k<K} T^k W D^-1 W^-1|| / (1 - ||T^K||).  Both norms
        are bounded by the Schur test sqrt(||X||_1 ||X||_inf) on majorants
        through A = eps |D^-1| |M| (`_majorant` on the lattice's `_cells`;
        |D^-1| made symmetric), as |T|^k <= W A^k W^-1: rows W A^k W^-1 1,
        columns W^-1 (A^T)^k W 1, for wg the weights (ones off the lattice).
        K is the first k <= _MAX_TERMS with ||T^k|| <= 1/2 (else 0, and every
        bound is inf).  _UPPER_MARGIN covers the rounding of these nonnegative
        sums (an underflow drops at most 2^-1074 w_i from row i); D^-1 is
        taken as `factorize` rounded it.  A has M's block-diagonal support, so
        the sums on a block b bound ||B_b|| (inf for a NaN), and their largest
        ||B||.  With s_k the Schur value at k, every power T^(jK + i), i = 1..K,
        has norm at most s_K^j s_i, so sum_{k>=1} ||T^k|| <= F = (s_1 + ... +
        s_K) / (1 - s_K): after a Neumann sweep on any block, the rest of the
        series is at most F ||W dx|| (F = inf when no K qualifies).
        """
        cells = self._cells(np.arange(self.lattice.size))
        mask, cols, tiny = cells.mask, cells.cols, np.finfo(float).tiny
        stacked = np.abs(self.stack[self._fold][:, cols[:, None], cols]).reshape(-1, len(cols))
        stacked[(stacked > 0.0) & (stacked < tiny)] = tiny  # which `_stacked` flushes to 0
        cells = cells._replace(stacked=stacked, dv=np.abs(cells.dv))
        dinv, product = np.abs(self._inverse), self._product(cells)
        dinv = np.maximum(dinv, dinv.transpose(0, 2, 1))

        def d(v):
            return (dinv @ v[:, :, None])[:, :, 0]

        def a(v):
            return self.eps * d(self._majorant(v, cells, False, product))
        row_t = np.where(mask, 1.0 / wg, 0.0)                # A^k W^-1 1
        row_p, col = d(row_t), np.where(mask, wg, 0.0)       # A^k |D^-1| W^-1 1, (A^T)^k W 1
        sum_rows = sum_cols = tail = 0.0
        for k in range(1, _MAX_TERMS + 1):
            col_p = d(col)
            sum_rows, sum_cols = sum_rows + row_p, sum_cols + col_p
            row_t, col = a(row_t), self.eps * self._majorant(col_p, cells, True, product)
            s = np.sqrt((wg * row_t).max() * (col / wg).max())
            tail += s
            if s <= 0.5:
                r, c = (wg * sum_rows)[mask], (sum_cols / wg)[mask]  # zero off the lattice
                ends = np.sqrt([r[b].max() * c[b].max() for b in blocks]) / (1.0 - s)
                return np.fmin(np.inf, ends * _UPPER_MARGIN), k, float(tail / (1.0 - s))
            row_p = a(row_p)
        return np.full(len(blocks), np.inf), 0, np.inf

    def _krylov(self, idx: np.ndarray, start: np.ndarray, wg: np.ndarray, tail: float):
        """Golub-Kahan (Lanczos) estimate of ||B_b|| on the block idx (`_cells`) from grid start.

        Step k solves for y_k = B q_k, q_1 the normalized start on the block
        and q_k+1 B^T y_k orthogonalized twice against q_1..q_k (classical
        Gram-Schmidt), and estimates sigma_max(y_1..y_k) from their Gram
        matrix; B^T = (Mw / W) Lop^-1 (W / Mw) by Lop^T = Mw Lop Mw^-1
        (`_apply`).  As ||B Q|| <= ||B_b||, it is a lower bound up to the
        rounding of the solves, never decreasing in k.  It stops at a change
        of at most 1e-14 relative or after min(_MAX_KRYLOV_STEPS, unknowns)
        steps, added to `power_steps`.  Returns it and c Q on the grid, c the
        top eigenvector of the Gram matrix.

        Each solve stops at the accuracy its role needs, or at the
        componentwise stop if that comes first (`_neumann`).  A forward solve
        stops at F ||W dx|| <= u ||W x||, u = 2^-52 and F = tail, `_upper_end`'s
        bound on the rest of the Neumann series for the weights wg (inf: no
        such stop): each y_k is then within u ||y_k|| of B q_k, so
        sigma_max(Y) moves by O(u) ||Y|| (Weyl).  An adjoint solve only picks
        the next direction, and stops at sqrt(u) relative in its own weights
        Mw / W: Gram-Schmidt, twice, keeps Q orthonormal whatever the
        direction's error d, so the estimate stays a lower bound, and d moves
        the next Ritz value by O(d^2) = O(u) (Parlett, The Symmetric
        Eigenvalue Problem, ch. 11).
        """
        cells = self._cells(idx)
        sub, shape = np.ix_(cells.rows, cells.modes), cells.mask.shape
        wg = np.where(cells.mask, wg[sub], 1.0)
        wm = wg / np.where(cells.rows == 0, 1.0, 2.0)[:, None]  # w / Mw
        forward = (wg, tail / _UNIT_ROUNDOFF) if tail < np.inf else ()
        adjoint = (1.0 / wm, 1.0 / _DIRECTION_RTOL)
        q = np.where(cells.mask, start[sub], 0.0).reshape(1, -1)
        q, y = q / np.linalg.norm(q), np.empty((0, q.size))  # rows q_i and B q_i
        est, last = 0.0, min(_MAX_KRYLOV_STEPS, len(idx))
        for step in range(1, last + 1):
            image = wg * self._neumann(q[-1].reshape(shape) / wg, cells, *forward)
            if not np.all(np.isfinite(image)):
                raise ResonantSolveError(f"inverse norm at L_n={self.L}: non-finite image "
                                         f"at Krylov step {step}")
            y = np.vstack([y, image.ravel()])
            prev, est = est, float(np.sqrt(np.linalg.eigvalsh(y @ y.T)[-1]))
            if est - prev <= _POWER_RTOL * est or step == last:
                break
            z = (self._neumann(wm * image, cells, *adjoint) / wm).ravel()  # B^T y_k
            for _ in range(2):  # classical Gram-Schmidt, twice
                z -= q.T @ (q @ z)
            nz = float(np.linalg.norm(z))
            if nz == 0.0:
                break
            q = np.vstack([q, z / nz])
        self.power_steps += step
        top = np.zeros(self.lattice.mask.shape)
        top[sub] = (np.linalg.eigh(y @ y.T)[1][:, -1] @ q).reshape(shape)
        return est, top

    def inverse_norm(self, params: NormParams, *, start: np.ndarray | None = None) -> float:
        """The norm of B = W Lop^-1 W^-1 on the weighted (sigma, s, r) metric, bracketed.

        W = diag(w), w the lattice weights exp(`WLattice.log_weights`) over
        their geometric midpoint; when half their log range passes
        log(1 / tiny), ResonantSolveError names sigma L.  At eps = 0, Lop = D
        is diagonal and the weights cancel: the norm is 1 / min |D|, exact,
        and `upper` holds it too.  Otherwise `upper` holds the largest block
        end of `_upper_end` and `upper_terms` its K, and the lower end returned
        is the largest `_krylov` estimate over the blocks of `_partition`,
        taken in descending order of their ends until the next is at most the
        estimate: a block left out has ||B_b|| <= its end <= the estimate, and
        the Krylov solves, given F, stop at the accuracy the estimate reads.  Each
        block starts from its part of the normalized start plus _WARM_UNIFORM
        = 1e-7 times the uniform vector, a direction error whose effect on
        the estimate is O(1e-14).  `start` is a grid of shape (L' + 1, J + 1),
        L' <= L, padded with zero rows: a previous stage's `top_vector` cuts the
        steps.  Without one it is the top right singular vector of the per-l
        blocks of W D^-1 W^-1 (B at eps = 0), which halves the steps on m = 0.
        `top_vector` is that of the estimate's block (unit norm, on the
        (L + 1, J + 1) grid), or the unit vector at the smallest |D|.  A
        singular or non-finite operator raises ResonantSolveError.
        """
        self.factorize()
        lat = self.lattice
        # B is unchanged by a scalar on W: weights centred in log space, and
        # their reciprocals, stay normal doubles while sigma L is below about 1400
        logw = lat.log_weights(params)
        half = 0.5 * float(logw.max() - logw.min())
        if not half < -np.log(np.finfo(float).tiny):
            raise ResonantSolveError(f"inverse norm at L_n={self.L}: sigma L = "
                                     f"{params.sigma * self.L:.1f} puts the weights beyond the "
                                     f"double range (e^+-{half:.0f} about their midpoint)")
        wg = np.ones(lat.mask.shape)
        wg[lat.ells, lat.js] = np.exp(logw - 0.5 * (logw.max() + logw.min()))
        self.power_steps = self.krylov_block = self.upper_terms = 0
        self.top_vector = np.zeros_like(wg)
        if self.eps == 0.0:
            d = np.abs(self.symbol_diagonal())
            k = int(np.argmin(d))
            top = float(1.0 / d[k])
            if not max(float(d.max()), 1.0) * top <= 1e300:  # also catches a NaN
                raise ResonantSolveError(_SINGULAR)
            self.upper, self.upper_terms = top, 1
            self.top_vector[lat.ells[k], lat.js[k]] = 1.0
            return top
        blocks = self._partition
        ends, self.upper_terms, tail = self._upper_end(wg, blocks)
        self.upper = float(ends.max())
        if start is None:  # the top right singular vector of W D^-1 W^-1, which is B at eps = 0
            dw = wg[:, :, None] * self._inverse / wg[:, None, :]
            dw[~(lat.mask[:, :, None] & lat.mask[:, None, :] & np.isfinite(dw))] = 0.0
            lam, vec = np.linalg.eigh(dw.transpose(0, 2, 1) @ dw)
            row, start = int(np.argmax(lam[:, -1])), np.zeros_like(wg)
            start[row] = vec[row, :, -1]
        q = np.where(lat.mask, _WARM_UNIFORM / np.sqrt(lat.size), 0.0)
        q[: len(start)] += np.where(lat.mask[: len(start)], start, 0.0) / np.linalg.norm(start)
        est = 0.0
        for k in np.argsort(-ends, kind="stable"):
            if ends[k] <= est:
                break
            value, top = self._krylov(blocks[k], q, wg, tail)
            if value > est:
                est, self.krylov_block, self.top_vector = value, len(blocks[k]), top
        return est


def assemble_linearized(eps: float, w: CoeffField, kernel: KernelField, L_n: int,
                        J_max: int) -> LinearizedOperator:
    """Build the linearized operator at the state v + w on the (L_n, J_max) lattice.

    The caller solves the kernel v = v(w) on its own branch.  q = (v + w)^2
    is formed once, and one S_d stack of b = 3 q, one S_d per time row of q,
    serves the product by b and the kernel derivative dv.
    """
    lattice = WLattice(L_n, J_max)
    u = total_field(kernel, w)
    q = field_multiply(u, u)
    n_k = kernel.J + 1
    stack = sb.multiplication_matrix(3.0 * q.u, max(J_max + 1, n_k))
    dv = kernel_derivative_matrix(stack, n_k, lattice.ells, lattice.js)
    return LinearizedOperator(eps=eps, lattice=lattice, u=u, q=q, stack=stack, dv_matrix=dv)


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
        write_csv(path, ["ell", "alpha", "j_min", "floor", "ok"],
                  ([int(ell), repr(float(a)), int(j), repr(float(fl)), int(ok)]
                   for ell, a, j, fl, ok in zip(self.ells, self.alpha, self.j_min,
                                                self.floor, self.ok)))


def _divisor_report(eps: float, gamma: float, tau: float, ells: np.ndarray,
                    alpha: np.ndarray, j_min: np.ndarray) -> DivisorReport:
    """Attach the admissibility floor gamma / (20 max(l, 1)^(tau - 1)) to alpha_l."""
    floor = gamma / (20.0 * np.maximum(np.abs(ells), 1) ** (tau - 1.0))
    return DivisorReport(eps=eps, gamma=gamma, tau=tau, ells=ells, alpha=alpha,
                         j_min=j_min, floor=floor, ok=alpha >= floor)


def _eps_band(eps: float, b0: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """eps B on n modes, band[d, i] = eps B[i, i + d] (zero past the matrix), and its radius e.

    The band ends at the spatial support of b0.  By Weyl's theorem every
    eigenvalue of a block lies within e = |eps| (largest absolute row sum of
    B) of its label's centre (kappa + 1)^2; when neighbouring intervals
    overlap, ResonantSolveError is raised.
    """
    b0 = np.asarray(b0, dtype=float)
    support = np.flatnonzero(b0)
    bw = min(int(support[-1]), n - 1) if eps != 0.0 and len(support) else 0
    d = np.arange(bw + 1)[:, None]
    band = np.where(np.arange(n) + d < n, eps * sb.diagonal_sums(b0, n, bw + 1), 0.0)
    # every row of B has one entry on the main diagonal and two on each other
    spread = float(np.abs(band).max(axis=1) @ np.where(d[:, 0] == 0, 1.0, 2.0))
    if n > 1 and 2.0 * spread >= 3.0:  # the closest centres, 1 and 4, are 3 apart
        raise ResonantSolveError(f"||eps B|| <= {spread:.3e} does not separate the "
                                 "eigenvalues of neighbouring modes")
    return band, spread


def _centre(lab: np.ndarray, shift: np.ndarray, n: int) -> np.ndarray:
    """(lab + 1)^2 - shift, the middle of lab's Weyl interval; -+inf off the n modes."""
    return np.where(lab < 0, -np.inf, np.where(lab >= n, np.inf, (lab + 1.0) ** 2 - shift[:, None]))


def _beyond(lab: np.ndarray, step: int, deleted: np.ndarray) -> np.ndarray:
    """The next label of the block past lab in the direction of step."""
    return np.where(lab + step == deleted[:, None], lab + 2 * step, lab + step)


def _window(target: np.ndarray, shift: np.ndarray, deleted: np.ndarray, start: np.ndarray,
            size: int, band: np.ndarray, spread: float):
    """The block's eigenvalues near shift + target, from one window of modes per row.

    Row r's window is the modes start[r] .. start[r] + size - 1 of
    omega_j^2 + eps B (`_eps_band`); its deleted mode, when inside, stays as
    a decoupled row at its own diagonal, and that eigenvalue is dropped.
    The windows are shifted by shift[r], an exact square, and diagonalized
    in one stacked eigh; as the Weyl intervals are disjoint, the ascending
    eigenvalues belong to the ascending labels.  For the eigenvalue nearest
    target and two places on either side (clipped; column 2 is the nearest)
    returns the labels, whether each is kept, the Rayleigh quotients rho in
    the block (shifted), and bounds on the distance from rho to the block's
    eigenvalue of that label: ||r||^2 / delta, or inf where ||r|| >= delta.
    """
    bw, n = band.shape[0] - 1, band.shape[1]
    p = np.arange(size)
    labels = start[:, None] + p
    keep = labels != deleted[:, None]
    # wide[d, bw + i] = eps B[i, i + d]: zero for d > bw and for i < 0
    wide = np.zeros((bw + size, bw + n))
    wide[: bw + 1, bw:] = band

    def gather(a, b):
        """eps B[start + a, start + b] for every row, by flat index into wide."""
        at = np.abs(a[:, None] - b) * (bw + n) + bw + np.minimum.outer(a, b)
        return np.take(wide, at + start[:, None, None])
    win = gather(p, p)
    win *= keep[:, :, None] & keep[:, None, :]
    win[:, p, p] += _centre(labels, shift, n)
    mu, vec = np.linalg.eigh(win)
    # Only the eigenvalue nearest target and its kept neighbours (two places
    # away across the deleted mode) can be the block's nearest.  Each of their
    # vectors x, padded with zeros, has the Rayleigh quotient rho in the
    # block and leaves the residual (W - rho) x in the window and
    # eps B[out, window] x on the rows out within bw of it
    rows = np.arange(len(target))[:, None]
    sel = np.argmin(np.where(keep, np.abs(target[:, None] - mu), np.inf), axis=1)
    sel = np.clip(sel[:, None] + np.arange(-2, 3), 0, size - 1)
    x = np.take_along_axis(vec, sel[:, None, :], axis=2)
    wx = win @ x
    xx = np.einsum("rpk,rpk->rk", x, x)
    rho = np.einsum("rpk,rpk->rk", x, wx) / xx
    out = np.concatenate([np.arange(-bw, 0), np.arange(size, size + bw)])
    live = (start[:, None] + out >= 0) & (start[:, None] + out < n)
    live &= start[:, None] + out != deleted[:, None]
    coupling = gather(out, p)
    coupling *= live[:, :, None] & keep[:, None, :]
    resid = np.sqrt((np.sum((wx - rho[:, None, :] * x) ** 2, axis=1)
                     + np.sum((coupling @ x) ** 2, axis=1)) / xx)
    # Weyl puts the block's eigenvalue of each label within `spread` of the
    # label's centre.  With delta the distance from rho to the other labels'
    # intervals and ||r|| < delta, the eigenvalue of x's label is within
    # ||r||^2 / delta of rho (Parlett, The Symmetric Eigenvalue Problem, 11.7)
    lab = labels[rows, sel]
    delta = np.minimum(rho - _centre(_beyond(lab, -1, deleted), shift, n),
                       _centre(_beyond(lab, 1, deleted), shift, n) - rho) - spread
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(resid < delta, resid ** 2 / delta, np.inf)
    return lab, keep[rows, sel], rho, slack


def _widen(nearest: np.ndarray, n: int, solve) -> None:
    """Call solve(rows, start, size) on windows of half-width 4, 8, 16, ... until all rows settle.

    Row r's window holds `size` of the n modes around label nearest[r];
    solve returns which of the rows settled, and must settle a window of all
    n modes.
    """
    rows, half = np.arange(len(nearest)), 4
    while len(rows):
        size = min(2 * half + 1, n)
        start = np.clip(nearest[rows] - half, 0, n - size)
        rows, half = rows[~solve(rows, start, size)], 2 * half


def divisor_table(eps: float, b0: np.ndarray, L_n: int, J_max: int, gamma: float,
                  tau: float) -> DivisorReport:
    """Divisor report over l = 0..L_n from windows of the modes near omega^2 l^2.

    Block l is M = omega_j^2 + eps B (j <= J_max) with the row and column of
    e_{l-1} deleted; its eigenvalue of label kappa lies in the Weyl interval
    of radius e around (kappa + 1)^2 (`_eps_band`).  Row l diagonalizes a
    window around the label nearest omega^2 l^2, shifted by its square
    (`_window`), and reports alpha_l as the smallest lower bound of
    |omega^2 l^2 - lambda| over the labels: at a window eigenvalue rho,
    |omega^2 l^2 - rho| minus its residual bound, elsewhere the distance to
    the Weyl interval.  So alpha_l never exceeds the exact divisor beyond
    the roundoff of the window solve.  The window widens (`_widen`) until
    the bound takes at most one ulp of max(omega^2 l^2, 1) from the window's
    own divisor.  j_min is the label of the chosen eigenvalue, as in
    `block_spectrum`.
    """
    n = J_max + 1
    band, spread = _eps_band(eps, b0, n)
    ells = np.arange(L_n + 1)
    t = (1.0 + eps) * ells ** 2.0
    deleted = np.where(ells <= n, ells - 1, -1)
    nearest = np.clip(np.rint(np.sqrt(t)).astype(int) - 1, 0, n - 1)
    shift = (nearest + 1.0) ** 2
    alpha, j_min = np.empty(L_n + 1), np.empty(L_n + 1, dtype=int)

    def solve(rows, start, size):
        sh, dl = shift[rows], deleted[rows]
        lab, kept, rho, slack = _window(t[rows] - sh, sh, dl, start, size, band, spread)
        target = (t[rows] - sh)[:, None]
        gap = np.abs(target - rho)
        near = np.maximum(gap - slack, np.abs(target - _centre(lab, sh, n)) - spread)
        # t lies between the intervals next to the chosen labels, so the Weyl
        # intervals of the nearest other label below and above bound the rest
        outer = np.column_stack([_beyond(lab[:, :1], -1, dl), _beyond(lab[:, -1:], 1, dl)])
        bound = np.column_stack([np.where(kept, near, np.inf),
                                 np.abs(target - _centre(outer, sh, n)) - spread])
        pick = (np.arange(len(rows)), np.argmin(bound, axis=1))
        a, k = np.maximum(bound[pick], 0.0), np.column_stack([lab, outer])[pick]
        raw = np.where(kept, gap, np.inf).min(axis=1)
        settled = (raw - a <= np.spacing(np.maximum(t[rows], 1.0))) | (size == n)
        alpha[rows[settled]], j_min[rows[settled]] = a[settled], k[settled]
        return settled
    _widen(nearest, n, solve)
    return _divisor_report(eps, gamma, tau, ells, alpha, j_min)


def block_spectrum(eps: float, b0: np.ndarray, ell: int,
                   J_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of block l, omega_j^2 + eps B (j <= J_max, j != |l| - 1), with their bounds.

    One window per kept label j, shifted by (j + 1)^2 (`_window`): by Weyl's
    theorem the label's eigenvalue is within e of (j + 1)^2 and every other
    label's at least 3 - e > e away (`_eps_band`), so it is the window
    eigenvalue nearest (j + 1)^2.  With rho its Rayleigh quotient in the
    block, lambda = (j + 1)^2 + rho, and `bound` bounds |lambda - lambda_l,j|
    up to the roundoff of the window solve and of that sum.  The window
    widens as in `divisor_table` until the bound is at most one ulp of
    max(lambda, 1).  Returns the kept labels (ascending), lambda and bound.
    """
    n = J_max + 1
    band, spread = _eps_band(eps, b0, n)
    js = np.arange(n)
    js = js[js != abs(ell) - 1]
    shift = (js + 1.0) ** 2
    deleted = np.full(len(js), abs(ell) - 1)
    lam, bound = np.empty(len(js)), np.empty(len(js))

    def solve(rows, start, size):
        _, _, rho, slack = _window(np.zeros(len(rows)), shift[rows], deleted[rows], start, size,
                                   band, spread)
        value, slack = shift[rows] + rho[:, 2], slack[:, 2]
        settled = (slack <= np.spacing(np.maximum(value, 1.0))) | (size == n)
        lam[rows[settled]], bound[rows[settled]] = value[settled], slack[settled]
        return settled
    _widen(js, n, solve)
    return js, lam, bound


def spectrum_to_csv(blocks, path) -> None:
    """spectrum.csv from (l, labels, lambda, bound) per block (`block_spectrum`)."""
    write_csv(path, ["ell", "j", "lambda", "bound"],
              ([ell, int(j), repr(float(lam)), repr(float(b))] for ell, js, lams, bounds in blocks
               for j, lam, b in zip(js, lams, bounds)))
