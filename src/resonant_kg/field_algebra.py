"""Space-time coefficient fields, norms, products and projectors.

A field stores the coefficients of an even, real, 2*pi time-periodic function
with values in the spherically symmetric sector of the sphere:

    u(t, x) = u[0] + 2 * sum_{l >= 1} cos(l t) u_l(x),
    u_l(x)  = sum_j u[l, j] e_j(x),

one row per time frequency l = 0..L ("cos-halfline" convention: the stored
row l stands for both exponential frequencies +l and -l, so the l = 0 row is
counted once and every l >= 1 row twice).  The weighted norm

    ||u||_{sigma,s,r}^2 = sum_l m_l e^(2 sigma l) <l>^(2s) sum_j u[l,j]^2 omega_j^(2r)

(m_0 = 1, m_l = 2 for l >= 1, <l> = max(1, l)) measures analyticity in time
(sigma), time Sobolev regularity (s) and space Sobolev regularity (r).

Products are exact coefficient-space convolutions: cosine convolution in time
composed with the eigenbasis product rule in space, over only the time rows
(one common stride) and space columns that the operands occupy; a skipped
term is a product with an exact zero.  No transforms are used, so
coefficients far below machine epsilon relative to the field's largest entry
remain meaningful.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import spherical_basis as sb

__all__ = [
    "NormParams",
    "CoeffField",
    "CheckResult",
    "field_multiply",
    "mult_matrix_stack",
    "fold_entries",
    "project_kernel",
    "project_range",
    "time_cutoff",
    "zero_resonant_mode",
    "smoothing_bound_check",
    "sobolev_trade_check",
    "save_field",
    "load_field",
    "field_to_csv",
]

_MAGIC = b"RKGF"


@dataclass(frozen=True)
class NormParams:
    """Norm indices (sigma, s, r); the default r = 2 is the working space."""

    sigma: float
    s: float
    r: float = 2.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("analyticity width sigma must be >= 0")


class CoeffField:
    """Dense (L+1, J+1) array of cosine-in-time x e_j-in-space coefficients."""

    __slots__ = ("u",)

    def __init__(self, u: np.ndarray):
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise ValueError("coefficient array must be 2-D (time x space)")
        self.u = u

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, L: int, J: int) -> "CoeffField":
        return cls(np.zeros((L + 1, J + 1)))

    @classmethod
    def from_mode(cls, ell: int, j: int, value: float = 1.0,
                  L: int | None = None, J: int | None = None) -> "CoeffField":
        L = ell if L is None else L
        J = j if J is None else J
        f = cls.zeros(L, J)
        f.u[ell, j] = value
        return f

    # -- shape bookkeeping ---------------------------------------------------

    @property
    def L(self) -> int:
        return self.u.shape[0] - 1

    @property
    def J(self) -> int:
        return self.u.shape[1] - 1

    def copy(self) -> "CoeffField":
        return CoeffField(self.u.copy())

    def padded(self, L: int, J: int) -> "CoeffField":
        """Zero-pad (never truncates) to at least (L+1, J+1)."""
        L = max(L, self.L)
        J = max(J, self.J)
        out = np.zeros((L + 1, J + 1))
        out[: self.L + 1, : self.J + 1] = self.u
        return CoeffField(out)

    def truncate(self, L: int, J: int, params: NormParams):
        """Truncate to (L, J); returns (field, norm of the discarded part)."""
        keep = self.u[: L + 1, : J + 1].copy()
        rest = self.u.copy()
        rest[: L + 1, : J + 1] = 0.0
        return CoeffField(keep), CoeffField(rest).norm(params)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "CoeffField") -> "CoeffField":
        L, J = max(self.L, other.L), max(self.J, other.J)
        return CoeffField(self.padded(L, J).u + other.padded(L, J).u)

    def __sub__(self, other: "CoeffField") -> "CoeffField":
        L, J = max(self.L, other.L), max(self.J, other.J)
        return CoeffField(self.padded(L, J).u - other.padded(L, J).u)

    def __mul__(self, scalar: float) -> "CoeffField":
        return CoeffField(self.u * float(scalar))

    __rmul__ = __mul__

    # -- norms ---------------------------------------------------------------

    def _log_time_weights(self, params: NormParams):
        """log of the squared time weights m_l e^(2 sigma l) <l>^(2s)."""
        ell = np.arange(self.L + 1, dtype=float)
        logw = 2.0 * params.sigma * ell + 2.0 * params.s * np.log(np.maximum(ell, 1.0))
        logw += np.where(ell == 0, 0.0, np.log(2.0))
        return logw

    def norm(self, params: NormParams) -> float:
        """Weighted norm, accumulated in log space.

        The time weights e^(2 sigma l) overflow double precision well before
        the weighted coefficients do (deep truncations carry rows far below
        1e-300), so each row's contribution is combined as
        exp(log weight + log row sum).
        """
        wj = (np.arange(self.J + 1, dtype=float) + 1.0) ** (2.0 * params.r)
        rmax = np.max(np.abs(self.u), axis=1)
        mask = rmax != 0.0  # keeps NaN rows, so a non-finite field has a NaN norm
        if not mask.any():
            return 0.0
        with np.errstate(invalid="ignore"):  # a NaN or inf row gives the documented NaN norm
            scaled = self.u[mask] / rmax[mask, None]  # rescale so squaring cannot underflow
        row_sq = (scaled * scaled) @ wj
        t = (self._log_time_weights(params)[mask] + 2.0 * np.log(rmax[mask])
             + np.log(row_sq))
        peak = float(t.max())
        return float(np.exp(0.5 * (peak + np.log(np.sum(np.exp(t - peak))))))

    def inner(self, other: "CoeffField", params: NormParams) -> float:
        L, J = max(self.L, other.L), max(self.J, other.J)
        a, b = self.padded(L, J), other.padded(L, J)
        wj = (np.arange(J + 1, dtype=float) + 1.0) ** (2.0 * params.r)
        rows = (a.u * b.u) @ wj
        mask = rows != 0.0
        if not mask.any():
            return 0.0
        return float(np.sum(np.exp(a._log_time_weights(params)[mask]) * rows[mask]))

    # -- diagonal symbols ----------------------------------------------------

    def dtt(self) -> "CoeffField":
        """Second time derivative: entry (l, j) multiplied by -l^2."""
        ell2 = np.arange(self.L + 1, dtype=float) ** 2
        return CoeffField(-ell2[:, None] * self.u)

    def apply_A(self) -> "CoeffField":
        """-Laplacian + 1: entry (l, j) multiplied by omega_j^2."""
        wj2 = (np.arange(self.J + 1, dtype=float) + 1.0) ** 2
        return CoeffField(wj2[None, :] * self.u)

    def apply_wave_symbol(self, omega: float) -> "CoeffField":
        """-omega^2 d_tt - A: entry (l, j) multiplied by omega^2 l^2 - omega_j^2."""
        ell2 = np.arange(self.L + 1, dtype=float) ** 2
        wj2 = (np.arange(self.J + 1, dtype=float) + 1.0) ** 2
        return CoeffField((omega * omega * ell2[:, None] - wj2[None, :]) * self.u)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Pointwise values on the tensor grid, shape (len(t), len(x))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        doubling = np.where(np.arange(self.L + 1) == 0, 1.0, 2.0)
        T = np.cos(np.outer(np.arange(self.L + 1), t))  # (L+1, nt)
        E = sb.evaluate_basis(self.J, x)                # (J+1, nx)
        return T.T @ (doubling[:, None] * self.u) @ E


def _support(u: np.ndarray):
    """Rows and columns of u that hold a nonzero entry (NaN and inf count)."""
    mag = np.abs(u)
    return np.flatnonzero(mag.max(axis=1) != 0.0), np.flatnonzero(mag.max(axis=0) != 0.0)


def field_multiply(a: CoeffField, b: CoeffField) -> CoeffField:
    """Exact pointwise product; result truncations L_a + L_b, J_a + J_b.

    Only the rows and columns that the operands occupy, read from the data,
    are multiplied.  Time: the nonzero rows, mirrored to +-l, lie on
    progressions of one stride s, the gcd of all their offsets (2 omega_m on
    the branch of mode m, 1 for a generic field); one batched matmul over
    sliding windows convolves the two progressions, and the rows l >= 0 are
    scattered out.  Space: the pair blocks of the nonzero columns go through
    their rows of the cached spherical_basis.product_rule in one matmul.
    "Exact" means no transform and no quadrature: every skipped term, and
    every term of the windows' zero padding, is a product with an exact
    zero, so each output is the plain sum of its own nonzero products and
    entries far below the field's largest keep their value; only the
    summation order is the matmul's.
    """
    La, Ja, Lb, Jb = a.L, a.J, b.L, b.J
    out = np.zeros((La + Lb + 1, Ja + Jb + 1))
    (ra, ca), (rb, cb) = _support(a.u), _support(b.u)
    if len(ra) == 0 or len(rb) == 0:
        return CoeffField(out)
    # offsets of the mirrored rows from their first, -r[-1], in both operands
    offsets = np.concatenate([ra[-1] - ra, ra[-1] + ra, rb[-1] - rb, rb[-1] + rb])
    s = max(int(np.gcd.reduce(offsets)), 1)
    A = a.u[np.abs(np.arange(-ra[-1], ra[-1] + 1, s))][:, ca]
    B = b.u[np.abs(np.arange(-rb[-1], rb[-1] + 1, s))][:, cb]
    na, nb, top = len(A), len(B), ra[-1] + rb[-1]  # output frequencies -top + s n
    n0 = -(-top // s)  # the first n with -top + s n >= 0
    # window k = pad[k : k + na] holds B's rows n - i against A's rows i
    # (ascending, the order of the sums) for n = na + nb - 2 - k
    pad = np.zeros((nb + 2 * na - 2, len(cb)))
    pad[na - 1 : na - 1 + nb] = B[::-1]
    win = as_strided(pad, (na + nb - 1 - n0, na, len(cb)), pad.strides[:1] + pad.strides)
    pair = (A.T @ win)[::-1]  # (rows kept, A's columns, B's columns)
    rule = sb.product_rule(Ja, Jb)[(ca[:, None] * (Jb + 1) + cb).ravel()]
    out[s * n0 - top : top + 1 : s] = pair.reshape(len(pair), -1) @ rule
    return CoeffField(out)


def mult_matrix_stack(q: CoeffField, size: int, dmax: int) -> np.ndarray:
    """Spatial multiplication matrices S_d of the time rows of q, d = 0..dmax.

    Rows beyond q's truncation are zero.  fold_entries reads the product by q
    on stored coefficients from this stack.
    """
    stack = np.zeros((dmax + 1, size, size))
    top = min(dmax, q.L)
    stack[: top + 1] = sb.multiplication_matrix(q.u[: top + 1], size)
    return stack


def fold_entries(stack: np.ndarray, l_out, j_out, l_in, j_in) -> np.ndarray:
    """Entries of the product by q on stored coefficients, gathered from its S_d stack.

    Stored row l stands for the exponential frequencies +l and -l, so the
    coefficient of (l_in, j_in) reaches (l_out, j_out) through
    S_|l_out - l_in| and, for l_in >= 1, through the folded frequency
    S_{l_out + l_in}.  This is the one place the cos-halfline fold is written;
    every dense operator of the product (kernel linearization, kernel
    derivative, range assembly) is this gather of multiplication_matrix
    entries, so its entries are the exact sums of the product rule.  The index
    arguments broadcast against each other; the stack must hold S_d up to
    the largest l_out + l_in.
    """
    folded = np.where(l_in >= 1, stack[l_out + l_in, j_out, j_in], 0.0)
    return stack[np.abs(l_out - l_in), j_out, j_in] + folded


# -- Lyapunov-Schmidt projectors ---------------------------------------------


def _kernel_mask(L: int, J: int) -> np.ndarray:
    """Boolean mask of the resonant diagonal l = omega_j = j + 1."""
    ell = np.arange(L + 1)[:, None]
    j = np.arange(J + 1)[None, :]
    return ell == j + 1


def project_kernel(f: CoeffField) -> CoeffField:
    """Keep exactly the entries with l = omega_j (kernel of -d_tt - A)."""
    out = np.where(_kernel_mask(f.L, f.J), f.u, 0.0)
    return CoeffField(out)


def project_range(f: CoeffField) -> CoeffField:
    """Zero the resonant diagonal l = omega_j (range of -d_tt - A)."""
    out = np.where(_kernel_mask(f.L, f.J), 0.0, f.u)
    return CoeffField(out)


def time_cutoff(f: CoeffField, L_n: int) -> CoeffField:
    """Zero all rows with l > L_n (same shape)."""
    out = f.u.copy()
    out[L_n + 1 :, :] = 0.0
    return CoeffField(out)


def zero_resonant_mode(p: np.ndarray, ell: int) -> np.ndarray:
    """Projector onto the complement of e_{|ell|-1}; identity for ell = 0."""
    p = np.asarray(p, dtype=float).copy()
    ell = abs(int(ell))
    if ell >= 1 and ell - 1 < len(p):
        p[ell - 1] = 0.0
    return p


# -- inequality checks --------------------------------------------------------


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


# -- serialization -------------------------------------------------------------


def save_field(f: CoeffField, path) -> None:
    """Self-describing columnar format: magic, JSON header, row-major f64."""
    header = json.dumps(
        {"L": f.L, "J": f.J, "convention": "cos-halfline", "dtype": "<f8"},
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        fh.write(np.ascontiguousarray(f.u, dtype="<f8").tobytes())


def load_field(path) -> CoeffField:
    """Read a save_field file; ValueError naming the file if it is malformed.

    The header must carry the keys save_field writes, the dtype "<f8" and
    non-negative sizes, and the payload must hold exactly (L+1)(J+1) values.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a coefficient-field file")
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    end = 8 + int(np.frombuffer(raw[4:8], dtype=np.uint32)[0])
    if len(raw) < end:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8:end].decode())
    except ValueError as exc:  # includes UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or not {"L", "J", "convention", "dtype"} <= header.keys():
        raise ValueError(f"{path}: header lacks L, J, convention or dtype")
    if header["convention"] != "cos-halfline":
        raise ValueError(f"{path}: unknown convention {header['convention']!r}")
    if header["dtype"] != "<f8":
        raise ValueError(f"{path}: unsupported dtype {header['dtype']!r}")
    L, J = header["L"], header["J"]
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in (L, J)):
        raise ValueError(f"{path}: sizes L={L!r}, J={J!r} are not non-negative integers")
    expected = 8 * (L + 1) * (J + 1)
    if len(raw) - end != expected:
        raise ValueError(f"{path}: payload holds {len(raw) - end} bytes, "
                         f"expected {expected} for L={L}, J={J}")
    data = np.frombuffer(raw, dtype="<f8", offset=end)
    return CoeffField(data.reshape(L + 1, J + 1).copy())


def field_to_csv(f: CoeffField, path) -> None:
    """(l, j, value) rows for plotting; zeros are skipped."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ell", "j", "value"])
        for ell in range(f.L + 1):
            for j in range(f.J + 1):
                if f.u[ell, j] != 0.0:
                    w.writerow([ell, j, repr(float(f.u[ell, j]))])
