"""Non-resonance conditions, admissible amplitude sets, and measure estimation.

With omega(eps) = sqrt(1 + eps), an amplitude eps is admissible at stage
truncation L when the shifted and plain Melnikov quantities

    f = |omega(eps) l - omega_j - eps M / (2 omega_j)|,    g = |omega(eps) l - omega_j|

stay above gamma / (l + omega_j)^tau for every pair with 1/(3 eps) <= l <= L,
omega_j <= 2 L, l != omega_j.  The limit set uses the doubled threshold
2 gamma / (l + omega_j)^tau with no stage cap; M is the spatial mean of the
time-averaged derivative of the nonlinearity along the solution branch.

The measure scanner estimates how much of (0, eta] the conditions exclude,
both by an exact union of per-pair excluded intervals and by Monte Carlo
sampling of the same condition set.  On binding pairs each f is strictly
monotone in eps with slope >= l/4, so the interval ends are a closed form
and a contracting fixed-point iteration (contraction (M + eps M')/(omega_j l),
at most about 1/2).  The Monte Carlo searches each binding pair's
near-integer window in the sorted samples and evaluates the conditions
pointwise at the candidates, so it shares no end point, iteration or merge
with the union.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .bifurcation import KernelField, total_field
from .field_algebra import CoeffField, field_multiply
from .spherical_basis import mean_integral

__all__ = [
    "ResonanceParams",
    "ConditionRecord",
    "mean_potential",
    "melnikov_mean",
    "check_stage_conditions",
    "check_limit_conditions",
    "strong_diophantine_check",
    "DiophantineResult",
    "MeasureReport",
    "measure_scan",
    "fit_excluded_exponent",
    "records_to_csv",
]


@dataclass(frozen=True)
class ResonanceParams:
    """Melnikov parameters; gamma in (0, 1/6), tau in (1, 2)."""

    gamma: float
    tau: float
    eps0: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0 / 6.0:
            raise ValueError("gamma must lie in (0, 1/6)")
        if not 1.0 < self.tau < 2.0:
            raise ValueError("tau must lie in (1, 2)")
        if not (np.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be positive and finite")


@dataclass(frozen=True)
class ConditionRecord:
    """One (l, j) pair with both Melnikov left-hand sides and the threshold."""

    ell: int
    j: int
    lhs_shifted: float
    lhs_plain: float
    threshold: float
    ok: bool


def melnikov_mean(q: CoeffField) -> float:
    """Spatial mean of the time average of b = 3 q, from q = (v + w)^2.

    The mean is (1/pi) * int_0^pi b0 dx, the version entering the
    small-divisor analysis.
    """
    return float(3.0 * mean_integral(q.u[0]))


def mean_potential(w: CoeffField, v: KernelField) -> float:
    """melnikov_mean of the state u = v + w."""
    u = total_field(v, w)
    return melnikov_mean(field_multiply(u, u))


def _condition_failures(eps: float, mean_value: float, gamma: float, tau: float,
                        ell_max: int, omega_j_max: int, factor: float,
                        strict: bool) -> list[ConditionRecord]:
    """Pairs in [1/(3 eps), ell_max] x [1, omega_j_max] violating the conditions."""
    if eps <= 0.0:
        return []
    ell_lo = int(np.ceil(1.0 / (3.0 * eps)))
    if ell_lo > ell_max:
        return []
    omega = np.sqrt(1.0 + eps)
    ells = np.arange(ell_lo, ell_max + 1)
    wjs = np.arange(1, omega_j_max + 1)
    E, W = np.meshgrid(ells.astype(float), wjs.astype(float), indexing="ij")
    lhs_plain = np.abs(omega * E - W)
    lhs_shift = np.abs(omega * E - W - eps * mean_value / (2.0 * W))
    thr = factor * gamma / (E + W) ** tau
    # a pair passes only when both sides clear the threshold, so NaN fails it
    clears = np.greater if strict else np.greater_equal
    bad = ~(clears(lhs_plain, thr) & clears(lhs_shift, thr))
    bad &= E != W  # l = omega_j pairs are excluded from the conditions
    out = []
    for i, k in zip(*np.nonzero(bad)):
        out.append(ConditionRecord(ell=int(ells[i]), j=int(wjs[k]) - 1,
                                   lhs_shifted=float(lhs_shift[i, k]),
                                   lhs_plain=float(lhs_plain[i, k]),
                                   threshold=float(thr[i, k]),
                                   ok=False))
    return out


def check_stage_conditions(eps: float, mean_value: float, params: ResonanceParams,
                           L_n: int):
    """Stage admissibility: thresholds gamma/(l+omega_j)^tau over l <= L_n, omega_j <= 2 L_n.

    mean_value is the Melnikov mean M.  Returns (ok, failures); vacuously
    true when 1/(3 eps) > L_n.
    """
    failures = _condition_failures(eps, mean_value, params.gamma, params.tau,
                                   L_n, 2 * L_n, factor=1.0, strict=True)
    return len(failures) == 0, failures


def check_limit_conditions(eps: float, mean_value: float, params: ResonanceParams,
                           L_max: int):
    """Limit-set membership up to l <= L_max with the doubled threshold (mean M).

    For l > L_max the conditions follow from the distance of omega(eps) l to
    the integers at this eps window; the cutoff is the caller's to report.
    """
    failures = _condition_failures(eps, mean_value, params.gamma, params.tau,
                                   L_max, 2 * L_max, factor=2.0, strict=False)
    return len(failures) == 0, failures


@dataclass(frozen=True)
class DiophantineResult:
    ok: bool
    ell_max: int
    worst_ell: int
    worst_margin: float

    def __bool__(self) -> bool:
        return self.ok


def strong_diophantine_check(omega: float, gamma: float,
                             ell_max: int = 1000) -> DiophantineResult:
    """Membership in the strongly Diophantine set: |omega l - omega_j| >= gamma/<l>.

    Checked for l <= ell_max; only the integer nearest omega*l can violate,
    since |omega l - omega_j| >= dist(omega l, Z) for all other omega_j.
    gamma = 0 is vacuously true.
    """
    if not 0.5 <= omega <= 2.0:
        raise ValueError("omega must lie in [1/2, 2]")
    worst_ell, worst_margin = 0, np.inf
    ok = True
    for ell in range(1, ell_max + 1):
        x = omega * ell
        cands = {int(np.floor(x)), int(np.ceil(x))}
        dists = [abs(x - n) for n in cands if n >= 1 and n != ell]
        if not dists:
            # nearest integers are excluded or below 1; next admissible is >= 1 away
            continue
        margin = min(dists) - gamma / max(1, ell)
        if margin < worst_margin:
            worst_margin, worst_ell = margin, ell
        if margin < 0:
            ok = False
    return DiophantineResult(ok=ok, ell_max=ell_max, worst_ell=worst_ell,
                             worst_margin=float(worst_margin))


# -- measure of the excluded amplitude set ------------------------------------


_INTERVAL_DTYPE = np.dtype([("lo", "f8"), ("hi", "f8"), ("ell", "i8"), ("j", "i8")])


@dataclass
class MeasureReport:
    """Interval-union and Monte Carlo estimates of the admissible fraction of (0, eta]."""

    eta: float
    gamma: float
    tau: float
    fraction_interval: float
    fraction_mc: float
    mc_stderr: float
    excluded_mass: float
    # structured array of _INTERVAL_DTYPE, ascending in (lo, hi, ell, j)
    excluded_intervals: np.ndarray
    # gamma * eta^((tau+1)/2): the scale of the paper's upper bound on the
    # excluded mass.  The sharp mass scales like gamma * eta^tau (each binding
    # pair removes a width ~ gamma l^(-1-tau), with ~ eta l pairs per l >=
    # 1/(3 eta)), so implied_constant = excluded_mass / paper_bound_scale
    # shrinks as eta decreases instead of settling at a constant.
    paper_bound_scale: float
    implied_constant: float
    tail_mass_bound: float
    ell_max: int
    n_pairs: int
    samples: int

    def _payload(self) -> dict:
        """The JSON object of this report; the intervals become four equal-length
        columns {"lo": [...], "hi": [...], "ell": [...], "j": [...]}."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["excluded_intervals"] = {
            name: self.excluded_intervals[name].tolist() for name in _INTERVAL_DTYPE.names}
        return payload


def _pair_arrays(eta: float, ell_max: int):
    """Binding pairs (l, d): omega_j = l + d, 1 <= d <= floor(4 eta l) + 2."""
    ell_grid = np.arange(max(int(np.ceil(1.0 / (3.0 * eta))), 1), ell_max + 1, dtype=float)
    dmax = np.floor(4.0 * eta * ell_grid).astype(np.int64) + 2
    first = np.cumsum(dmax) - dmax
    ds = np.arange(1, int(dmax.sum()) + 1) - np.repeat(first, dmax)
    return np.repeat(ell_grid, dmax), ds.astype(float)


def _melnikov_values(e, ells, wjs, m_of_eps, shifted: bool):
    v = np.sqrt(1.0 + e) * ells - wjs
    if shifted:
        v = v - e * m_of_eps(e) / (2.0 * wjs)
    return v


def _crossing(level, ells, wjs, m_of_eps, shifted: bool):
    """Per pair, the amplitude e at which the condition function equals level.

    Plain: e = ((n + level) / l)^2 - 1.  Shifted: that map with n + level +
    e M(e) / (2 n) in place of n + level, iterated from the plain root until
    no iterate changes; it contracts by about (M + e M') / (n l) <= 1/2 while
    the slope is >= l/4.  A pair not settled in 60 steps raises ValueError."""
    e = ((wjs + level) / ells) ** 2 - 1.0
    if not shifted:
        return e
    for _ in range(60):
        e, prev = ((wjs + level + e * m_of_eps(e) / (2.0 * wjs)) / ells) ** 2 - 1.0, e
        if np.array_equal(e, prev):
            return e
    k = int(np.flatnonzero(e != prev)[0])
    raise ValueError(f"interval end of pair (l, j) = ({ells[k]:.0f}, {wjs[k] - 1:.0f}) "
                     f"unsettled after 60 steps (last update {e[k] - prev[k]:.3e}): "
                     "the slope >= l/4 premise fails")


def _union_length(lo, hi) -> float:
    """Length of the union of the intervals [lo_i, hi_i], lo sorted ascending.

    An interval joins the current run when it starts at or before the run's
    reach (the running maximum of hi).  The run lengths are added left to
    right, as a sequential merge would add them.
    """
    if len(lo) == 0:
        return 0.0
    reach = np.maximum.accumulate(hi)
    starts = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    ends = np.r_[starts[1:], len(lo)] - 1
    return float(np.cumsum(reach[ends] - lo[starts])[-1])


def _excluded_samples(e_samples, ells, wjs, thr, cut, m_of_eps):
    """Mask of the samples that violate either condition at some binding pair.

    A sample e can violate a condition at pair (l, n = omega_j) only when
    |sqrt(1 + e) l - n| < cut_l, that is inside the window
    ((n - cut_l)^2 / l^2 - 1, (n + cut_l)^2 / l^2 - 1).  Each window, widened
    by far more than the rounding of either side (a few ulp of 1 + e), is
    found by binary search in the sorted samples; the per-element test then
    runs on these candidates only.
    """
    order = np.argsort(e_samples)
    e_sorted = e_samples[order]
    pad = 1e-12 * (1.0 + e_sorted[-1])
    first = np.searchsorted(e_sorted, ((wjs - cut) / ells) ** 2 - 1.0 - pad, side="left")
    stop = np.searchsorted(e_sorted, ((wjs + cut) / ells) ** 2 - 1.0 + pad, side="right")
    counts = stop - first
    pair = np.repeat(np.arange(len(ells)), counts)
    pos = np.arange(len(pair)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    e, ell, n = e_sorted[pos], ells[pair], wjs[pair]
    x = np.sqrt(1.0 + e) * ell
    keep = (np.abs(x - n) < cut[pair]) & (ell >= 1.0 / (3.0 * e))
    e, n, x, pair, pos = e[keep], n[keep], x[keep], pair[keep], pos[keep]
    th = thr[pair]
    me = np.asarray(m_of_eps(e))
    plain = np.abs(x - n) < th
    shifted = np.abs(x - n - e * me / (2.0 * n)) < th
    excluded = np.zeros(len(e_samples), dtype=bool)
    excluded[order[pos[plain | shifted]]] = True
    return excluded


def measure_scan(eta: float, samples: int, params: ResonanceParams, m_of_eps,
                 ell_max_factor: float = 64.0, rng_seed: int = 0) -> MeasureReport:
    """Estimate |admissible set in (0, eta]| / eta.

    Both estimates use the identical binding-pair enumeration (l <= ell_max ~
    ell_max_factor/eta; the reported tail bound covers the rest):

    (a) the exact union of per-pair excluded intervals (a structured array),
        whose ends are a closed form and a contracting fixed-point iteration
        (see _crossing; premise slope >= l/4, else ValueError);
    (b) Monte Carlo over uniform samples of the same condition set, found
        by a window search (see _excluded_samples) and evaluated pointwise;
        it shares nothing with (a) but the pairs, so it checks the union.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if eta > params.eps0:
        raise ValueError("eta must not exceed eps0")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    gamma, tau = params.gamma, params.tau
    ell_max = int(np.ceil(ell_max_factor / eta))
    ells, ds = _pair_arrays(eta, ell_max)
    if len(ells) == 0:
        raise ValueError(f"ell_max_factor = {ell_max_factor} gives ell_max = {ell_max}, below "
                         f"the first binding l = {int(np.ceil(1.0 / (3.0 * eta)))}: "
                         "no pair to scan")
    wjs = ells + ds
    thr = 2.0 * gamma / (ells + wjs) ** tau
    # Only the integer nearest omega(eps) l can violate either condition: cut
    # bounds threshold plus Melnikov shift, and while it stays far below 1/2
    # farther integers are safe.
    shift_cap = eta * float(np.max(np.abs(m_of_eps(np.linspace(0, eta, 64)))) + 1.0)
    cut = 2.0 * gamma / (2.0 * ells) ** tau + shift_cap / (2.0 * ells)
    if float(cut.max()) >= 0.4:
        raise ValueError("threshold + shift too close to 1/2: nearest-integer "
                         "reduction invalid at these parameters")

    lo = 1.0 / (3.0 * ells)
    hi = np.full_like(ells, eta)
    found = []
    for shifted in (True, False):
        flo = _melnikov_values(lo, ells, wjs, m_of_eps, shifted)
        fhi = _melnikov_values(hi, ells, wjs, m_of_eps, shifted)
        active = (flo < thr) & (fhi > -thr)
        a_lo, a_hi, t = lo[active], hi[active], thr[active]
        a_ells, a_wjs = ells[active], wjs[active]
        left, right = a_lo.copy(), a_hi.copy()
        # only the ends inside [1/(3l), eta] are solved for; clip their roundoff
        for end, inside, level in ((left, flo[active] < -t, -t), (right, fhi[active] > t, t)):
            end[inside] = np.clip(_crossing(level[inside], a_ells[inside], a_wjs[inside],
                                            m_of_eps, shifted), a_lo[inside], a_hi[inside])
        good = right > left
        found.append((left[good], right[good], a_ells[good], a_wjs[good]))

    left, right, el, wj = (np.concatenate(c) for c in zip(*found))
    order = np.lexsort((wj, el, right, left))
    intervals = np.empty(len(order), dtype=_INTERVAL_DTYPE)
    intervals["lo"], intervals["hi"] = left[order], right[order]
    intervals["ell"], intervals["j"] = el[order], wj[order] - 1
    total_mass = _union_length(intervals["lo"], intervals["hi"])
    fraction_interval = 1.0 - total_mass / eta

    rng = np.random.default_rng(rng_seed)
    excluded = _excluded_samples(rng.uniform(0.0, eta, size=samples), ells, wjs, thr, cut,
                                 m_of_eps)
    fraction_mc = 1.0 - float(np.mean(excluded))
    mc_stderr = float(np.std(excluded) / np.sqrt(samples))

    # analytic tail bound beyond ell_max: both families; per pair the width is
    # at most 2 * (2 gamma / (2l)^tau) * (4/l), and only resonances with
    # d <= eta*l/2 + 2 can land inside the window
    tail = (32.0 * gamma / 2.0 ** tau) * (
        0.5 * eta * ell_max ** (1.0 - tau) / (tau - 1.0)
        + 2.0 * ell_max ** (-tau) / tau)
    scale = gamma * eta ** ((tau + 1.0) / 2.0)
    return MeasureReport(eta=eta, gamma=gamma, tau=tau,
                         fraction_interval=fraction_interval,
                         fraction_mc=fraction_mc, mc_stderr=mc_stderr,
                         excluded_mass=total_mass,
                         excluded_intervals=intervals,
                         paper_bound_scale=scale,
                         implied_constant=total_mass / scale if scale > 0 else np.inf,
                         tail_mass_bound=float(tail),
                         ell_max=ell_max, n_pairs=len(ells), samples=samples)


def fit_excluded_exponent(reports: list[MeasureReport]) -> float:
    """Least-squares slope of log(excluded fraction) against log(eta).

    The paper's upper bound gamma * eta^((tau+1)/2) on the excluded mass
    bounds this exponent from below by (tau-1)/2; the sharp excluded mass
    scales like gamma * eta^tau, so the fit lands near tau - 1.
    """
    eta = np.array([r.eta for r in reports])
    frac = np.array([max(1.0 - r.fraction_interval, 1e-300) for r in reports])
    return float(np.polyfit(np.log(eta), np.log(frac), 1)[0])


def records_to_csv(records: list[ConditionRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ell", "j", "lhs_shifted", "lhs_plain", "threshold", "ok"])
        for r in sorted(records, key=lambda r: (r.ell, r.j)):
            w.writerow([r.ell, r.j, repr(r.lhs_shifted), repr(r.lhs_plain),
                        repr(r.threshold), int(r.ok)])
