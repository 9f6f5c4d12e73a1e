"""Non-resonance conditions, admissible amplitude sets, and measure estimation.

With omega(eps) = sqrt(1 + eps), an amplitude eps is admissible at stage
truncation L when the shifted and plain Melnikov quantities

    f = |omega(eps) l - omega_j - eps M / (2 omega_j)|,    g = |omega(eps) l - omega_j|

stay above gamma / (l + omega_j)^tau for every pair with 1/(3 eps) <= l <= L,
omega_j <= 2 L, l != omega_j.  The limit set has the doubled threshold
2 gamma / (l + omega_j)^tau and no stage cap: the measure scan's union of
excluded intervals is its complement.  M is the spatial mean of the
time-averaged derivative of the nonlinearity along the solution branch.

The measure scanner estimates how much of (0, eta] the conditions exclude,
both by an exact union of per-pair excluded intervals and by Monte Carlo
sampling of the same condition set.  Both scan only the pairs that can bind
(see _pair_arrays), in slices of _CHUNK_PAIRS pairs, so that the temporaries
of their per-pair arithmetic stay small.  On binding pairs each f is
strictly monotone in eps with slope >= l/4, so the interval ends are a
closed form and a contracting fixed-point iteration (see _crossing); they
are written into one table, which is sorted in place.  The Monte Carlo
searches each binding pair's near-integer window in the sorted samples and
evaluates the conditions pointwise at the candidates.  It shares f and g
(_condition_values) and the rule that a pair passes only when both clear the
threshold (_fails) with the stage check, but no end point, iteration or
merge with the union.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bifurcation import KernelField, total_field
from .field_algebra import CoeffField, field_multiply, write_csv
from .spherical_basis import mean_integral

__all__ = [
    "ResonanceParams",
    "ConditionRecord",
    "mean_potential",
    "melnikov_mean",
    "check_stage_conditions",
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
    """An (l, j) pair failing a stage condition: both Melnikov sides and the threshold."""

    ell: int
    j: int
    lhs_shifted: float
    lhs_plain: float
    threshold: float


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


def _expand(first, counts):
    """Per row i, the integers first[i] .. first[i] + counts[i] - 1, with their row index."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) + np.repeat(first - (np.cumsum(counts) - counts), counts)


def _condition_values(e, ells, wjs, mean):
    """Signed g and f at the pairs (l, omega_j); e and mean are scalars or one per pair."""
    plain = np.sqrt(1.0 + e) * ells - wjs
    return plain, plain - e * mean / (2.0 * wjs)


def _fails(plain, shifted, thr, strict: bool):
    """A pair passes only when both sides clear the threshold, so a NaN fails it."""
    clears = np.greater if strict else np.greater_equal
    return ~(clears(np.abs(plain), thr) & clears(np.abs(shifted), thr))


def check_stage_conditions(eps: float, mean_value: float, params: ResonanceParams,
                           L_n: int) -> list[ConditionRecord]:
    """Stage admissibility: thresholds gamma/(l+omega_j)^tau over l <= L_n, omega_j <= 2 L_n.

    mean_value is the Melnikov mean M.  Returns the failures, a ConditionRecord
    per pair with l >= 1/(3 eps) that violates the conditions: none when
    1/(3 eps) > L_n.  Only omega_j within cut_l = gamma / (l + 1)^tau +
    eps |M| / 2 of omega l can fail (omega_j >= 1 caps threshold and shift),
    and the window is widened by far more than the rounding of omega l.
    fmax and fmin drop a NaN cut: a NaN M fails all.
    """
    if eps <= 0.0 or 1.0 / (3.0 * eps) > L_n:
        return []
    gamma, tau = params.gamma, params.tau
    ell_grid = np.arange(int(np.ceil(1.0 / (3.0 * eps))), L_n + 1, dtype=float)
    x = np.sqrt(1.0 + eps) * ell_grid
    cut = gamma / (ell_grid + 1.0) ** tau + eps * abs(mean_value) / 2.0 + 1e-12 * (1.0 + x)
    first = np.fmax(np.ceil(x - cut), 1.0)
    last = np.fmin(np.floor(x + cut), 2.0 * L_n)
    count = np.maximum(last - first + 1.0, 0.0).astype(np.int64)
    row, wjs = _expand(first.astype(np.int64), count)
    ells, wjs = ell_grid[row], wjs.astype(float)
    plain, shifted = _condition_values(eps, ells, wjs, mean_value)
    thr = gamma / (ells + wjs) ** tau
    bad = _fails(plain, shifted, thr, strict=True) & (ells != wjs)  # l = omega_j is no condition
    return [ConditionRecord(int(ell), int(wj) - 1, float(f), float(g), float(t))
            for ell, wj, f, g, t in zip(ells[bad], wjs[bad], np.abs(shifted[bad]),
                                        np.abs(plain[bad]), thr[bad])]


# -- measure of the excluded amplitude set ------------------------------------


_INTERVAL_DTYPE = np.dtype([("lo", "f8"), ("hi", "f8"), ("ell", "i8"), ("j", "i8")])
ELL_MAX_FACTOR = 64.0  # measure_scan enumerates the pairs l <= ELL_MAX_FACTOR / eta
_CHUNK_PAIRS = 8192  # pairs per scan slice; 64 KiB float64 arrays stay below glibc's mmap threshold


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
    # gamma * eta^((tau+1)/2), the scale of the paper's bound on the excluded mass; the
    # sharp mass scales like gamma * eta^tau (a width ~ gamma l^(-1-tau) per binding pair,
    # ~ eta l pairs per l >= 1/(3 eta)), so implied_constant shrinks as eta decreases.
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
    """Pairs (l, d) that can bind: omega_j = l + d, 1 <= d <= floor((sqrt(1+eta) - 1) l) + 1.

    With n = l + d, cut_l = 2 gamma / (2l)^tau + shift_cap / (2l) bounds
    thr + |e M / (2n)| for e <= eta and stays < 0.4 (measure_scan's guard): a
    pair binds only if |f| < thr at some e <= eta, so n < sqrt(1+eta) l + cut_l;
    its Monte Carlo window starts at ((n - cut_l)/l)^2 - 1 - pad, above every
    sample unless n <= sqrt(1+eta+pad) l + cut_l.  So d < (sqrt(1+eta) - 1) l + 0.4:
    the "+ 1", with 0.6 to spare for the floor's rounding.  Every l keeps d = 1.
    """
    ell_grid = np.arange(max(int(np.ceil(1.0 / (3.0 * eta))), 1), ell_max + 1, dtype=float)
    dmax = np.floor((np.sqrt(1.0 + eta) - 1.0) * ell_grid).astype(np.int64) + 1
    row, ds = _expand(1, dmax)
    return ell_grid[row], ds.astype(float)


def _crossing(level, ells, wjs, m_of_eps, shifted: bool):
    """Per pair, the amplitude e at which the condition function equals level.

    Plain: e = ((n + level) / l)^2 - 1.  Shifted: that map with n + level +
    e M(e) / (2 n) in place of n + level, iterated from the plain root until
    every iterate is settled; it contracts by about (M + e M') / (n l) <= 1/2
    while the slope is >= l/4.  An iterate is settled when it repeats, or when
    it equals the one two steps back within 4 ulp of 1 + e: a contraction has
    no 2-cycle, so that one is roundoff, and the end that widens the excluded
    interval (the lower at level < 0, the upper at level > 0) is kept.  No end
    depends on the other pairs of the call.  A pair not settled in 60 steps raises ValueError."""
    e = ((wjs + level) / ells) ** 2 - 1.0
    if not shifted:
        return e
    prev = np.full_like(e, np.nan)
    for _ in range(60):
        e, prev, back = ((wjs + level + e * m_of_eps(e) / (2.0 * wjs)) / ells) ** 2 - 1.0, e, prev
        cycle = (e == back) & (np.abs(e - prev) <= 4.0 * np.spacing(1.0 + e))
        settled = (e == prev) | cycle
        if settled.all():
            return np.where(level < 0.0, np.minimum(e, prev), np.maximum(e, prev))
    k = int(np.flatnonzero(~settled)[0])
    raise ValueError(f"interval end of pair (l, j) = ({ells[k]:.0f}, {wjs[k] - 1:.0f}) "
                     f"unsettled after 60 steps (last update {e[k] - prev[k]:.3e}): "
                     "the slope >= l/4 premise fails")


def _union_length(lo, hi) -> float:
    """Length of the union of the intervals [lo_i, hi_i], lo sorted ascending.

    An interval joins the current run when it starts at or before the run's
    reach (the running maximum of hi).  The rows are read _CHUNK_PAIRS at a
    time, each slice headed by the run still open (its start, its reach), so
    the running maximum carries across slices.  The run lengths are added left
    to right in one sequential sum, as a sequential merge would add them.
    """
    if len(lo) == 0:
        return 0.0
    total, open_lo, open_reach = 0.0, lo[:0], hi[:0]
    for s in range(0, len(lo), _CHUNK_PAIRS):
        left = np.r_[open_lo, lo[s:s + _CHUNK_PAIRS]]
        reach = np.maximum.accumulate(np.r_[open_reach, hi[s:s + _CHUNK_PAIRS]])
        starts = np.flatnonzero(np.r_[True, left[1:] > reach[:-1]])
        ends = np.r_[starts[1:], len(left)] - 1
        runs = reach[ends] - left[starts]  # the last run is still open
        total = np.cumsum(np.r_[total, runs[:-1]])[-1]
        open_lo, open_reach = left[starts[-1:]], reach[-1:]
    return float(total + runs[-1])


def _excluded_samples(e_samples, ells, wjs, thr, cut, m_of_eps):
    """Mask of the samples that violate either condition at some binding pair.

    A sample e can violate a condition at pair (l, n = omega_j) only when
    |sqrt(1 + e) l - n| < cut_l, that is inside the window
    ((n - cut_l)^2 / l^2 - 1, (n + cut_l)^2 / l^2 - 1).  Each window, widened
    by far more than the rounding of either side (a few ulp of 1 + e), is
    found by binary search in the sorted samples; the per-element test then
    runs on these candidates only.  Visiting the pairs _CHUNK_PAIRS at a time
    in ascending window start gives both searches (nearly) sorted keys.
    """
    order = np.argsort(e_samples)
    e_sorted = e_samples[order]
    pad = 1e-12 * (1.0 + e_sorted[-1])
    excluded = np.zeros(len(e_samples), dtype=bool)
    visit = np.argsort(((wjs - cut) / ells) ** 2)
    for start in range(0, len(visit), _CHUNK_PAIRS):
        el, wj, t, c = (a[visit[start:start + _CHUNK_PAIRS]] for a in (ells, wjs, thr, cut))
        first = np.searchsorted(e_sorted, ((wj - c) / el) ** 2 - 1.0 - pad, side="left")
        stop = np.searchsorted(e_sorted, ((wj + c) / el) ** 2 - 1.0 + pad, side="right")
        pair, pos = _expand(first, stop - first)
        e, ell = e_sorted[pos], el[pair]
        plain, shifted = _condition_values(e, ell, wj[pair], np.asarray(m_of_eps(e)))
        bad = _fails(plain, shifted, t[pair], strict=False)
        bad &= (np.abs(plain) < c[pair]) & (ell >= 1.0 / (3.0 * e))
        excluded[order[pos[bad]]] = True
    return excluded


def _family_intervals(rows, eta, ells, wjs, thr, m_of_eps, shifted: bool) -> int:
    """Write one family's nonempty excluded intervals (per pair, where in [1/(3l), eta]
    the condition value lies in (-thr, thr)) to the first rows; return their count."""
    lo, hi = 1.0 / (3.0 * ells), np.full_like(ells, eta)
    flo, fhi = (_condition_values(e, ells, wjs, m_of_eps(e))[shifted] for e in (lo, hi))
    active = (flo < thr) & (fhi > -thr)
    a_lo, a_hi, t, a_ells, a_wjs = (a[active] for a in (lo, hi, thr, ells, wjs))
    left, right = a_lo.copy(), a_hi.copy()
    # only the ends inside [1/(3l), eta] are solved for; clip their roundoff
    for end, inside, level in ((left, flo[active] < -t, -t), (right, fhi[active] > t, t)):
        end[inside] = np.clip(_crossing(level[inside], a_ells[inside], a_wjs[inside],
                                        m_of_eps, shifted), a_lo[inside], a_hi[inside])
    rows = rows[:np.count_nonzero(good := right > left)]
    for name, column in zip(_INTERVAL_DTYPE.names, (left, right, a_ells, a_wjs - 1.0)):
        rows[name] = column[good]
    return len(rows)


def _sorted_in_place(intervals):
    """An _INTERVAL_DTYPE array, sorted in place ascending in (lo, hi, ell, j)."""
    # the union needs ascending lo; only runs of equal lo are re-sorted by (hi, ell, j)
    order = np.argsort(intervals["lo"])
    same = np.diff(intervals["lo"][order]) == 0.0
    tie = np.r_[same, False] | np.r_[False, same]
    run = order[tie]
    order[tie] = run[np.lexsort(tuple(intervals[name][run] for name in ("j", "ell", "hi", "lo")))]
    for name in _INTERVAL_DTYPE.names:  # one column-sized temporary at a time
        intervals[name] = intervals[name][order]
    return intervals


def measure_scan(eta: float, samples: int, params: ResonanceParams, m_of_eps,
                 rng_seed: int = 0) -> MeasureReport:
    """Estimate |admissible set in (0, eta]| / eta.

    Both estimates use the identical binding-pair enumeration (l <= ell_max =
    ceil(ELL_MAX_FACTOR / eta); the reported tail bound covers the rest):

    (a) the exact union of per-pair excluded intervals (a structured array),
        whose ends are a closed form and a contracting fixed-point iteration
        (see _crossing; premise slope >= l/4, else ValueError), written
        slice by slice into one table of 2 n_pairs rows and sorted in place;
    (b) Monte Carlo over uniform samples of the same condition set, found
        by a window search (see _excluded_samples) and evaluated pointwise;
        it shares with (a) the pairs and the evaluator of f and g, but no end
        point, iteration or merge, so it checks the union.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if eta > params.eps0:
        raise ValueError("eta must not exceed eps0")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    gamma, tau = params.gamma, params.tau
    ell_max = int(np.ceil(ELL_MAX_FACTOR / eta))
    ells, ds = _pair_arrays(eta, ell_max)
    if len(ells) == 0:
        raise ValueError(f"ELL_MAX_FACTOR = {ELL_MAX_FACTOR} gives ell_max = {ell_max}, below "
                         f"the first binding l = {int(np.ceil(1.0 / (3.0 * eta)))}: "
                         "no pair to scan")
    wjs = ells + ds
    thr = 2.0 * gamma / (ells + wjs) ** tau
    # cut bounds threshold plus Melnikov shift; while it stays far below 1/2 only
    # the integer nearest omega(eps) l can violate either condition
    shift_cap = eta * float(np.max(np.abs(m_of_eps(np.linspace(0, eta, 64)))) + 1.0)
    cut = 2.0 * gamma / (2.0 * ells) ** tau + shift_cap / (2.0 * ells)
    if not cut.max() < 0.4:  # also catches a non-finite mean curve
        raise ValueError("threshold + shift too close to 1/2 or not finite: "
                         "nearest-integer reduction invalid at these parameters")

    table, k = np.empty(2 * len(ells), dtype=_INTERVAL_DTYPE), 0  # <= 1 row per pair and family
    for shifted in (True, False):
        for s in range(0, len(ells), _CHUNK_PAIRS):
            part = (a[s:s + _CHUNK_PAIRS] for a in (ells, wjs, thr))
            k += _family_intervals(table[k:], eta, *part, m_of_eps, shifted)
    intervals = _sorted_in_place(table[:k])
    total_mass = _union_length(intervals["lo"], intervals["hi"])

    rng = np.random.default_rng(rng_seed)
    excluded = _excluded_samples(rng.uniform(0.0, eta, size=samples), ells, wjs, thr, cut, m_of_eps)

    # analytic tail bound beyond ell_max: both families; per pair the width is
    # at most 2 * (2 gamma / (2l)^tau) * (4/l), and only resonances with
    # d <= eta*l/2 + 2 can land inside the window
    tail = (32.0 * gamma / 2.0 ** tau) * (
        0.5 * eta * ell_max ** (1.0 - tau) / (tau - 1.0)
        + 2.0 * ell_max ** (-tau) / tau)
    scale = gamma * eta ** ((tau + 1.0) / 2.0)
    return MeasureReport(eta=eta, gamma=gamma, tau=tau, fraction_interval=1.0 - total_mass / eta,
                         fraction_mc=1.0 - float(np.mean(excluded)),
                         mc_stderr=float(np.std(excluded) / np.sqrt(samples)),
                         excluded_mass=total_mass, excluded_intervals=intervals,
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
    write_csv(path, ["ell", "j", "lhs_shifted", "lhs_plain", "threshold"],
              ([r.ell, r.j, repr(r.lhs_shifted), repr(r.lhs_plain), repr(r.threshold)]
               for r in sorted(records, key=lambda r: (r.ell, r.j))))
