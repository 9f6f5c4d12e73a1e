import itertools

import numpy as np
import pytest

from resonant_kg import CoeffField, resonance
from resonant_kg.bifurcation import KernelField, one_mode_solution, solve_kernel
from resonant_kg.resonance import (ConditionRecord, ResonanceParams,
                                   check_limit_conditions, check_stage_conditions,
                                   fit_excluded_exponent, mean_potential,
                                   measure_scan, records_to_csv,
                                   strong_diophantine_check)

from conftest import random_field

PARAMS = ResonanceParams(gamma=0.1, tau=1.5, eps0=0.1)


def test_mean_potential_examples():
    # branch m: b0 = 2 omega_m e_m^2, spatial mean 2 omega_m^2
    for m in (0, 1, 2):
        v = one_mode_solution(m, +1)
        w = CoeffField.zeros(1, v.J)
        assert abs(mean_potential(w, v) - 2.0 * (m + 1) ** 2) < 1e-12
    zero = KernelField(np.zeros(2))
    assert mean_potential(CoeffField.zeros(1, 1), zero) == 0.0


def test_mean_potential_lipschitz(rng):
    # |M(w) - M(w')| <= C ||w - w'|| on sampled pairs near the m = 0 branch
    from resonant_kg import NormParams
    p = NormParams(0.3, 1.0)
    vals, dists = [], []
    base = random_field(rng, 5, 3, scale=0.02, decay=0.3)
    for t in np.linspace(0.0, 1.0, 6):
        w = t * base
        ks = solve_kernel(w, 0, J_V=3)
        vals.append(mean_potential(w, ks.kernel))
        dists.append(w.norm(p))
    vals = np.array(vals)
    dists = np.array(dists)
    slopes = np.abs(np.diff(vals)) / np.diff(dists)
    assert np.all(slopes < 20.0)  # uniformly Lipschitz on the sampled segment


def test_stage_conditions_vacuous_for_tiny_eps():
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    ok, failures = check_stage_conditions(1e-6, mean_potential(w, v), PARAMS, L_n=16)
    assert ok and failures == []  # 1/(3 eps) >> L_n: empty index range


def test_stage_condition_record_example():
    # eps = 0.04, l = 25, omega_j = 26: lhs ~ 0.505 far above the threshold
    eps, gamma, tau = 0.04, 0.1, 1.5
    omega = np.sqrt(1 + eps)
    lhs = abs(omega * 25 - 26)
    thr = 2 * gamma / (25 + 26) ** tau
    assert abs(lhs - 0.50490) < 1e-4 and thr < 6e-4 and lhs > thr
    params = ResonanceParams(gamma, tau, 0.1)
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    ok, failures = check_stage_conditions(eps, mean_potential(w, v), params, L_n=32)
    assert ok, [r for r in failures][:3]


def _resonant_eps(ell, d=1):
    """Amplitude with omega(eps) * ell exactly an integer: eps = ((l+d)/l)^2 - 1."""
    return (ell + d) ** 2 / ell ** 2 - 1.0


def test_manufactured_resonance_detected():
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    eps = _resonant_eps(100)  # omega * 100 = 101 exactly
    ok, failures = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=128)
    assert not ok
    assert any(r.ell == 100 and r.j == 100 for r in failures)
    # perturbing eps by half the threshold-equivalent width keeps it failing
    thr = 2 * PARAMS.gamma / (100 + 101) ** PARAMS.tau
    eps2 = eps + thr / 100.0
    ok2, failures2 = check_stage_conditions(eps2, mean_potential(w, v), PARAMS, L_n=128)
    assert not ok2


def test_gamma_two_gamma_flip():
    # place eps so the plain condition sits between gamma and 2 gamma thresholds
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    ell, wj = 100, 101
    eps0 = _resonant_eps(ell)
    gamma, tau = PARAMS.gamma, PARAMS.tau
    thr = gamma / (ell + wj) ** tau
    # |omega(eps) l - wj| ~ (l / (2 omega)) * d(eps): move by 1.5 thresholds
    d_eps = 1.5 * thr * 2 * np.sqrt(1 + eps0) / ell
    eps = eps0 + d_eps
    ok_g, _ = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=128)
    ok_2g, _ = check_limit_conditions(eps, mean_potential(w, v), PARAMS, L_max=128)
    assert ok_g and not ok_2g


def test_limit_implies_stage():
    # doubled threshold implies the single one at every stage window
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    for eps in (3e-3, 1.1e-2, 4.3e-2):
        ok2, _ = check_limit_conditions(eps, mean_potential(w, v), PARAMS, L_max=256)
        if ok2:
            for L in (8, 16, 64, 256):
                ok, _ = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=L)
                assert ok


def test_stage_sets_nested():
    # failures can only grow with the stage window
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    eps = _resonant_eps(100)
    f_small = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=64)[1]
    f_large = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=128)[1]
    small = {(r.ell, r.j) for r in f_small}
    large = {(r.ell, r.j) for r in f_large}
    assert small <= large


def test_nan_mean_fails_closed():
    # 1/(3 eps) < 9 <= L: the checks are not vacuous, and a NaN mean passes no pair
    eps = 0.04
    for check in (check_stage_conditions, check_limit_conditions):
        ok, failures = check(eps, float("nan"), PARAMS, 32)
        assert not ok and failures


def test_strong_diophantine():
    # omega = 1: distances to admissible integers are >= 1, so it passes
    res = strong_diophantine_check(1.0, gamma=0.1, ell_max=1000)
    assert res.ok
    # engineered failure: omega l = omega_j + gamma/(2 l) at one pair
    ell, wj, gamma = 17, 19, 0.1
    omega = (wj + gamma / (2 * ell)) / ell
    res2 = strong_diophantine_check(omega, gamma, ell_max=100)
    assert not res2.ok and res2.worst_margin < 0
    assert strong_diophantine_check(omega, gamma=0.0, ell_max=100).ok
    with pytest.raises(ValueError):
        strong_diophantine_check(3.0, 0.1)


def _m_const(value=2.0):
    return lambda e: np.full_like(np.asarray(e, dtype=float), value)


def test_measure_scan_consistency():
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    rep = measure_scan(0.04, samples=20000, params=params, m_of_eps=_m_const())
    assert 0.9 < rep.fraction_interval < 1.0
    # Monte Carlo of the same condition set agrees within sampling error
    assert abs(rep.fraction_mc - rep.fraction_interval) <= 2.0 / np.sqrt(rep.samples)
    assert rep.excluded_mass > 0.0
    # the unresolved tail cannot move the admissible fraction materially
    assert rep.tail_mass_bound < 0.02 * rep.eta
    # every interval respects the analytic width bound 16 gamma / l^(tau+1)
    for lo, hi, ell, j in rep.excluded_intervals:
        assert hi - lo <= 16.0 * params.gamma / ell ** (params.tau + 1.0) * (1 + 1e-9)


def test_measure_scan_slope_bound():
    # the shifted condition function has slope >= l/4 on every excluded
    # interval: the premise under which the fixed-point iteration contracts
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    for m in (_m_const(), _interpolated_m_of_eps()):
        iv = measure_scan(0.04, samples=1000, params=params, m_of_eps=m).excluded_intervals
        mid, t = 0.5 * (iv["lo"] + iv["hi"]), 1e-7
        ell, wj = iv["ell"].astype(float), iv["j"] + 1.0
        f = lambda e: np.sqrt(1 + e) * ell - wj - e * m(e) / (2 * wj)
        slope = (f(mid + t) - f(mid - t)) / (2 * t)
        assert len(iv) > 40000 and np.all(slope >= ell / 4.0)


def test_measure_scan_fails_closed_on_unsettled_end():
    # a mean that changes on every call never lets an interval end settle
    calls = itertools.count()
    flicker = lambda e: np.full_like(np.asarray(e, dtype=float), 2.0 + 0.01 * (next(calls) % 2))
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    with pytest.raises(ValueError, match=r"pair \(l, j\) = \(\d+, \d+\) unsettled after 60 steps"
                                         r" \(last update -?\d\.\d{3}e[-+]\d+\)"):
        measure_scan(0.04, 10, params, flicker)


def test_measure_gamma_to_zero():
    reports = []
    for gamma in (0.05, 0.005, 0.0005):
        params = ResonanceParams(gamma, 1.5, eps0=0.05)
        rep = measure_scan(0.02, samples=1000, params=params, m_of_eps=_m_const())
        reports.append(rep.fraction_interval)
    assert reports[0] < reports[1] < reports[2]
    assert reports[2] > 0.999


def test_exponent_fit_runs():
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    reports = [measure_scan(eta, samples=1000, params=params, m_of_eps=_m_const())
               for eta in (0.04, 0.02)]
    expo = fit_excluded_exponent(reports)
    assert np.isfinite(expo) and 0.0 < expo < 1.5


def test_records_csv(tmp_path):
    recs = [ConditionRecord(5, 4, 0.1, 0.2, 0.05, False),
            ConditionRecord(3, 2, 0.3, 0.4, 0.01, True)]
    path = tmp_path / "records.csv"
    records_to_csv(recs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("ell,")
    assert lines[1].split(",")[0] == "3"  # sorted by (ell, j)


def test_params_validation():
    with pytest.raises(ValueError):
        ResonanceParams(0.2, 1.5)
    with pytest.raises(ValueError):
        ResonanceParams(0.05, 2.5)
    with pytest.raises(ValueError):
        measure_scan(0.2, 10, ResonanceParams(0.05, 1.5, eps0=0.1), _m_const())


def test_measure_scan_rejects_bad_input():
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    for eta in (0.0, -0.01):
        with pytest.raises(ValueError, match="eta"):
            measure_scan(eta, 10, params, _m_const())
    with pytest.raises(ValueError, match="samples"):
        measure_scan(0.04, 0, params, _m_const())
    # ell_max 3 lies below the first binding l = 9: there is no pair to scan
    with pytest.raises(ValueError, match="ell_max_factor"):
        measure_scan(0.04, 10, params, _m_const(), ell_max_factor=0.1)


def test_measure_scan_nearest_integer_guard():
    # threshold + shift near 1/2 at l = 1/(3 eta): the window search and the
    # near-integer pre-filter would miss violations at farther integers
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    with pytest.raises(ValueError, match="1/2"):
        measure_scan(0.04, 10, params, _m_const(1e3))


def _interpolated_m_of_eps():
    """A non-constant branch mean interpolated on a solve grid, as the CLI builds it."""
    grid = np.linspace(1e-6, 0.04, 4)
    return lambda e: np.interp(e, grid, [2.0, 2.4, 2.1, 2.7])


def _dense_grid_excluded(e_samples, eta, params, m_of_eps, ell_max_factor=64.0, chunk=256):
    """Oracle: the dense samples x ell Monte Carlo that the window search replaced."""
    gamma, tau = params.gamma, params.tau
    ell_max = int(np.ceil(ell_max_factor / eta))
    excluded = np.zeros(len(e_samples), dtype=bool)
    ell_grid = np.arange(max(int(np.ceil(1.0 / (3.0 * eta))), 1), ell_max + 1, dtype=float)
    dwin = np.floor(4.0 * eta * ell_grid) + 2.0
    shift_cap = eta * float(np.max(np.abs(m_of_eps(np.linspace(0, eta, 64)))) + 1.0)
    cut = 2.0 * gamma / (2.0 * ell_grid) ** tau + shift_cap / (2.0 * ell_grid)
    for start in range(0, len(e_samples), chunk):
        e = e_samples[start : start + chunk][:, None]
        x = np.sqrt(1.0 + e) * ell_grid[None, :]
        n = np.round(x)
        rows, cols = np.nonzero(np.abs(x - n) < cut[None, :])
        ev = e[rows, 0]
        ells_c = ell_grid[cols]
        nv = n[rows, cols]
        d = nv - ells_c
        valid = (ells_c >= 1.0 / (3.0 * ev)) & (d >= 1.0) & (d <= dwin[cols])
        th = 2.0 * gamma / (ells_c + nv) ** tau
        me = np.asarray(m_of_eps(ev))
        plain = np.abs(x[rows, cols] - nv) < th
        shiftc = np.abs(x[rows, cols] - nv - ev * me / (2.0 * nv)) < th
        excluded[start + rows[valid & (plain | shiftc)]] = True
    return excluded


def test_monte_carlo_matches_dense_grid_oracle(monkeypatch):
    params = ResonanceParams(0.05, 1.5, eps0=0.04)
    m_of_eps = _interpolated_m_of_eps()
    seen = []
    search = resonance._excluded_samples

    def spy(e_samples, *args):
        mask = search(e_samples, *args)
        seen.append((e_samples, mask))
        return mask

    monkeypatch.setattr(resonance, "_excluded_samples", spy)
    for eta in (0.04, 0.01):
        for seed in (3, 2024):
            rep = measure_scan(eta, 5000, params, m_of_eps, rng_seed=seed)
            e_samples, mask = seen.pop()
            oracle = _dense_grid_excluded(e_samples, eta, params, m_of_eps)
            assert oracle.any()
            np.testing.assert_array_equal(mask, oracle)
            assert rep.fraction_mc == 1.0 - float(np.mean(oracle))


def _bisection_intervals(eta, params, m_of_eps):
    """Oracle: the 60-step bisection of the interval ends that the closed form
    and fixed-point iteration replaced; columns (lo, hi, ell, j) in report order."""
    ells, ds = resonance._pair_arrays(eta, int(np.ceil(64.0 / eta)))
    wjs = ells + ds
    thr = 2.0 * params.gamma / (ells + wjs) ** params.tau
    lo = 1.0 / (3.0 * ells)
    hi = np.full_like(ells, eta)
    found = []
    for shifted in (True, False):
        flo = resonance._melnikov_values(lo, ells, wjs, m_of_eps, shifted)
        fhi = resonance._melnikov_values(hi, ells, wjs, m_of_eps, shifted)
        active = (flo < thr) & (fhi > -thr)
        a_lo, a_hi, t = lo[active], hi[active], thr[active]
        a_ells, a_wjs = ells[active], wjs[active]

        def bisect(sign):
            a, b = a_lo.copy(), a_hi.copy()
            for _ in range(60):
                mid = 0.5 * (a + b)
                f = resonance._melnikov_values(mid, a_ells, a_wjs, m_of_eps, shifted)
                above = f > sign * t
                b = np.where(above, mid, b)
                a = np.where(above, a, mid)
            return 0.5 * (a + b)

        left = np.where(flo[active] >= -t, a_lo, bisect(-1.0))
        right = np.where(fhi[active] <= t, a_hi, bisect(+1.0))
        good = right > left
        found.append((left[good], right[good], a_ells[good], a_wjs[good]))
    left, right, el, wj = (np.concatenate(c) for c in zip(*found))
    order = np.lexsort((wj, el, right, left))
    return left[order], right[order], el[order].astype(np.int64), wj[order].astype(np.int64) - 1


def test_interval_ends_match_bisection_oracle():
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    for m_of_eps in (_m_const(), _interpolated_m_of_eps()):
        for eta in (0.04, 0.01):
            rep = measure_scan(eta, 10, params, m_of_eps)
            iv = rep.excluded_intervals
            lo, hi, ell, j = _bisection_intervals(eta, params, m_of_eps)
            np.testing.assert_array_equal(iv["ell"], ell)
            np.testing.assert_array_equal(iv["j"], j)
            for got, want in ((iv["lo"], lo), (iv["hi"], hi)):
                assert np.all(np.abs(got - want) <= 4.0 * np.spacing(1.0 + want))
            oracle = 1.0 - resonance._union_length(lo, hi) / eta
            assert rep.fraction_interval == pytest.approx(oracle, rel=1e-10, abs=0.0)


def test_measure_report_intervals_are_columns():
    params = ResonanceParams(0.05, 1.5, eps0=0.04)
    rep = measure_scan(0.04, 10, params, _interpolated_m_of_eps())
    iv = rep.excluded_intervals
    assert iv.dtype.names == ("lo", "hi", "ell", "j")
    assert [iv.dtype[name] for name in iv.dtype.names] == [np.float64, np.float64,
                                                           np.int64, np.int64]
    np.testing.assert_array_equal(np.lexsort((iv["j"], iv["ell"], iv["hi"], iv["lo"])),
                                  np.arange(len(iv)))
    columns = rep._payload()["excluded_intervals"]
    assert columns == {name: iv[name].tolist() for name in iv.dtype.names}
    assert all(type(v) is int for name in ("ell", "j") for v in columns[name])
    assert all(type(v) is float for name in ("lo", "hi") for v in columns[name])
    assert len(iv) == len(columns["lo"]) > 0
    # rows still slice and unpack as (lo, hi, ell, j)
    for k, (lo, hi, ell, j) in enumerate(iv[:3]):
        assert (lo, hi, ell, j) == tuple(columns[name][k] for name in iv.dtype.names)


def test_pair_arrays_match_double_loop():
    for eta, ell_max in ((0.04, 1600), (0.013, 4924), (0.3, 5), (1e-3, 300)):
        ells, ds = [], []
        for ell in range(max(int(np.ceil(1.0 / (3.0 * eta))), 1), ell_max + 1):
            for d in range(1, int(np.floor(4.0 * eta * ell)) + 3):
                ells.append(ell)
                ds.append(d)
        got_ells, got_ds = resonance._pair_arrays(eta, ell_max)
        assert got_ells.dtype == got_ds.dtype == np.float64
        np.testing.assert_array_equal(got_ells, np.array(ells, dtype=float))
        np.testing.assert_array_equal(got_ds, np.array(ds, dtype=float))


def _merge_loop_mass(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return float(sum(hi - lo for lo, hi in merged))


def test_union_length_matches_merge_loop(rng):
    lo = np.sort(rng.uniform(0.0, 1.0, 3000))
    dup = np.arange(5, lo.size, 17)
    lo[dup] = lo[dup - 1]  # shared left ends
    hi = lo + rng.exponential(1e-3, lo.size)
    hi[::7] = lo[::7]  # empty intervals
    touch = np.arange(3, lo.size - 1, 11)
    hi[touch] = lo[touch + 1]  # ends exactly where the next one starts
    cases = [(lo, hi), (np.empty(0), np.empty(0))]
    params = ResonanceParams(0.05, 1.5, eps0=0.04)
    rep = measure_scan(0.04, 10, params, _interpolated_m_of_eps())
    arr = np.array([(a, b) for a, b, _, _ in rep.excluded_intervals])
    cases.append((arr[:, 0], arr[:, 1]))
    for a, b in cases:
        expected = _merge_loop_mass(list(zip(a.tolist(), b.tolist())))
        got = resonance._union_length(a, b)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert rep.excluded_mass == _merge_loop_mass([(a, b) for a, b, _, _ in rep.excluded_intervals])
