import itertools
import re

import numpy as np
import pytest

from resonant_kg import CoeffField, resonance
from resonant_kg.bifurcation import KernelField, one_mode_solution, solve_kernel
from resonant_kg.resonance import (ConditionRecord, ResonanceParams, check_stage_conditions,
                                   fit_excluded_exponent, measure_scan, records_to_csv)

from conftest import random_field
from oracles import grid_condition_failures, mean_potential

PARAMS = ResonanceParams(gamma=0.1, tau=1.5, eps0=0.1)


def test_mean_potential_examples():
    # branch m: b0 = 2 omega_m e_m^2, spatial mean 2 omega_m^2
    for m in (0, 1, 2):
        v = one_mode_solution(m)
        w = CoeffField.zeros(1, v.J)
        assert abs(mean_potential(w, v) - 2.0 * (m + 1) ** 2) < 1e-12
    zero = KernelField(np.zeros(2))
    assert mean_potential(CoeffField.zeros(1, 1), zero) == 0.0


@pytest.mark.parametrize("m", [0, 1])
def test_mean_curve_is_the_mean_potential_of_each_continuation(m):
    # the mean curve reads q from each continuation's last state, bit for bit
    # the oracle's own square of that state's u = v + w
    from resonant_kg.cli import _mean_curve
    from resonant_kg.nash_moser import SolverConfig, continue_branch
    grid = np.linspace(1e-6, 0.04, 4)
    expect = []
    for eps in grid:
        w, state = continue_branch(SolverConfig(eps=float(eps), m=m, n_max=2))
        expect.append(mean_potential(w, state.kernel))
    assert _mean_curve(grid, m).tobytes() == np.array(expect).tobytes()


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
    failures = check_stage_conditions(1e-6, mean_potential(w, v), PARAMS, L_n=16)
    assert failures == []  # 1/(3 eps) >> L_n: empty index range


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
    failures = check_stage_conditions(eps, mean_potential(w, v), params, L_n=32)
    assert not failures, failures[:3]


def _resonant_eps(ell, d=1):
    """Amplitude with omega(eps) * ell exactly an integer: eps = ((l+d)/l)^2 - 1."""
    return (ell + d) ** 2 / ell ** 2 - 1.0


def test_manufactured_resonance_detected():
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    eps = _resonant_eps(100)  # omega * 100 = 101 exactly
    failures = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=128)
    assert failures
    assert any(r.ell == 100 and r.j == 100 for r in failures)
    # perturbing eps by half the threshold-equivalent width keeps it failing
    thr = 2 * PARAMS.gamma / (100 + 101) ** PARAMS.tau
    eps2 = eps + thr / 100.0
    failures2 = check_stage_conditions(eps2, mean_potential(w, v), PARAMS, L_n=128)
    assert failures2


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
    ok_g = not check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=128)
    ok_2g = not grid_condition_failures(eps, mean_potential(w, v), gamma, tau, 128, 2.0, False)
    assert ok_g and not ok_2g


def test_limit_implies_stage():
    # doubled threshold implies the single one at every stage window
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    for eps in (3e-3, 1.1e-2, 4.3e-2):
        mean = mean_potential(w, v)
        if not grid_condition_failures(eps, mean, PARAMS.gamma, PARAMS.tau, 256, 2.0, False):
            for L in (8, 16, 64, 256):
                assert not check_stage_conditions(eps, mean, PARAMS, L_n=L)


def test_stage_sets_nested():
    # failures can only grow with the stage window
    v = one_mode_solution(0)
    w = CoeffField.zeros(1, 0)
    eps = _resonant_eps(100)
    f_small = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=64)
    f_large = check_stage_conditions(eps, mean_potential(w, v), PARAMS, L_n=128)
    small = {(r.ell, r.j) for r in f_small}
    large = {(r.ell, r.j) for r in f_large}
    assert small <= large


def test_nan_mean_fails_closed():
    # 1/(3 eps) < 9 <= L: the checks are not vacuous, and a NaN mean passes no pair
    eps = 0.04
    failures = check_stage_conditions(eps, float("nan"), PARAMS, 32)
    assert failures
    assert grid_condition_failures(eps, float("nan"), PARAMS.gamma, PARAMS.tau, 32, 2.0, False)


def _condition_case(rng):
    """A random (eps, M, gamma, tau, L) of the checks' range; about half the
    amplitudes sit within a few thresholds of a plain or shifted resonance."""
    gamma, tau = rng.uniform(1e-3, 0.16), rng.uniform(1.05, 1.95)
    kind = rng.integers(4)
    mean = [0.0, rng.uniform(-10.0, 10.0), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 4),
            float("nan")][kind]
    # a NaN or large mean fails most of the grid: short rows keep the lists small
    L = int(rng.integers(1, 160 if kind < 2 else 24))
    eps = 10.0 ** rng.uniform(-4.0, np.log10(0.13))
    if rng.random() < 0.5:
        ell = int(rng.integers(max(L // 2, 1), L + 1))
        wj = ell + int(rng.integers(1, max(int(0.06 * ell), 1) + 1))
        e = (wj / ell) ** 2 - 1.0
        if rng.random() < 0.5 and abs(mean) < ell:  # shifted resonance; the map contracts
            for _ in range(50):
                e = ((wj + e * mean / (2.0 * wj)) / ell) ** 2 - 1.0
        thr = gamma / (ell + wj) ** tau
        e += rng.uniform(-3.0, 3.0) * thr * 2.0 * np.sqrt(1.0 + e) / ell
        if 0.0 < e <= 0.13:
            eps = float(e)
    return eps, mean, gamma, tau, L


def test_condition_windows_match_grid_oracle(rng):
    # the near-integer windows list the grid's failures: same pairs, order and
    # floats, on 2000 cases, more than 300 of which fail at some pair
    nonempty = 0
    for _ in range(2000):
        eps, mean, gamma, tau, L = _condition_case(rng)
        params = ResonanceParams(gamma, tau)
        got = check_stage_conditions(eps, mean, params, L)
        want = grid_condition_failures(eps, mean, gamma, tau, L, 1.0, True)
        assert [repr(r) for r in got] == [repr(r) for r in want], (eps, mean, L)
        nonempty += bool(want)
    assert nonempty > 300


def test_stage_check_memory_is_linear_in_L():
    # the (L x 2L) grid peaked at 84 MB at this size; the windows hold O(L) floats
    import tracemalloc
    tracemalloc.start()
    try:
        check_stage_conditions(2e-3, 2.0, PARAMS, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_measure_scan_memory_is_a_few_interval_tables():
    # peaked at 7.5 tables when the family passes' temporaries, their
    # concatenation and the sort orders stayed alive into the Monte Carlo
    import tracemalloc
    tracemalloc.start()
    try:
        rep = measure_scan(0.04, 20000, ResonanceParams(0.05, 1.5, eps0=0.05), _m_const())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * rep.excluded_intervals.nbytes


def test_measure_scan_memory_is_three_interval_tables_at_eta_001():
    # about 3.4 tables when the first family pass ran over every pair at once;
    # the passes now run in slices and fill one table, sorted in place
    import tracemalloc
    tracemalloc.start()
    try:
        rep = measure_scan(0.01, 20000, ResonanceParams(0.05, 1.5, eps0=0.05), _m_const())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rep.excluded_intervals.nbytes


def test_crossing_gets_at_most_one_slice_of_pairs(monkeypatch):
    # one call took about 1e5 pairs at eta = 0.01 before the passes ran in slices
    sizes, crossing = [], resonance._crossing

    def counted(level, ells, *args):
        sizes.append(len(ells))
        return crossing(level, ells, *args)
    monkeypatch.setattr(resonance, "_crossing", counted)
    rep = measure_scan(0.01, 10, ResonanceParams(0.05, 1.5, eps0=0.04), _interpolated_m_of_eps())
    assert max(sizes) <= resonance._CHUNK_PAIRS < sum(sizes) < 4 * rep.n_pairs


def _report_bytes(rep):
    """Every field of a report as text, the interval table as its bytes."""
    return {name: value.tobytes() if name == "excluded_intervals" else repr(value)
            for name, value in vars(rep).items()}


def test_measure_scan_does_not_depend_on_the_slices(monkeypatch):
    # each pair's ends and Monte Carlo tests are its own, so slices of 1, 7 or
    # all pairs give the default slices' report bit for bit (1 only at 0.04:
    # at 0.01 its 1e5 passes of a few numpy calls each take about 20 s)
    params = ResonanceParams(0.05, 1.5, eps0=0.04)
    m_of_eps = _interpolated_m_of_eps()
    for eta, chunks in ((0.04, (1, 7)), (0.01, (7,))):
        want = measure_scan(eta, 20000, params, m_of_eps, rng_seed=5)
        for chunk in chunks + (want.n_pairs + 1,):
            with monkeypatch.context() as mp:
                mp.setattr(resonance, "_CHUNK_PAIRS", chunk)
                got = measure_scan(eta, 20000, params, m_of_eps, rng_seed=5)
            assert _report_bytes(got) == _report_bytes(want), (eta, chunk)


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


def test_measure_scan_settles_roundoff_two_cycle():
    # at M = -10 the end of pair (3752, 3755) alternates between two floats
    # 2 ulp of 1 + e apart although the map contracts by |M| / (2 n l) ~ 3.5e-7;
    # the ends still match the bisection oracle, and the union and Monte Carlo agree
    params = ResonanceParams(0.05, 1.5, eps0=0.04)
    m_of_eps = lambda e: np.full_like(e, -10.0)
    rep = measure_scan(0.01, 100, params, m_of_eps)
    iv = rep.excluded_intervals
    lo, hi, ell, j = _bisection_intervals(0.01, params, m_of_eps)
    np.testing.assert_array_equal(iv["ell"], ell)
    np.testing.assert_array_equal(iv["j"], j)
    for got, want in ((iv["lo"], lo), (iv["hi"], hi)):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(1.0 + want))
    assert np.any((iv["ell"] == 3752) & (iv["j"] == 3755))
    assert abs(rep.fraction_mc - rep.fraction_interval) <= 0.05
    # the right end of that pair cycles: the larger float, which widens the
    # excluded interval, is kept
    ell, n = np.array([3752.0]), np.array([3756.0])
    t = 2.0 * params.gamma / (ell + n) ** params.tau
    step = lambda e: ((n + t + e * m_of_eps(e) / (2.0 * n)) / ell) ** 2 - 1.0
    end = resonance._crossing(t, ell, n, m_of_eps, True)
    assert step(end) < end and step(step(end)) == end


def test_measure_scan_fails_closed_on_unsettled_end():
    # a mean that changes on every call never lets an interval end settle
    calls = itertools.count()
    flicker = lambda e: np.full_like(np.asarray(e, dtype=float), 2.0 + 0.01 * (next(calls) % 2))
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    with pytest.raises(ValueError, match=r"pair \(l, j\) = \(\d+, \d+\) unsettled after 60 steps"
                                         r" \(last update -?\d\.\d{3}e[-+]\d+\)"):
        measure_scan(0.04, 10, params, flicker)


def test_unsettled_end_is_named_alike_in_slices_of_7(monkeypatch):
    # the first slice holding an unsettled end raises, on the pair the
    # default slices name
    def named_pair():
        calls = itertools.count()
        flicker = lambda e: np.full_like(np.asarray(e, dtype=float),
                                         2.0 + 0.01 * (next(calls) % 2))
        with pytest.raises(ValueError, match="unsettled after 60 steps") as err:
            measure_scan(0.04, 10, ResonanceParams(0.05, 1.5, eps0=0.05), flicker)
        return re.search(r"pair \(l, j\) = \(\d+, \d+\)", str(err.value)).group()
    want = named_pair()
    monkeypatch.setattr(resonance, "_CHUNK_PAIRS", 7)
    assert named_pair() == want


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
    recs = [ConditionRecord(5, 4, 0.1, 0.2, 0.05),
            ConditionRecord(3, 2, 0.3, 0.4, 0.01)]
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


def test_measure_scan_rejects_bad_input(monkeypatch):
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    for eta in (0.0, -0.01):
        with pytest.raises(ValueError, match="eta"):
            measure_scan(eta, 10, params, _m_const())
    with pytest.raises(ValueError, match="samples"):
        measure_scan(0.04, 0, params, _m_const())
    # ell_max 3 lies below the first binding l = 9: there is no pair to scan
    monkeypatch.setattr(resonance, "ELL_MAX_FACTOR", 0.1)
    with pytest.raises(ValueError, match="ELL_MAX_FACTOR"):
        measure_scan(0.04, 10, params, _m_const())


def test_measure_scan_nearest_integer_guard():
    # threshold + shift near 1/2 at l = 1/(3 eta): the window search and the
    # near-integer pre-filter would miss violations at farther integers
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    with pytest.raises(ValueError, match="1/2"):
        measure_scan(0.04, 10, params, _m_const(1e3))
    # a NaN mean curve gives a NaN cut, which the guard rejects rather than
    # letting every shifted condition pass
    with pytest.raises(ValueError, match="not finite"):
        measure_scan(0.04, 1000, params, _m_const(np.nan))


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


def _wide_pair_arrays(eta, ell_max):
    """Oracle: every pair (l, d) with 1 <= d <= floor(4 eta l) + 2, a superset
    of the pairs that can bind."""
    ell_grid = np.arange(max(int(np.ceil(1.0 / (3.0 * eta))), 1), ell_max + 1, dtype=float)
    dmax = np.floor(4.0 * eta * ell_grid).astype(np.int64) + 2
    first = np.cumsum(dmax) - dmax
    ds = np.arange(1, int(dmax.sum()) + 1) - np.repeat(first, dmax)
    return np.repeat(ell_grid, dmax), ds.astype(float)


def _bisection_intervals(eta, params, m_of_eps):
    """Oracle: the 60-step bisection of the interval ends that the closed form
    and fixed-point iteration replaced, over the wide pair enumeration;
    columns (lo, hi, ell, j) in report order."""
    ells, ds = _wide_pair_arrays(eta, int(np.ceil(64.0 / eta)))
    wjs = ells + ds
    thr = 2.0 * params.gamma / (ells + wjs) ** params.tau
    lo = 1.0 / (3.0 * ells)
    hi = np.full_like(ells, eta)
    found = []
    for shifted in (True, False):
        flo, fhi = (resonance._condition_values(e, ells, wjs, m_of_eps(e))[shifted]
                    for e in (lo, hi))
        active = (flo < thr) & (fhi > -thr)
        a_lo, a_hi, t = lo[active], hi[active], thr[active]
        a_ells, a_wjs = ells[active], wjs[active]

        def bisect(sign):
            a, b = a_lo.copy(), a_hi.copy()
            for _ in range(60):
                mid = 0.5 * (a + b)
                f = resonance._condition_values(mid, a_ells, a_wjs, m_of_eps(mid))[shifted]
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


def test_interval_order_breaks_ties_by_hi_ell_j(monkeypatch):
    # the scan's ends rarely tie; left ends floored to 1e-4 make runs of equal
    # lo with different hi, ell and j, which keep the documented order
    crossing = resonance._crossing

    def floored(level, *args):
        e = crossing(level, *args)
        return np.floor(e * 1e4) / 1e4 if np.all(level < 0.0) else e
    monkeypatch.setattr(resonance, "_crossing", floored)
    params = ResonanceParams(0.05, 1.5, eps0=0.04)
    iv = measure_scan(0.04, 10, params, _interpolated_m_of_eps()).excluded_intervals
    ties = (iv["lo"][1:] == iv["lo"][:-1]) & (iv["hi"][1:] != iv["hi"][:-1])
    assert np.count_nonzero(ties) > 1000
    np.testing.assert_array_equal(np.lexsort((iv["j"], iv["ell"], iv["hi"], iv["lo"])),
                                  np.arange(len(iv)))


def test_pair_arrays_match_double_loop():
    for eta, ell_max in ((0.04, 1600), (0.013, 4924), (0.3, 5), (1e-3, 300)):
        ells, ds = [], []
        for ell in range(max(int(np.ceil(1.0 / (3.0 * eta))), 1), ell_max + 1):
            for d in range(1, int(np.floor((np.sqrt(1.0 + eta) - 1.0) * ell)) + 2):
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


def _scan_with_mask(monkeypatch, pair_arrays, eta, params, m_of_eps, samples):
    """measure_scan over the given pair enumeration, with its Monte Carlo mask."""
    masks, search = [], resonance._excluded_samples

    def spy(*args):
        masks.append(search(*args))
        return masks[-1]
    with monkeypatch.context() as mp:
        mp.setattr(resonance, "_pair_arrays", pair_arrays)
        mp.setattr(resonance, "_excluded_samples", spy)
        rep = measure_scan(eta, samples, params, m_of_eps, rng_seed=11)
    return rep, masks[0]


def _assert_same_report(got, want, got_mask, want_mask):
    assert got.excluded_intervals.tobytes() == want.excluded_intervals.tobytes()
    for name in ("fraction_interval", "fraction_mc", "mc_stderr", "excluded_mass",
                 "implied_constant", "tail_mass_bound", "ell_max", "samples"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    np.testing.assert_array_equal(got_mask, want_mask)


def _guard_mean(eta, gamma=0.05, tau=1.5):
    """A negative constant mean whose cut at the first l = ceil(1/(3 eta)) is
    0.399, just under the 0.4 guard: the shift reaches the farthest pairs."""
    l0 = np.ceil(1.0 / (3.0 * eta))
    value = -((0.399 - 2.0 * gamma / (2.0 * l0) ** tau) * 2.0 * l0 - 1.0) / eta
    return lambda e: np.full_like(np.asarray(e, dtype=float), value)


def test_pairs_that_can_bind_match_wide_enumeration(monkeypatch):
    # the pairs beyond d = floor((sqrt(1+eta) - 1) l) + 1 neither bind nor
    # reach a sample: every output but n_pairs is the wide scan's, bit for bit
    params = ResonanceParams(0.05, 1.5, eps0=0.04)
    for eta in (0.04, 0.013, 0.01, 0.005):
        for m_of_eps in (_m_const(), _interpolated_m_of_eps(), _guard_mean(eta)):
            got, got_mask = _scan_with_mask(monkeypatch, resonance._pair_arrays, eta, params,
                                            m_of_eps, 20000)
            want, want_mask = _scan_with_mask(monkeypatch, _wide_pair_arrays, eta, params,
                                              m_of_eps, 20000)
            _assert_same_report(got, want, got_mask, want_mask)
            assert got.n_pairs == len(resonance._pair_arrays(eta, got.ell_max)[0])
            assert 7 * got.n_pairs < want.n_pairs


def test_pair_bound_keeps_interval_straddling_eta(monkeypatch):
    # at l = 100 and eta = ((102 - delta) / 100)^2 - 1, (sqrt(1+eta) - 1) l is
    # 2 - delta, so the last pair kept is d = 2; its plain condition is below
    # the threshold at eta, so its excluded interval ends at eta
    ell, n = 100.0, 102.0
    delta = 0.5 * 2.0 * 0.05 / (ell + n) ** 1.5
    eta = ((n - delta) / ell) ** 2 - 1.0
    params = ResonanceParams(0.05, 1.5, eps0=0.05)
    assert int(np.floor((np.sqrt(1.0 + eta) - 1.0) * ell)) + 1 == n - ell
    got, got_mask = _scan_with_mask(monkeypatch, resonance._pair_arrays, eta, params,
                                    _m_const(), 20000)
    want, want_mask = _scan_with_mask(monkeypatch, _wide_pair_arrays, eta, params,
                                      _m_const(), 20000)
    _assert_same_report(got, want, got_mask, want_mask)
    iv = got.excluded_intervals
    row = iv[(iv["ell"] == ell) & (iv["j"] == n - 1)]
    assert len(row) == 1 and row["hi"][0] == eta and row["lo"][0] < eta


def test_solve_exclusions_lie_in_the_measure_union():
    # solve and measure read one condition set: manufactured plain and shifted
    # resonances at (l, l + 1) stop a 3-stage solve and lie in the union, and
    # the limit conditions (grid oracle) fail exactly on the union's members
    # through l <= L_max
    from resonant_kg.cli import _mean_curve
    from resonant_kg.nash_moser import MelnikovExcludedError, SolverConfig, run
    eta, L_max = 0.04, 128
    grid = np.linspace(1e-6, eta, 4)
    mvals = _mean_curve(grid, 0)
    m_of_eps = lambda e: np.interp(e, grid, mvals)
    params = ResonanceParams(0.05, 1.5, eps0=eta)
    iv = measure_scan(eta, 10, params, m_of_eps).excluded_intervals
    for ell in (51, 57, 63):
        n = ell + 1.0
        shifted = (n / ell) ** 2 - 1.0
        for _ in range(60):
            shifted = ((n + shifted * m_of_eps(shifted) / (2.0 * n)) / ell) ** 2 - 1.0
        for eps in ((n / ell) ** 2 - 1.0, float(shifted)):
            with pytest.raises(MelnikovExcludedError) as ei:
                run(SolverConfig(eps=eps, m=0, n_max=3))
            assert (ell, ell) in {(r.ell, r.j) for r in ei.value.records}
            inside = (iv["lo"] < eps) & (eps < iv["hi"])
            assert (ell, ell) in set(zip(iv["ell"][inside], iv["j"][inside]))

    low = iv[iv["ell"] <= L_max]
    width = low["hi"] - low["lo"]
    e = np.concatenate([0.5 * (low["lo"] + low["hi"]), low["lo"] - 0.01 * width,
                        low["hi"] + 0.01 * width, np.random.default_rng(5).uniform(0, eta, 500)])
    ends = np.concatenate([low["lo"], low["hi"]])
    e = e[(e > 0.0) & (np.abs(e[:, None] - ends[None, :]).min(axis=1) > 1e-12)]
    members = 0
    for x in e:
        inside = (low["lo"] < x) & (x < low["hi"])
        failures = grid_condition_failures(float(x), float(m_of_eps(x)), params.gamma,
                                           params.tau, L_max, 2.0, False)
        assert {(r.ell, r.j) for r in failures} == set(zip(low["ell"][inside], low["j"][inside]))
        assert bool(failures) == inside.any()
        members += bool(failures)
    assert members > len(low) // 2 and len(e) - members > 500
