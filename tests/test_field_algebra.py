import json
import os
import tempfile

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from resonant_kg import (CoeffField, NormParams, field_multiply, load_field,
                         project_kernel, project_range, save_field, time_cutoff)
from resonant_kg.field_algebra import field_to_csv, fold_entries
from resonant_kg.spherical_basis import multiplication_matrix

from conftest import evaluate_field, from_mode, profile_product, random_field
from oracles import smoothing_bound_check, sobolev_trade_check, trade_bound_constant


P = NormParams(0.3, 1.0, 2.0)


def test_norm_examples():
    u = from_mode(0, 0, 1.0)
    assert u.norm(NormParams(0.7, 1.3, 2.0)) == 1.0
    a, ell, j, sigma, s, r = 0.37, 3, 2, 0.4, 1.2, 2.0
    u = from_mode(ell, j, a, L=5, J=4)
    expected = a * np.sqrt(2.0) * np.exp(sigma * ell) * ell ** s * (j + 1) ** r
    assert abs(u.norm(NormParams(sigma, s, r)) - expected) < 1e-13 * expected


def test_norm_monotone(rng):
    u = random_field(rng, 6, 5)
    base = u.norm(NormParams(0.2, 0.8, 1.5))
    assert u.norm(NormParams(0.3, 0.8, 1.5)) >= base
    assert u.norm(NormParams(0.2, 1.0, 1.5)) >= base
    assert u.norm(NormParams(0.2, 0.8, 2.0)) >= base


def test_norm_log_space_extremes():
    # rows far beyond the overflow point of exp(2 sigma l) must still count
    u = CoeffField.zeros(600, 0)
    u.u[599, 0] = 1e-250
    n = u.norm(NormParams(1.0, 1.0, 2.0))
    expected = 1e-250 * np.sqrt(2.0) * np.exp(599.0) * 599.0
    assert np.isfinite(n) and abs(n / expected - 1) < 1e-12


def test_multiply_time_convolution():
    a = from_mode(2, 0, 0.5)  # cos(2t)
    b = from_mode(3, 0, 0.5)  # cos(3t)
    p = field_multiply(a, b)
    # cos2t cos3t = 1/2 cos t + 1/2 cos 5t -> stored 0.25 at rows 1 and 5
    expected = np.zeros((6, 1))
    expected[1, 0] = 0.25
    expected[5, 0] = 0.25
    assert np.allclose(p.u, expected, atol=1e-15)


def test_cube_of_one_mode():
    # (cos(w_m t) e_m)^3 = (3/4 cos(w_m t) + 1/4 cos(3 w_m t)) e_m^3
    from resonant_kg.spherical_basis import eigen_product
    for m in (0, 1, 3):
        wm = m + 1
        u = from_mode(wm, m, 0.5)  # cos(w_m t) e_m
        cube = field_multiply(field_multiply(u, u), u)
        em3 = profile_product(eigen_product(m, m), np.eye(m + 1)[m])
        assert np.allclose(cube.u[wm, : len(em3)], (3.0 / 8.0) * em3, atol=1e-14)
        assert np.allclose(cube.u[3 * wm, : len(em3)], (1.0 / 8.0) * em3, atol=1e-14)
        others = np.ones(cube.L + 1, dtype=bool)
        others[[wm, 3 * wm]] = False
        assert np.abs(cube.u[others]).max() < 1e-15


def _scatter_product(a, b):
    """Direct accumulation of the product rule, pair by pair (the oracle)."""
    from resonant_kg.spherical_basis import eigen_product
    La, Ja = a.shape[0] - 1, a.shape[1] - 1
    Lb, Jb = b.shape[0] - 1, b.shape[1] - 1
    out = np.zeros((La + Lb + 1, Ja + Jb + 1))
    for p in range(-La, La + 1):
        for q in range(-Lb, Lb + 1):
            if p + q >= 0:
                pair = np.outer(a[abs(p)], b[abs(q)])
                for j in range(Ja + 1):
                    for k in range(Jb + 1):
                        e = eigen_product(j, k)
                        out[p + q, : len(e)] += pair[j, k] * e
    return out


@pytest.mark.parametrize("L, J", [(16, 18), (8, 50)])
def test_product_kernel_exact_on_tiny_rows(rng, L, J):
    # non-negative fields whose upper half of time rows sits near 1e-200: the
    # product is a plain sum of its own non-negative terms, so the kernel must
    # match the scatter oracle entrywise in relative terms
    fields = []
    for Jf in (J, J // 2):
        u = rng.random((L + 1, Jf + 1))
        u[L // 2:] *= 1e-200
        fields.append(u)
    a, b = fields
    ref = _scatter_product(a, b)
    got = field_multiply(CoeffField(a), CoeffField(b)).u
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    assert np.count_nonzero((ref > 0) & (ref < 1e-150)) > 0
    for la, lb in ((0, 0), (0, L), (L, L // 2 + 1), (L - 1, 1)):
        ref = _scatter_product(a[la : la + 1], b[lb : lb + 1])[0]
        got = profile_product(a[la], b[lb])
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def _on_pattern(rng, L, J, rows, cols):
    """Non-negative field supported on the given rows and columns, upper rows near 1e-200."""
    u = np.zeros((L + 1, J + 1))
    u[np.ix_(rows, cols)] = rng.random((len(rows), len(cols))) + 0.1
    u[L // 2:] *= 1e-200
    return u


_ODD = np.arange(1, 25, 2)


@pytest.mark.parametrize("pattern_a, pattern_b", [
    # the m = 1 pattern: l = 2 mod 4, odd j; with q on l = 0 mod 4, even j
    ((np.arange(2, 25, 4), np.arange(1, 10, 2)), (np.arange(2, 25, 4), np.arange(1, 8, 2))),
    ((np.arange(0, 25, 4), np.arange(0, 11, 2)), (np.arange(2, 25, 4), np.arange(1, 8, 2))),
    # the m = 0 pattern: odd l, one column
    ((_ODD, [0]), (_ODD, [0])),
    # mixed strides: l = 2 mod 4 times odd l
    ((np.arange(2, 25, 4), [0, 3]), (_ODD, [1, 2])),
    # a gap inside a progression
    ((np.delete(_ODD, 3), [0, 2]), (_ODD[:-2], [0, 2, 4])),
    # one nonzero row, at l = 0
    (([0], [1, 3]), (_ODD, [0, 2])),
    (([0], [2]), ([0], [0, 1])),
])
def test_strided_kernel_matches_scatter_oracle(rng, pattern_a, pattern_b):
    a = _on_pattern(rng, 24, 10, *pattern_a)
    b = _on_pattern(rng, 24, 7, *pattern_b)
    ref = _scatter_product(a, b)
    got = field_multiply(CoeffField(a), CoeffField(b)).u
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    if a[12:].any() or b[12:].any():
        assert np.count_nonzero((ref > 0) & (ref < 1e-150)) > 0


def test_kernel_zero_operand_keeps_shape(rng):
    a = CoeffField(_on_pattern(rng, 9, 3, _ODD[:5], [0, 2]))
    for x, y in ((a, CoeffField.zeros(5, 4)), (CoeffField.zeros(5, 4), a),
                 (CoeffField.zeros(2, 0), CoeffField.zeros(0, 3))):
        p = field_multiply(x, y)
        assert p.u.shape == (x.L + y.L + 1, x.J + y.J + 1)
        assert not p.u.any()


def test_kernel_nan_reaches_the_product(rng):
    a = _on_pattern(rng, 12, 4, _ODD[:6], [0, 2, 4])
    for row, col in ((3, 2), (0, 1), (12, 4)):
        bad = np.zeros_like(a)
        bad[row, col] = np.nan
        for other in (a, np.eye(13, 5)[::-1], np.eye(1, 1)):
            for x, y in ((bad, other), (other, bad)):
                assert not np.isfinite(field_multiply(CoeffField(x), CoeffField(y)).u).all()


def test_multiply_grid_oracle(rng):
    a = random_field(rng, 5, 4, scale=0.7, decay=0.1)
    b = random_field(rng, 4, 6, scale=0.7, decay=0.1)
    p = field_multiply(a, b)
    t = np.linspace(0.0, 2 * np.pi, 41)
    x = np.linspace(0.0, np.pi, 37)
    lhs = evaluate_field(p, t, x)
    rhs = evaluate_field(a, t, x) * evaluate_field(b, t, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.abs(rhs).max())


def test_fold_entries_read_past_the_stack_as_exact_zeros(rng):
    # the stack holds S_d for q's time rows only: a gather at d past its end
    # equals, bit for bit, the gather from the same stack padded with zero
    # slices, and the last slice (a NaN in it) does not leak past the end
    q = random_field(rng, 3, 4, scale=0.7, decay=0.1)
    stack = multiplication_matrix(q.u, 6)
    stack[-1, 0, 0] = np.nan
    padded = np.concatenate([stack, np.zeros((12, 6, 6))])
    l_out, l_in = np.arange(8)[:, None], np.arange(8)[None, :]
    j_out, j_in = rng.integers(0, 6, (8, 1)), rng.integers(0, 6, (1, 8))
    got = fold_entries(stack, l_out, j_out, l_in, j_in)
    want = fold_entries(padded, l_out, j_out, l_in, j_in)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    beyond = (np.abs(l_out - l_in) > q.L) & (l_out + l_in > q.L)
    assert beyond.sum() == 20 and np.all(got[beyond] == 0.0)


def test_operations_commute_with_evaluation(rng):
    u = random_field(rng, 6, 5, scale=0.5, decay=0.2)
    t = np.linspace(0.0, 2 * np.pi, 33)
    x = np.linspace(0.0, np.pi, 29)
    # d_tt via second differences of the evaluation: the wave symbol at
    # omega = 1 less the one at omega = 0 multiplies entry (l, j) by l^2
    h = 1e-4
    num = (evaluate_field(u, t + h, x) - 2 * evaluate_field(u, t, x)
           + evaluate_field(u, t - h, x)) / h ** 2
    minus_dtt = u.apply_wave_symbol(1.0) - u.apply_wave_symbol(0.0)
    assert np.max(np.abs(-evaluate_field(minus_dtt, t, x) - num)) < 1e-5
    # projections: kernel + range = identity on the grid
    vk = project_kernel(u)
    vr = project_range(u)
    assert np.allclose(evaluate_field(vk, t, x) + evaluate_field(vr, t, x),
                       evaluate_field(u, t, x), atol=1e-12)


def test_algebra_ratio_uniformly_bounded(rng):
    # ||uv|| <= C ||u|| ||v||: the ratio must not grow with truncation size
    p = NormParams(0.3, 1.0, 2.0)
    ratios = {}
    for L, J in ((4, 4), (8, 8), (16, 16)):
        worst = 0.0
        for _ in range(25):
            a = random_field(rng, L, J, decay=0.4)
            b = random_field(rng, L, J, decay=0.4)
            r = field_multiply(a, b).norm(p) / (a.norm(p) * b.norm(p))
            worst = max(worst, r)
        ratios[(L, J)] = worst
    assert ratios[(16, 16)] <= 1.2 * max(ratios[(4, 4)], ratios[(8, 8)]) + 0.5
    assert max(ratios.values()) < 12.0  # frozen envelope, observed max ~2.5


def test_projections():
    u = from_mode(3, 2, 1.0, L=4, J=4)  # l = 3 = omega_2: kernel mode
    assert project_kernel(u).u[3, 2] == 1.0
    assert project_range(u).u[3, 2] == 0.0
    u0 = from_mode(0, 3, 1.0, L=2, J=4)
    assert project_range(u0).u[0, 3] == 1.0  # l=0 is never resonant


def test_projector_algebra(rng):
    u = random_field(rng, 7, 7, decay=0.1)
    u = CoeffField(u.u + np.random.default_rng(3).standard_normal(u.u.shape) * 0.2)
    pk, pr = project_kernel(u), project_range(u)
    assert np.allclose((pk + pr).u, u.u)
    assert np.allclose(project_kernel(pk).u, pk.u)       # idempotent
    assert np.allclose(project_range(pr).u, pr.u)
    assert np.abs(project_kernel(pr).u).max() == 0.0     # Pi_V Pi_W = 0
    assert not np.any(pk.u * pr.u)                       # disjoint supports


def test_time_cutoff_and_resonant_mode():
    u = from_mode(5, 1, 2.0, L=6, J=3)
    assert np.abs(time_cutoff(u, 4).u).max() == 0.0
    # row l of the range drops exactly the resonant mode e_{l-1}
    ones = project_range(CoeffField(np.ones((4, 6))))
    assert ones.u[3, 2] == 0.0
    assert np.count_nonzero(ones.u[3]) == 5
    assert np.all(ones.u[0] == 1.0)  # identity at l = 0


def test_symbols():
    u = from_mode(3, 2, 1.0)
    assert u.apply_wave_symbol(0.0).u[3, 2] == -9.0  # -A: omega_2^2 = 9
    assert u.apply_wave_symbol(1.0).u[3, 2] == 0.0   # l^2 = omega_2^2: a kernel entry
    om = 1.1
    assert abs(u.apply_wave_symbol(om).u[3, 2] - (om ** 2 * 9 - 9)) < 1e-14


def test_smoothing_examples(rng):
    u = from_mode(10, 0, 1.0)
    res = smoothing_bound_check(u, 1.0, 0.5, 8, s=1.0)
    assert res and abs(res.lhs / res.rhs - np.exp(-5.0) / np.exp(-4.0)) < 1e-12
    res_eq = smoothing_bound_check(u, 1.0, 1.0, 8, s=1.0)
    assert res_eq and res_eq.lhs <= res_eq.rhs * (1 + 1e-12)
    tail = random_field(rng, 40, 4, decay=0.3)
    tail.u[:17, :] = 0.0
    assert smoothing_bound_check(tail, 0.6, 0.5, 16, s=1.0)
    with pytest.raises(ValueError):
        smoothing_bound_check(from_mode(3, 0, 1.0), 1.0, 0.5, 8)
    with pytest.raises(ValueError):
        smoothing_bound_check(u, 0.5, 1.0, 8)


def test_trade_examples(rng):
    u = random_field(rng, 12, 4, decay=0.2)
    # beta = 0: plain monotonicity in sigma
    assert sobolev_trade_check(u, 0.1, 0.0, 0.5, 1.0)
    # single mode: ratio exp(-alpha l) <l>^beta <= sup bound (numeric maximization)
    alpha, beta = 0.07, 1.7
    xs = np.linspace(0.0, 2000.0, 400001)
    sup_num = np.max(np.exp(-alpha * xs) * np.maximum(xs, 1.0) ** beta)
    assert sup_num <= trade_bound_constant(alpha, beta) * (1 + 1e-9)
    for ell in (0, 3, 17):
        mode = from_mode(ell, 2, 1.0)
        r = sobolev_trade_check(mode, alpha, beta, 0.5, 1.0)
        assert r and abs(r.lhs / mode.norm(NormParams(0.5, 1.0))
                         - np.exp(-alpha * ell) * max(ell, 1) ** beta) < 1e-10
    assert sobolev_trade_check(u, 0.05, 2.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        sobolev_trade_check(u, 0.6, 1.0, 0.5, 1.0)


def test_truncate_reports_discarded_norm(rng):
    u = random_field(rng, 9, 7, decay=0.1)
    params = NormParams(0.4, 1.0, 2.0)
    kept, disc = u.truncate(5, 3, params)
    assert kept.L == 5 and kept.J == 3
    # disjoint supports: norms combine by Pythagoras
    assert abs(kept.norm(params) ** 2 + disc ** 2 - u.norm(params) ** 2) \
        < 1e-10 * u.norm(params) ** 2


def test_serialization_roundtrip(tmp_path, rng):
    u = random_field(rng, 6, 5, decay=0.1)
    path = tmp_path / "field.bin"
    save_field(u, path)
    v = load_field(path)
    assert v.L == u.L and v.J == u.J
    assert np.array_equal(v.u, u.u)  # bit-exact round trip
    csv_path = tmp_path / "field.csv"
    field_to_csv(u, csv_path)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "ell,j,value"
    ell, j, val = rows[1].split(",")
    assert u.u[int(ell), int(j)] == float(val)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + b"\0" * 32)
        load_field(bad)


_field_shapes = st.tuples(st.integers(0, 12), st.integers(0, 12))


@st.composite
def _fields(draw):
    L, J = draw(_field_shapes)
    return CoeffField(draw(hnp.arrays(np.float64, (L + 1, J + 1), elements=st.floats())))


@settings(max_examples=60, deadline=None)
@given(_fields())
def test_field_file_roundtrip_is_bit_exact(f):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.field")
        save_field(f, path)
        g = load_field(path)
    assert (g.L, g.J) == (f.L, f.J)
    assert g.u.tobytes() == f.u.tobytes()  # NaN payloads and signed zeros too


@settings(max_examples=60, deadline=None)
@given(_fields(), st.data())
def test_field_file_rejects_truncation_and_trailing_bytes(f, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.field")
        save_field(f, path)
        good = open(path, "rb").read()
        cut = data.draw(st.integers(0, len(good) - 1), label="cut")
        extra = data.draw(st.binary(min_size=1, max_size=16), label="extra")
        for bad in (good[:cut], good + extra):
            with open(path, "wb") as fh:
                fh.write(bad)
            with pytest.raises(ValueError, match="f.field"):
                load_field(path)


@pytest.mark.parametrize("change", [{"dtype": "<f4"}, {"L": -1}, {"J": 2.0},
                                    {"L": True}, {"convention": "exp"}, {"J": None}])
def test_field_file_rejects_bad_header(tmp_path, change):
    header = {"L": 1, "J": 1, "convention": "cos-halfline", "dtype": "<f8"}
    header.update(change)
    header = {k: v for k, v in header.items() if v is not None}
    text = json.dumps(header).encode()
    path = tmp_path / "bad.field"
    path.write_bytes(b"RKGF" + np.uint32(len(text)).tobytes() + text + bytes(32))
    with pytest.raises(ValueError, match="bad.field"):
        load_field(path)
