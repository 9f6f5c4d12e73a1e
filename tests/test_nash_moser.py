import json

import numpy as np
import pytest

from resonant_kg import (CoeffField, NormParams, field_multiply, project_kernel,
                         project_range)
from resonant_kg.bifurcation import one_mode_solution, total_field
from resonant_kg.nash_moser import (PICARD_MAX, PICARD_TOL, ContractionError,
                                    MelnikovExcludedError, SolverConfig, _contract,
                                    continue_branch, run, solve_stage, solve_stage0,
                                    verify_solution)

from oracles import trace_from_jsonl


def small_config(**kw):
    base = dict(eps=1e-3, m=0, n_max=3)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=1e-3, gamma=0.3)
    with pytest.raises(ValueError):
        SolverConfig(eps=1e-3, tau=2.4)
    with pytest.raises(ValueError):
        SolverConfig(eps=1e-3, s=0.4)
    with pytest.raises(ValueError):
        SolverConfig(eps=1e-3, theta=0.5)  # pi^2 theta/6 >= sigma_bar/2
    for theta in (0.0, -1.0):  # strips that would stay put or grow
        with pytest.raises(ValueError, match="0 < pi"):
            SolverConfig(eps=1e-3, theta=theta)
    with pytest.raises(ValueError):
        SolverConfig(eps=1e-3, m=3, J_space=1)
    cfg = SolverConfig(eps=1e-3)
    assert cfg.sigma_inf > cfg.sigma_bar / 2.0
    sig = cfg.sigmas()
    assert sig[0] == cfg.sigma_bar
    assert abs(sig[1] - (cfg.sigma_bar - cfg.theta / 2.0)) < 1e-15
    assert all(s > cfg.sigma_bar / 2 for s in sig)
    for name in ("eps", "gamma", "tau", "sigma_bar", "s", "theta"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(**{"eps": 1e-3, name: bad})


def test_stage0_zero_amplitude():
    w, kernel, rec = solve_stage0(small_config(eps=0.0))
    assert np.abs(w.u).max() == 0.0
    assert rec.h_norm == 0.0
    assert abs(kernel.kernel.v[0] - np.sqrt(4.0 / 3.0)) < 1e-15


def test_stage0_properties():
    cfg = small_config()
    w, kernel, rec = solve_stage0(cfg)
    params = NormParams(cfg.sigma_bar, cfg.s)
    # O(eps) size and no kernel component
    assert 0.1 < rec.h_norm / cfg.eps < 100.0
    assert np.abs(project_kernel(w).u).max() == 0.0
    # fixed-point residual below the reported certificate
    assert rec.stage_residual < 1e-12
    assert rec.inverse_norm <= 2.0  # initialization symbol bound


def test_stage0_updates_contract(monkeypatch):
    # each Picard update of stage 0 is below half the one before, for as long
    # as both lie above ten times the loop's stopping level
    from resonant_kg import nash_moser
    contract, updates = nash_moser._contract, []

    def recording(step, x, params, label):
        def traced(x):
            x_new = step(x)
            updates.append(((x_new - x).norm(params),
                            10 * PICARD_TOL * max(1.0, x_new.norm(params))))
            return x_new
        return contract(traced, x, params, label)
    monkeypatch.setattr(nash_moser, "_contract", recording)
    solve_stage0(small_config())
    pairs = [(a, b) for (a, fa), (b, fb) in zip(updates, updates[1:]) if a > fa and b > fb]
    assert len(pairs) >= 2
    assert all(b < 0.5 * a for a, b in pairs), updates


def test_stage0_precondition():
    with pytest.raises(ContractionError):
        solve_stage0(SolverConfig(eps=0.3, m=0, L0=8))


def test_run_certificates_and_bounds():
    cfg = small_config()
    res = run(cfg)
    assert len(res.trace.records) == cfg.n_max + 1
    chi = 1.5
    for rec in res.trace.records:
        assert rec.stage_residual <= 1e-9
        assert rec.melnikov_ok
        # superexponential decay bound (one-sided)
        assert cfg.gamma * rec.h_norm / cfg.eps <= np.exp(-chi ** rec.n) * (1 + 1e-12)
        if rec.n >= 1:
            assert rec.inverse_norm <= rec.inverse_bound
            # newly resolved band obeys the smoothing estimate
            assert rec.r_norm <= rec.r_smoothing_bound * (1 + 1e-12)
    assert res.residual.relative < 1e-10


def test_run_is_deterministic():
    a = run(small_config(n_max=2)).trace.to_jsonl()
    b = run(small_config(n_max=2)).trace.to_jsonl()
    assert a == b


def test_trace_roundtrip(tmp_path):
    res = run(small_config(n_max=1))
    path = tmp_path / "trace.jsonl"
    res.trace.to_jsonl(path)
    back = trace_from_jsonl(path)
    assert back.to_jsonl() == res.trace.to_jsonl()


def test_scaling_of_solution_with_eps():
    params = NormParams(0.5, 1.0)
    ratios = []
    for eps in (2e-4, 1e-3, 5e-3):
        res = run(small_config(eps=eps, n_max=2))
        ratios.append(res.w.norm(params) / eps)
    assert max(ratios) / min(ratios) < 1.5  # ||w|| / eps approximately constant


def test_solution_leading_shape():
    cfg = small_config()
    res = run(cfg)
    alpha = np.sqrt(4.0 / 3.0)
    assert abs(2 * res.u.u[1, 0] - alpha) < 0.01 * alpha
    rem = res.u.copy()
    rem.u[1, 0] = 0.0
    params = NormParams(cfg.sigma_bar / 2, cfg.s)
    assert rem.norm(params) < 50 * cfg.eps  # corrections are O(eps)


def test_branches_are_distinct():
    eps = 1e-3
    r0 = run(small_config(eps=eps, n_max=2))
    r1 = run(SolverConfig(eps=eps, m=1, n_max=2))
    params = NormParams(0.5, 1.0)
    diff = (r0.u - r1.u).norm(params)
    alpha0 = np.sqrt(4.0 / 3.0)
    assert diff >= 0.9 * alpha0


def _off_pattern(f, step, first, parity):
    """Entries of f outside the rows l = first (mod step) and columns j = parity (mod 2)."""
    ell, j = np.ogrid[: f.L + 1, : f.J + 1]
    return f.u[(ell % step != first) | (j % 2 != parity)]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_branch_keeps_the_kernel_mode_symmetry(m):
    # the cubic nonlinearity keeps the symmetry of the kernel mode (l, j) =
    # (omega_m, m): u lives on l = omega_m (mod 2 omega_m), j = m (mod 2) and
    # q = u^2 on l = 0 (mod 2 omega_m), j even; the speed of field_multiply's
    # strides and of the operator's live S_d rests on these exact zeros
    from resonant_kg.linearized import assemble_linearized
    cfg = SolverConfig(eps=2e-3, m=m, n_max=2)
    res = run(cfg)
    wm = m + 1
    op = assemble_linearized(cfg.eps, res.w, res.kernel, cfg.L(cfg.n_max), cfg.J_space)
    assert np.count_nonzero(res.u.u) > 0 and np.count_nonzero(op.q.u) > 0
    assert not _off_pattern(res.u, 2 * wm, wm, m % 2).any()
    assert not _off_pattern(op.u, 2 * wm, wm, m % 2).any()
    assert not _off_pattern(op.q, 2 * wm, 0, 0).any()


def test_melnikov_exclusion_raised():
    # omega(eps) * 100 = 101 exactly: stage with L_n >= 100 must exclude it
    eps = 101.0 ** 2 / 100.0 ** 2 - 1.0
    cfg = SolverConfig(eps=eps, m=0, n_max=4)
    with pytest.raises(MelnikovExcludedError) as ei:
        run(cfg)
    assert ei.value.stage == 4
    assert any(r.ell == 100 and r.j == 100 for r in ei.value.records)
    # earlier stages have no binding pair for this amplitude
    cfg_short = SolverConfig(eps=eps, m=0, n_max=3)
    assert all(r.melnikov_ok for r in run(cfg_short).trace.records)
    # the uncertified continuation runs no check, and its truncated solve
    # still proceeds: the resonant space mode j = 100 lies outside the m = 0
    # spatial truncation, and the true divisor is shifted off zero by the
    # potential mean
    w, v = continue_branch(cfg)
    assert verify_solution(total_field(v, w), cfg).relative < 1e-10


@pytest.mark.parametrize("m", [0, 1])
def test_continue_branch_is_run_without_its_certificate(m, monkeypatch):
    # on a certified amplitude the continuation returns run's branch bit for
    # bit, and no part of the certificate runs: each one raises if called
    from resonant_kg import linearized, nash_moser
    cfg = SolverConfig(eps=2e-3, m=m, n_max=2)
    res = run(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("the continuation ran a certificate")
    monkeypatch.setattr(linearized.LinearizedOperator, "inverse_norm", refuse)
    monkeypatch.setattr(nash_moser, "divisor_table", refuse)
    monkeypatch.setattr(nash_moser, "check_stage_conditions", refuse)
    w, v = continue_branch(cfg)
    assert (w.u.shape, w.u.tobytes()) == (res.w.u.shape, res.w.u.tobytes())
    assert v.v.tobytes() == res.kernel.v.tobytes()


def test_verify_solution_identities():
    # zero field: zero residual
    z = verify_solution(CoeffField.zeros(4, 2), SolverConfig(eps=1e-3))
    assert all(v == 0.0 for v in z.norms.values())
    # u = one-mode kernel solution: residual is exactly -eps * Pi_W(v^3)
    eps = 1e-2
    v = one_mode_solution(1)
    u = v.embed()
    rep = verify_solution(u, SolverConfig(eps=eps))
    omega = np.sqrt(1 + eps)
    cube = field_multiply(field_multiply(u, u), u)
    expected = (u.padded(cube.L, cube.J).apply_wave_symbol(omega) - eps * cube)
    # kernel part of L_omega u is eps*A v which cancels eps*Pi_V(v^3)
    kernel_part = project_kernel(expected)
    assert np.abs(kernel_part.u).max() < 1e-13
    manual = -eps * project_range(cube)
    p = NormParams(0.0, 1.0)
    assert abs(expected.norm(p) - manual.norm(p)) < 1e-12 * manual.norm(p)
    assert abs(rep.norms["sigma=0,s=1,r=2"] - manual.norm(p)) < 1e-12 * manual.norm(p)


def test_verify_detects_tampering():
    res = run(small_config(n_max=2))
    clean = verify_solution(res.u, SolverConfig(eps=1e-3)).relative
    tampered = res.u.copy()
    tampered.u[3, 0] += 1e-6
    dirty = verify_solution(tampered, SolverConfig(eps=1e-3)).relative
    assert dirty > 1e3 * max(clean, 1e-300)


def test_spatial_decay_diagnostic():
    res = run(SolverConfig(eps=2e-3, m=1, n_max=2))
    assert res.residual.superpolynomial_ok
    profile = dict(res.residual.spectral_decay)
    assert profile[1] > 0.5          # leading mode
    assert profile[13] < 1e-10       # deep spatial tail


def test_late_stage_vanishes():
    # once the truncation resolves the solution, new bands are numerically zero
    res = run(small_config(n_max=3))
    assert res.trace.records[-1].h_norm < 1e-14
    assert res.trace.records[-1].picard_iters <= 2


def test_other_branches_smoke():
    # the equation is odd: the branch through -alpha_0 is -u, with the same residual
    config = small_config(n_max=2)
    u = run(config).u
    assert verify_solution(-1.0 * u, config) == verify_solution(u, config)
    # m = 2: leading coefficient alpha_2 = 2, deeper spatial coupling
    r2 = run(SolverConfig(eps=1e-3, m=2, n_max=2))
    assert abs(2 * r2.u.u[3, 2] - 2.0) < 0.01
    assert r2.residual.relative < 1e-8


def test_low_mode_defect_reaches_roundoff_on_m2():
    # each stage also corrects the defect its predecessor left on l <= L_cur
    # (the Picard loop's kernel is first order in h): without that, m = 2
    # stalls at a relative residual of 2.6e-10
    res = run(SolverConfig(eps=2e-3, m=2, n_max=3))
    assert res.residual.relative <= 1e-13


def test_stage0_only_run():
    res = run(small_config(n_max=0))
    assert len(res.trace.records) == 1
    assert res.residual.relative < 1e-9


@pytest.mark.parametrize("slope, iterations, match", [
    (2.0, 2, "toy map iteration 2: not contracting"),  # x -> 2x + 1 grows
    (0.999, PICARD_MAX, f"toy map loop did not converge in {PICARD_MAX} iterations"),
])
def test_contract_failure_paths(slope, iterations, match):
    steps = []

    def step(x):
        steps.append(x)
        return CoeffField(slope * x.u + 1.0)

    with pytest.raises(ContractionError, match=match):
        _contract(step, CoeffField.zeros(1, 1), NormParams(0.0, 1.0), "toy map")
    assert len(steps) == iterations


def test_nonfinite_picard_update_fails_fast():
    cfg = small_config(eps=2e-3, m=1, n_max=1)
    w, kernel, _ = solve_stage0(cfg)
    w.u[3, 2] = np.nan
    with pytest.raises(ContractionError, match="stage 1 Picard iteration 1: non-finite"):
        solve_stage(0, w, kernel, cfg)


def test_stage0_nonfinite_update_fails_fast(monkeypatch):
    import resonant_kg.nash_moser as nm

    real = nm.solve_kernel

    def poisoned(*args, **kwargs):
        result = real(*args, **kwargs)
        result.cube.u[2, 0] = np.inf
        return result

    monkeypatch.setattr(nm, "solve_kernel", poisoned)
    with pytest.raises(ContractionError, match="stage-0 iteration 1: non-finite"):
        solve_stage0(small_config())


def test_run_reads_each_state_cube_from_its_kernel_solve(monkeypatch):
    # stage 0's step, the stage residuals and the next stage's Gamma read the
    # kernel solve's cube; beside the Newton products, only the assembly's
    # square, the Picard remainders and verify_solution multiply
    from resonant_kg import bifurcation, linearized
    import resonant_kg.nash_moser as nm
    calls = []

    def counted(a, b):
        calls.append(1)
        return field_multiply(a, b)
    for module in (bifurcation, linearized, nm):
        monkeypatch.setattr(module, "field_multiply", counted)
    run(SolverConfig(eps=1e-3, m=0, n_max=2))
    assert len(calls) == 30


def test_solve_stage_reads_its_state_from_the_operator(monkeypatch):
    # the Melnikov mean is read from the assembled q, not recomputed from (w, v)
    from resonant_kg import resonance
    cfg = small_config(eps=2e-3, m=1, n_max=1)
    w, kernel, _ = solve_stage0(cfg)

    def refuse(w, v):
        raise AssertionError("mean_potential recomputes q")
    monkeypatch.setattr(resonance, "mean_potential", refuse)
    _, _, rec, *_ = solve_stage(0, w, kernel, cfg)
    assert rec.melnikov_ok
    # the stage-1 correction is O(1e-2) on m = 1, so a wrong quadratic
    # remainder h'^2 (3u + h') leaves a residual far above 3.5e-13
    assert rec.stage_residual < 2e-12


def test_nonfinite_field_has_nonfinite_norm():
    f = CoeffField.zeros(3, 2)
    f.u[1, 1] = 2.0
    assert f.norm(NormParams(0.4, 1.0)) > 0.0
    f.u[2, 0] = np.nan
    assert np.isnan(f.norm(NormParams(0.4, 1.0)))


def test_inverse_norm_upper_field(tmp_path):
    # every record holds both ends of the inverse norm, and the trace keeps them
    res = run(small_config(n_max=1))
    stage0, rec = res.trace.records
    assert stage0.inverse_norm == stage0.inverse_norm_upper  # 1 / min |symbol|, exact
    assert rec.inverse_norm < rec.inverse_norm_upper < rec.inverse_bound
    path = tmp_path / "trace.jsonl"
    res.trace.to_jsonl(path)
    back = trace_from_jsonl(path)
    assert [r.inverse_norm_upper for r in back.records] == \
        [r.inverse_norm_upper for r in res.trace.records]


def test_stage_7_certifies_at_L_1024():
    # sigma_7 L_7 = 0.764 x 1024 = 782: e^(sigma l) overflows there, the
    # certificate's centred weights do not, and stages 0-6 are unchanged
    six = run(SolverConfig(eps=1e-3, m=0, n_max=6))
    seven = run(SolverConfig(eps=1e-3, m=0, n_max=7))
    last = seven.trace.records[7]
    assert last.L_n == 1024
    assert last.inverse_norm <= last.inverse_norm_upper <= last.inverse_bound
    for a, b in zip(six.trace.records, seven.trace.records):
        a, b = json.loads(a.to_json()), json.loads(b.to_json())
        assert abs(a.pop("inverse_norm") / b.pop("inverse_norm") - 1.0) <= 1e-14
        assert a == b
