import json
import os

import numpy as np
import pytest

from resonant_kg import SolverConfig, load_field, run
from resonant_kg.cli import main


def solve_args(out, eps="1e-3", stages="2", extra=()):
    return ["solve", "--eps", eps, "--m", "0", "--stages", stages,
            "--no-divisors", "--out", str(out), *extra]


def test_solve_writes_roundtrippable_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(solve_args(out)) == 0
    names = {"solution.field", "range_part.field", "kernel.json", "trace.jsonl",
             "residual_report.json", "solution.csv", "manifest.json"}
    assert names <= set(os.listdir(out))
    manifest = json.loads((out / "manifest.json").read_text())
    for key, fname in manifest["artifacts"].items():
        assert (out / fname).exists()
    u = load_field(out / "solution.field")
    assert abs(2 * u.u[1, 0] - np.sqrt(4.0 / 3.0)) < 0.01
    report = json.loads((out / "residual_report.json").read_text())
    assert report["relative"] < 1e-10
    # golden comparison: the CLI output equals the library result bit-for-bit
    config = SolverConfig(**manifest["config"])
    lib = run(config)
    assert np.array_equal(lib.u.u, u.u)
    assert lib.trace.to_jsonl() == (out / "trace.jsonl").read_text()


def test_solve_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(solve_args(out1)) == 0
    assert main(solve_args(out2)) == 0
    for name in ("solution.field", "range_part.field", "trace.jsonl",
                 "residual_report.json", "solution.csv", "kernel.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_zero_amplitude(tmp_path):
    out = tmp_path / "zero"
    assert main(solve_args(out, eps="0")) == 0
    u = load_field(out / "solution.field")
    w = load_field(out / "range_part.field")
    assert np.abs(w.u).max() == 0.0
    assert np.count_nonzero(u.u) == 1  # just the kernel mode


def test_solve_excluded_amplitude_exits_2(tmp_path):
    eps = 101.0 ** 2 / 100.0 ** 2 - 1.0
    out = tmp_path / "excl"
    code = main(solve_args(out, eps=repr(eps), stages="4"))
    assert code == 2
    rows = (out / "melnikov_failures.csv").read_text().strip().splitlines()
    assert rows[0].startswith("ell,")
    assert any(row.startswith("100,100,") for row in rows[1:])


def test_usage_errors_exit_64(tmp_path, capsys):
    assert main([]) == 64
    assert main(["solve", "--eps"]) == 64
    assert main(["frobnicate"]) == 64
    # BLAS threads are set by the environment before launch, not by a flag
    assert main(["--threads", "1", "solve", "--eps", "1e-3",
                 "--out", str(tmp_path / "t")]) == 64
    # invalid parameter combinations are usage errors, not crashes
    assert main(["solve", "--eps", "1e-3", "--gamma", "0.3",
                 "--out", str(tmp_path / "x")]) == 64
    assert main(["measure", "--eta", "0.04", "--gamma", "0.3",
                 "--out", str(tmp_path / "m.json")]) == 64


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"), MemoryError()])
def test_linalg_and_memory_errors_exit_1(tmp_path, capsys, monkeypatch, error):
    from resonant_kg import nash_moser

    def fail(config):
        raise error
    monkeypatch.setattr(nash_moser, "run", fail)
    assert main(solve_args(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


def test_neumann_solve_failure_exits_1(tmp_path, capsys, monkeypatch):
    from resonant_kg import linearized
    monkeypatch.setattr(linearized, "_MAX_SWEEPS", 1)
    assert main(solve_args(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "numeric failure: Neumann iteration at L_n=16 did not settle by sweep 1" in err
    assert "Traceback" not in err


def test_solve_verbose_logs_one_line_per_stage(tmp_path, capsys):
    assert main(solve_args(tmp_path / "quiet")) == 0
    assert capsys.readouterr().err == ""
    assert main(solve_args(tmp_path / "loud", extra=("--verbose",))) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" L_n=")[0] for line in lines] == ["stage 1", "stage 2"]
    for line, L_n in zip(lines, (16, 32)):
        assert f"L_n={L_n} unknowns=" in line
        for key in ("picard_iters=", "neumann_sweeps=", "power_steps=", "assembly_s=",
                    "picard_s=", "inverse_norm_s=", "divisor_table_s="):
            assert key in line
    # the timings go to stderr only: the trace is the same bytes
    assert (tmp_path / "loud" / "trace.jsonl").read_bytes() == \
        (tmp_path / "quiet" / "trace.jsonl").read_bytes()


def test_measure_command(tmp_path):
    out = tmp_path / "measure.json"
    code = main(["measure", "--eta", "0.04", "--eta", "0.02",
                 "--samples", "2000", "--solve-grid", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["reports"]) == 2
    assert payload["fitted_exponent"] is not None
    for rep in payload["reports"]:
        assert abs(rep["fraction_mc"] - rep["fraction_interval"]) \
            <= 3.0 / np.sqrt(rep["samples"])
    # insufficient solve grid
    assert main(["measure", "--eta", "0.04", "--solve-grid", "1",
                 "--out", str(tmp_path / "x.json")]) == 65


def test_measure_bad_window_or_samples_exit_64(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["measure", "--eta", "0.04", "--eta", "0", "--solve-grid", "2",
                 "--out", str(out)]) == 64
    assert main(["measure", "--eta", "0.04", "--samples", "0", "--solve-grid", "2",
                 "--out", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "eta must be positive" in err and "samples must be at least 1" in err


def test_divisors_and_spectrum(tmp_path):
    out = tmp_path / "run"
    assert main(solve_args(out)) == 0
    assert main(["divisors", "--run", str(out)]) == 0
    rows = (out / "divisors.csv").read_text().strip().splitlines()
    assert rows[0] == "ell,alpha,j_min,floor,ok"
    assert all(row.rsplit(",", 1)[1] == "1" for row in rows[1:])  # floor holds
    assert main(["spectrum", "--run", str(out), "--ell-max", "4"]) == 0
    srows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert srows[0] == "ell,j,lambda"
    # eps is small: lambda_{l,j} ~ omega_j^2
    ell, j, lam = srows[1].split(",")
    assert abs(float(lam) - (int(j) + 1.0) ** 2) < 0.1
    # missing artifacts
    assert main(["divisors", "--run", str(tmp_path / "nope")]) == 66
    assert main(["spectrum", "--run", str(tmp_path / "nope")]) == 66


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(solve_args(out)) == 0
    rep_path = tmp_path / "verify.json"
    assert main(["verify", "--field", str(out / "solution.field"),
                 "--eps", "1e-3", "--out", str(rep_path)]) == 0
    report = json.loads(rep_path.read_text())
    assert report["relative"] < 1e-10
    # tamper with one coefficient: the report must show it
    u = load_field(out / "solution.field")
    u.u[3, 0] += 1e-5
    from resonant_kg import save_field
    save_field(u, out / "tampered.field")
    assert main(["verify", "--field", str(out / "tampered.field"),
                 "--eps", "1e-3", "--out", str(rep_path)]) == 0
    assert json.loads(rep_path.read_text())["relative"] > 1e-7
    assert main(["verify", "--field", str(tmp_path / "missing.field"),
                 "--eps", "1e-3"]) == 66


def test_measure_sampling_stability(tmp_path):
    # halving the sample count moves the fraction by less than 3/sqrt(samples)
    fracs = {}
    for n in (1000, 2000):
        out = tmp_path / f"m{n}.json"
        assert main(["measure", "--eta", "0.04", "--samples", str(n),
                     "--solve-grid", "2", "--out", str(out)]) == 0
        fracs[n] = json.loads(out.read_text())["reports"][0]["fraction_mc"]
    assert abs(fracs[1000] - fracs[2000]) < 3.0 / np.sqrt(1000)


def test_corrupt_artifacts_exit_66(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(solve_args(out)) == 0
    good = (out / "range_part.field").read_bytes()
    capsys.readouterr()
    for name, data in (("truncated", good[:-5]), ("trailing", good + b"\0" * 8)):
        path = tmp_path / f"{name}.field"
        path.write_bytes(data)
        assert main(["verify", "--field", str(path), "--eps", "1e-3"]) == 66
        assert str(path) in capsys.readouterr().err
    # a run directory whose range part is cut short
    (out / "range_part.field").write_bytes(good[:-5])
    assert main(["divisors", "--run", str(out)]) == 66
    assert main(["spectrum", "--run", str(out), "--ell-max", "2"]) == 66
    assert "range_part.field" in capsys.readouterr().err
    (out / "range_part.field").write_bytes(good)
    (out / "kernel.json").write_text("{not json")
    assert main(["divisors", "--run", str(out)]) == 66
    assert "kernel.json" in capsys.readouterr().err
