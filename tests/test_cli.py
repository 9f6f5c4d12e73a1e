import json
import os

import numpy as np
import pytest

from resonant_kg import SolverConfig, __version__, load_field, run
from resonant_kg.cli import _load_run, main

from oracles import dense_block


def solve_args(out, eps="1e-3", stages="2", extra=()):
    return ["solve", "--eps", eps, "--m", "0", "--stages", stages,
            "--out", str(out), *extra]


def test_solve_writes_roundtrippable_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(solve_args(out)) == 0
    summary = capsys.readouterr().out
    names = {"solution.field", "range_part.field", "kernel.json", "trace.jsonl",
             "residual_report.json", "solution.csv", "manifest.json"}
    assert names <= set(os.listdir(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["resonant-kg"] == __version__
    for key, fname in manifest["artifacts"].items():
        assert (out / fname).exists()
    u = load_field(out / "solution.field")
    assert abs(2 * u.u[1, 0] - np.sqrt(4.0 / 3.0)) < 0.01
    report = json.loads((out / "residual_report.json").read_text())
    assert report["relative"] < 1e-10
    # the summary line gives the absolute sigma = 0 residual beside the relative one
    assert (f"residual {report['relative']:.3e} (relative), "
            f"{report['norms']['sigma=0,s=1,r=2']:.3e} (absolute, sigma = 0)") in summary
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
    assert rows[0] == "ell,j,lhs_shifted,lhs_plain,threshold"
    assert any(row.startswith("100,100,") for row in rows[1:])


def test_usage_errors_exit_64(tmp_path, capsys):
    assert main([]) == 64
    assert main(["solve", "--eps"]) == 64
    assert main(["frobnicate"]) == 64
    # BLAS threads are set by the environment before launch, not by a flag
    assert main(["--threads", "1", "solve", "--eps", "1e-3",
                 "--out", str(tmp_path / "t")]) == 64
    # every stage is certified: the divisor tables cannot be switched off
    assert main(["solve", "--eps", "1e-3", "--no-divisors",
                 "--out", str(tmp_path / "t")]) == 64
    # invalid parameter combinations are usage errors, not crashes
    assert main(["solve", "--eps", "1e-3", "--gamma", "0.3",
                 "--out", str(tmp_path / "x")]) == 64
    assert main(["measure", "--eta", "0.04", "--gamma", "0.3",
                 "--out", str(tmp_path / "m.json")]) == 64
    # non-finite values are usage errors, not numeric failures
    for flag, value in (("--eps", "nan"), ("--eps", "inf"), ("--s", "nan"),
                        ("--sigma-bar", "inf"), ("--theta", "nan")):
        args = ["solve", "--eps", "1e-3", flag, value, "--out", str(tmp_path / "x")]
        assert main(args) == 64
    # a negative --ell-max is refused before any spectrum is written
    run_dir = tmp_path / "run"
    assert main(solve_args(run_dir, stages="0")) == 0
    assert main(["spectrum", "--run", str(run_dir), "--ell-max", "-3"]) == 64
    assert not (run_dir / "spectrum.csv").exists()
    # verify takes eps under the rule of solve, before it reads the field
    capsys.readouterr()
    for value, message in (("-2", "eps must be >= 0"), ("nan", "eps must be finite"),
                           ("inf", "eps must be finite")):
        assert main(["verify", "--field", str(run_dir / "solution.field"),
                     f"--eps={value}"]) == 64
        err = capsys.readouterr().err
        assert f"invalid parameters: {message}" in err and "Traceback" not in err
    # a negative branch mode is refused before J_space is filled in or any solve runs
    capsys.readouterr()
    for args in (["solve", "--eps", "1e-3", "--m", "-1", "--j-space", "5"],
                 ["measure", "--eta", "0.01", "--m", "-1"],
                 ["solve", "--eps", "1e-3", "--m", "-1"]):
        assert main(args + ["--out", str(tmp_path / "neg")]) == 64
        err = capsys.readouterr().err
        assert "invalid parameters: m must be >= 0" in err and "Traceback" not in err


def test_stage0_bound_and_theta_are_usage_errors(tmp_path, capsys):
    # solve and measure refuse an amplitude beyond stage 0's bound alike, and
    # before any solve; verify takes a residual at any amplitude
    out = tmp_path / "big"
    assert main(solve_args(out, eps="0.2")) == 64
    assert main(["measure", "--eta", "0.2", "--out", str(tmp_path / "m.json")]) == 64
    err = capsys.readouterr().err
    for name in ("eps", "eta"):
        assert (f"invalid parameters: {name} 0.2 violates stage 0's bound "
                "eps L0 / (omega + 1) <= 1/2 at L0 = 8") in err
    assert "numeric failure" not in err and not out.exists()
    assert main(solve_args(tmp_path / "run", stages="0")) == 0
    assert main(["verify", "--field", str(tmp_path / "run" / "solution.field"),
                 "--eps", "0.2"]) == 0
    # theta <= 0 would keep the analyticity strips from shrinking
    for theta in ("0", "-1"):
        assert main(solve_args(tmp_path / "t", extra=("--theta", theta))) == 64
        assert "0 < pi^2 theta / 6 < sigma_bar / 2" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"), MemoryError()])
def test_linalg_and_memory_errors_exit_1(tmp_path, capsys, monkeypatch, error):
    from resonant_kg import nash_moser

    def fail(config):
        raise error
    monkeypatch.setattr(nash_moser, "run", fail)
    monkeypatch.setattr(nash_moser, "continue_branch", fail)
    assert main(solve_args(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err
    # the mean-curve solves of measure fail the same way
    assert main(["measure", "--eta", "0.04", "--solve-grid", "2",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "numeric failure" in capsys.readouterr().err
    # and so does a scan beyond memory, faked here: nothing is allocated
    from resonant_kg import cli, resonance

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 745. GiB")
    monkeypatch.setattr(cli, "_mean_curve", lambda grid, m: np.full(len(grid), 2.0))
    monkeypatch.setattr(resonance, "measure_scan", out_of_memory)
    assert main(["measure", "--eta", "0.01", "--samples", "100000000000",
                 "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err
    # a singular system in the scan is a numeric failure, not a usage error,
    # although LinAlgError is a ValueError
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(resonance, "measure_scan", singular)
    assert main(["measure", "--eta", "0.01", "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert "numeric failure: Singular matrix" in err and "Traceback" not in err


def test_divisors_and_spectrum_beyond_the_neumann_threshold_exit_1(tmp_path, capsys):
    # a run directory whose manifest claims eps = 0.9: eps B no longer
    # separates the eigenvalues, and both commands refuse the run
    out = tmp_path / "run"
    assert main(solve_args(out, stages="0")) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["eps"] = 0.9
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    for command, message in ((["divisors"], "does not separate"),
                             (["spectrum", "--ell-max", "2"], "does not separate")):
        assert main(command + ["--run", str(out)]) == 1
        err = capsys.readouterr().err
        assert "numeric failure: " in err and message in err and "Traceback" not in err


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
        for key in ("picard_iters=", "picard_unknowns=", "neumann_sweeps=", "power_steps=",
                    "krylov_block=", "assembly_s=", "picard_s=", "inverse_norm_s=",
                    "divisor_table_s="):
            assert key in line
        # one Neumann term bounds the inverse norm of m = 0 from above
        assert " upper_terms=1 " in line
    # stage 1 runs its Krylov steps in one block, from the top vector of
    # W D^-1 W^-1, and stage 2 in one block too
    assert " unknowns=48 " in lines[0] and " power_steps=3 krylov_block=9 " in lines[0]
    assert " unknowns=96 " in lines[1] and " krylov_block=17 " in lines[1]
    # the timings go to stderr only: the trace is the same bytes
    assert (tmp_path / "loud" / "trace.jsonl").read_bytes() == \
        (tmp_path / "quiet" / "trace.jsonl").read_bytes()


def test_solve_verbose_reports_krylov_stage(tmp_path, capsys):
    # every stage's inverse norm is a Krylov estimate in blocks of the
    # lattice, warm after stage 1
    args = ["solve", "--eps", "2e-3", "--m", "1", "--stages", "4",
            "--out", str(tmp_path / "m1"), "--verbose"]
    assert main(args) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" L_n=")[0] for line in lines] == [f"stage {k}" for k in range(1, 5)]
    steps = [int(line.split("power_steps=")[1].split()[0]) for line in lines]
    assert steps[0] <= 10 and all(1 <= k <= 5 for k in steps[1:])
    assert "L_n=128 unknowns=2432 " in lines[3]
    assert all(" upper_terms=2 " in line for line in lines)


def test_solve_manifest_records_every_stage(tmp_path, capsys):
    # the numbers of the --verbose line go to manifest.json with or without
    # --verbose, and never to the trace
    args = ["solve", "--eps", "2e-3", "--m", "1", "--stages", "4"]
    assert main(args + ["--out", str(tmp_path / "quiet")]) == 0
    assert main(args + ["--out", str(tmp_path / "loud"), "--verbose"]) == 0
    lines = capsys.readouterr().err.splitlines()
    stages = json.loads((tmp_path / "quiet" / "manifest.json").read_text())["stages"]
    counts = ("L_n", "unknowns", "picard_iters", "picard_unknowns", "power_steps",
              "krylov_block", "upper_terms")
    seconds = ("assembly_s", "picard_s", "inverse_norm_s", "divisor_table_s")
    assert [s["stage"] for s in stages] == [1, 2, 3, 4]
    for stage, line in zip(stages, lines):
        assert set(stage) == {"stage", "picard_sweeps", "norm_sweeps", "peak_rss_mb",
                              *counts, *seconds}
        for key in counts:
            assert f" {key}={stage[key]} " in line
        assert f" neumann_sweeps={stage['picard_sweeps']}+{stage['norm_sweeps']} " in line
        assert all(stage[key] >= 0.0 for key in seconds)
        assert stage["picard_sweeps"] > 0 and stage["norm_sweeps"] >= 0
    assert all(s["power_steps"] > 0 for s in stages)
    # the block of the estimate holds a part of each lattice, stage 1's too;
    # two Neumann terms bound every stage's norm from above
    assert [s["krylov_block"] for s in stages] == [50, 90, 170, 330]
    # the Picard solves run on the one block of their right-hand side
    assert [s["picard_unknowns"] for s in stages] == [32, 67, 139, 283]
    assert [s["upper_terms"] for s in stages] == [2] * 4
    # the process high-water mark: positive and never lower at a later stage
    peaks = [s["peak_rss_mb"] for s in stages]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    assert all(" peak_rss_mb=" in line for line in lines[:4])
    assert (tmp_path / "loud" / "trace.jsonl").read_bytes() == \
        (tmp_path / "quiet" / "trace.jsonl").read_bytes()
    assert "picard_unknowns" not in (tmp_path / "quiet" / "trace.jsonl").read_text()


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
        columns = rep["excluded_intervals"]
        assert sorted(columns) == ["ell", "hi", "j", "lo"]
        assert len({len(col) for col in columns.values()}) == 1 and columns["lo"]
    # insufficient solve grid
    assert main(["measure", "--eta", "0.04", "--solve-grid", "1",
                 "--out", str(tmp_path / "x.json")]) == 65


def test_measure_json_is_the_one_shot_encoding(tmp_path):
    # the reports are written one at a time; the text must still be what one
    # json.dump(payload, sort_keys=True) writes, separators and key order included
    out = tmp_path / "measure.json"
    assert main(["measure", "--eta", "0.04", "--eta", "0.02", "--samples", "500",
                 "--solve-grid", "2", "--out", str(out)]) == 0
    text = out.read_text()
    same = text == json.dumps(json.loads(text), sort_keys=True)  # no diff of 0.2 MB texts
    assert same
    assert len(json.loads(text)["reports"]) == 2


def test_measure_json_does_not_depend_on_the_slice_length(tmp_path, monkeypatch):
    # the scans, the union of their intervals and the writer all run in slices
    # of _CHUNK_PAIRS rows: slices of 64 write the same file
    from resonant_kg import resonance
    args = ["measure", "--eta", "0.04", "--eta", "0.02", "--samples", "500",
            "--solve-grid", "2", "--out"]
    assert main(args + [str(tmp_path / "whole.json")]) == 0
    monkeypatch.setattr(resonance, "_CHUNK_PAIRS", 64)
    assert main(args + [str(tmp_path / "sliced.json")]) == 0
    whole, sliced = ((tmp_path / name).read_text() for name in ("whole.json", "sliced.json"))
    assert len(json.loads(whole)["reports"][1]["excluded_intervals"]["lo"]) > 3 * 64
    same = whole == sliced  # no diff of 0.2 MB texts
    assert same


def test_measure_json_is_byte_stable(tmp_path, capsys):
    # the Monte Carlo seed is fixed and no timing goes into the file: two runs
    # with the same flags write the same bytes, and the seconds go to stdout
    args = ["measure", "--eta", "0.04", "--eta", "0.02", "--samples", "500",
            "--solve-grid", "2", "--out"]
    for name in ("a.json", "b.json"):
        assert main(args + [str(tmp_path / name)]) == 0
    first, second = ((tmp_path / name).read_bytes() for name in ("a.json", "b.json"))
    same = first == second  # no diff of 0.2 MB texts
    assert same
    assert "elapsed_s" not in json.loads(first)
    assert capsys.readouterr().out.splitlines()[-1].endswith(" s")


def test_measure_checks_its_output_before_the_solves(tmp_path, capsys, monkeypatch):
    # a directory as --out exits 66 before a single mean-curve solve, and a
    # run that fails after the check leaves no measure.json behind
    from resonant_kg import nash_moser
    calls = []

    def continue_branch(config):
        calls.append(config)
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(nash_moser, "continue_branch", continue_branch)
    args = ["measure", "--eta", "0.04", "--samples", "200", "--solve-grid", "2", "--out"]
    assert main(args + [str(tmp_path)]) == 66
    assert calls == [] and str(tmp_path) in capsys.readouterr().err
    out = tmp_path / "fresh" / "measure.json"
    assert main(args + [str(out)]) == 1
    assert len(calls) == 1 and not out.exists()


def test_measure_bad_window_or_samples_exit_64(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["measure", "--eta", "0.04", "--eta", "0", "--solve-grid", "2",
                 "--out", str(out)]) == 64
    assert main(["measure", "--eta", "0.04", "--samples", "0", "--solve-grid", "2",
                 "--out", str(out)]) == 64
    for bad in ("nan", "inf", "-inf"):
        assert main(["measure", "--eta", "0.04", "--eta", bad, "--solve-grid", "2",
                     "--out", str(out)]) == 64
    # the mean curve is solved at eps up to max(eta), which stage 0 must admit
    assert main(["measure", "--eta", "0.04", "--eta", "0.5", "--solve-grid", "2",
                 "--out", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "eta must be positive" in err and "samples must be at least 1" in err
    assert "eta 0.5 violates stage 0's bound eps L0 / (omega + 1) <= 1/2 at L0 = 8" in err
    assert main(["measure", "--eta", "0.1", "--samples", "200", "--solve-grid", "2",
                 "--out", str(out)]) == 0


def test_measure_refuses_zero_samples_before_the_solves(tmp_path, capsys, monkeypatch):
    from resonant_kg import nash_moser

    def fail(config):
        raise AssertionError("a mean-curve solve ran")
    monkeypatch.setattr(nash_moser, "continue_branch", fail)
    out = tmp_path / "sub" / "m.json"
    assert main(["measure", "--eta", "0.04", "--samples", "0", "--out", str(out)]) == 64
    assert "invalid parameters: samples must be at least 1" in capsys.readouterr().err
    assert not out.parent.exists()


def test_divisors_and_spectrum(tmp_path):
    out = tmp_path / "run"
    assert main(solve_args(out)) == 0
    assert main(["divisors", "--run", str(out)]) == 0
    rows = (out / "divisors.csv").read_text().strip().splitlines()
    assert rows[0] == "ell,alpha,j_min,floor,ok"
    assert all(row.rsplit(",", 1)[1] == "1" for row in rows[1:])  # floor holds
    assert main(["spectrum", "--run", str(out), "--ell-max", "4"]) == 0
    srows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert srows[0] == "ell,j,lambda,bound"
    # every row against the dense eigensolve of its block, labeled by continuation
    w, b0, config = _load_run(out)
    blocks = [dense_block(ell, config["eps"], b0, 2 * w.L) for ell in range(5)]
    want = np.array([(blk.ell, j, lam) for blk in blocks for j, lam in zip(blk.js, blk.lam)])
    got = np.array([row.split(",") for row in srows[1:]], dtype=float)
    assert np.array_equal(got[:, :2], want[:, :2])
    assert np.abs(got[:, 2] - want[:, 2]).max() <= 1e-10
    assert np.all(got[:, 3] <= np.spacing(np.maximum(got[:, 2], 1.0)))
    # --out in a directory that does not exist yet: it is created
    for args in (["divisors", "--run", str(out)],
                 ["spectrum", "--run", str(out), "--ell-max", "4"]):
        path = tmp_path / "missing" / args[0] / "x.csv"
        assert main(args + ["--out", str(path)]) == 0
        assert path.read_bytes() == (out / f"{args[0]}.csv").read_bytes()
    # missing artifacts
    assert main(["divisors", "--run", str(tmp_path / "nope")]) == 66
    assert main(["spectrum", "--run", str(tmp_path / "nope")]) == 66


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(solve_args(out)) == 0
    rep_path = tmp_path / "missing" / "verify.json"  # --out creates the directory
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


def _directory_as_field(tmp_path):
    return ["verify", "--field", str(tmp_path), "--eps", "1e-3"], tmp_path


def _directory_as_range_part(tmp_path):
    out = tmp_path / "run"
    assert main(solve_args(out, stages="1")) == 0
    (out / "range_part.field").unlink()
    (out / "range_part.field").mkdir()
    return ["divisors", "--run", str(out)], out / "range_part.field"


def _file_as_solve_out(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return solve_args(path, stages="1"), path


def _directory_as_measure_out(tmp_path):
    return ["measure", "--eta", "0.04", "--samples", "200", "--solve-grid", "2",
            "--out", str(tmp_path)], tmp_path


@pytest.mark.parametrize("case", [_directory_as_field, _directory_as_range_part,
                                  _file_as_solve_out, _directory_as_measure_out])
def test_inaccessible_artifact_paths_exit_66(tmp_path, capsys, case):
    # a directory where a file is read or written, or a file where the output
    # directory goes: exit 66 naming the path, not a traceback
    command, path = case(tmp_path)
    capsys.readouterr()
    assert main(command) == 66
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    if command[0] == "divisors":  # spectrum reads the same file
        command[0] = "spectrum"
        assert main(command) == 66
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err


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
    # JSON that parses but does not hold what the commands read
    kernel, manifest = json.dumps({"coefficients": [1.0, 0.0]}), (out / "manifest.json").read_text()
    no_config = json.dumps({k: v for k, v in json.loads(manifest).items() if k != "config"})
    string_eps, bad_floor, negative_eps = (json.loads(manifest) for _ in range(3))
    string_eps["config"]["eps"] = "1e-3"
    # finite values that SolverConfig refuses: no admissibility floor, a negative amplitude
    bad_floor["config"].update(gamma=0, tau=-3)
    negative_eps["config"]["eps"] = -5
    for name, kernel_text, manifest_text in (
            ("manifest.json", kernel, no_config),
            ("kernel.json", json.dumps([1.0, 0.0]), manifest),
            ("manifest.json", kernel, json.dumps(string_eps)),
            ("manifest.json", kernel, json.dumps(bad_floor)),
            ("manifest.json", kernel, json.dumps(negative_eps))):
        (out / "kernel.json").write_text(kernel_text)
        (out / "manifest.json").write_text(manifest_text)
        for command in (["divisors", "--run", str(out)],
                        ["spectrum", "--run", str(out), "--ell-max", "2"]):
            assert main(command) == 66
            err = capsys.readouterr().err
            assert name in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["kernel.json", "range_part.field"])
def test_non_finite_run_artifacts_exit_66(tmp_path, capsys, name):
    # JSON and the field format both hold NaN and inf, and JSON integers past
    # the double range: divisors and spectrum refuse them as corrupt, naming
    # the file, before any numpy warning
    from resonant_kg import save_field
    out = tmp_path / "run"
    assert main(solve_args(out, stages="1")) == 0
    path, good = out / name, (out / name).read_bytes()
    capsys.readouterr()
    for bad in (np.nan, np.inf) + ((10 ** 400,) if name == "kernel.json" else ()):
        if name == "kernel.json":
            kernel = json.loads(good)
            kernel["coefficients"][1] = bad
            path.write_text(json.dumps(kernel))
        else:
            w = load_field(path)
            w.u[2, 1] = bad
            save_field(w, path)
        for command in (["divisors", "--run", str(out)],
                        ["spectrum", "--run", str(out), "--ell-max", "2"]):
            assert main(command) == 66
            err = capsys.readouterr().err
            assert str(path) in err and "Traceback" not in err
        path.write_bytes(good)
