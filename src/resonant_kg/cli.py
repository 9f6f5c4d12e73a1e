"""Command-line front end: solve, measure, divisors, spectrum, verify.

A thin shell over the library: every command is a sequence of library calls
plus artifact writing.  Data payloads are deterministic given the flags
(timestamps and wall-clock timings live only in the run manifest).

Exit codes: 0 success, 1 numeric failure, 2 amplitude excluded by a
non-resonance condition, 64 usage error, 65 insufficient solve grid,
66 missing, corrupt or inaccessible artifact path.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_EXCLUDED = 2
EXIT_USAGE = 64
EXIT_GRID = 65
EXIT_MISSING = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="resonant-kg",
                description="Time-periodic solutions of the cubic Klein-Gordon "
                            "equation on the 3-sphere: solver and diagnostics.")
    sub = p.add_subparsers(dest="command", required=True)

    so = sub.add_parser("solve", help="run the full iteration and write artifacts")
    so.add_argument("--eps", type=float, required=True)
    so.add_argument("--m", type=int, default=0)
    so.add_argument("--gamma", type=float, default=0.05)
    so.add_argument("--tau", type=float, default=1.5)
    so.add_argument("--sigma-bar", type=float, default=1.0)
    so.add_argument("--s", type=float, default=1.0)
    so.add_argument("--L0", type=int, default=8)
    so.add_argument("--theta", type=float, default=0.25)
    so.add_argument("--stages", type=int, default=6)
    so.add_argument("--j-space", type=int, default=None)
    so.add_argument("--verbose", action="store_true",
                    help="log one line per stage (sizes, iteration counts, "
                         "seconds per phase) to stderr")
    so.add_argument("--out", required=True)

    me = sub.add_parser("measure", help="estimate the admissible-amplitude measure")
    me.add_argument("--eta", type=float, action="append", required=True,
                    help="window size; repeat for an exponent fit")
    me.add_argument("--samples", type=int, default=100000)
    me.add_argument("--gamma", type=float, default=0.05)
    me.add_argument("--tau", type=float, default=1.5)
    me.add_argument("--m", type=int, default=0)
    me.add_argument("--solve-grid", type=int, default=4,
                    help="number of amplitudes at which the branch mean is solved")
    me.add_argument("--out", required=True)

    dv = sub.add_parser("divisors", help="small-divisor table from a run directory")
    dv.add_argument("--run", required=True)
    dv.add_argument("--out", default=None)

    sp = sub.add_parser("spectrum", help="block spectra from a run directory")
    sp.add_argument("--run", required=True)
    sp.add_argument("--ell-max", type=int, default=None)
    sp.add_argument("--out", default=None)

    ve = sub.add_parser("verify", help="residual report for a stored field")
    ve.add_argument("--field", required=True)
    ve.add_argument("--eps", type=float, required=True)
    ve.add_argument("--out", default=None)
    return p


def _write_manifest(outdir, config_dict, artifacts, timings, stages):
    import numpy
    from . import __version__

    manifest = {
        "config": config_dict,
        "artifacts": {k: os.path.basename(v) for k, v in artifacts.items()},
        "versions": {"resonant-kg": __version__, "numpy": numpy.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "timings_s": timings,
        "stages": stages,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


def _numeric_failure(exc: Exception) -> int:
    """Report a solver error, a singular system or running out of memory as exit 1.

    Called from an `except` clause, for every command by `main`; any other
    exception is a bug and is raised again.
    """
    import numpy as np
    if not (isinstance(exc, (np.linalg.LinAlgError, MemoryError))
            or exc.__class__.__module__.startswith("resonant_kg")):
        raise exc
    print(f"numeric failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return EXIT_NUMERIC


def _check_stage0(eps: float, L0: int, name: str) -> None:
    """Raise the usage error (ValueError) of an amplitude beyond stage 0's bound."""
    from .nash_moser import stage0_contracts
    if not stage0_contracts(eps, L0):
        raise ValueError(f"{name} {eps:g} violates stage 0's bound "
                         f"eps L0 / (omega + 1) <= 1/2 at L0 = {L0}")


def cmd_solve(args) -> int:
    from . import field_algebra, nash_moser
    from .resonance import records_to_csv

    t0 = time.perf_counter()
    try:
        config = nash_moser.SolverConfig(
            eps=args.eps, m=args.m, gamma=args.gamma, tau=args.tau,
            sigma_bar=args.sigma_bar, s=args.s, theta=args.theta, L0=args.L0,
            n_max=args.stages, J_space=args.j_space)
        _check_stage0(config.eps, config.L0, "eps")
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)  # a usage error leaves no directory
    log = logging.getLogger("resonant_kg")
    handler = logging.StreamHandler(sys.stderr)
    level = log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        result = nash_moser.run(config)
    except nash_moser.MelnikovExcludedError as exc:
        path = os.path.join(args.out, "melnikov_failures.csv")
        records_to_csv(exc.records, path)
        print(f"amplitude excluded at stage {exc.stage}; "
              f"{len(exc.records)} failing condition(s) written to {path}",
              file=sys.stderr)
        return EXIT_EXCLUDED
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    t1 = time.perf_counter()
    artifacts = {}
    artifacts["solution"] = os.path.join(args.out, "solution.field")
    field_algebra.save_field(result.u, artifacts["solution"])
    artifacts["range_part"] = os.path.join(args.out, "range_part.field")
    field_algebra.save_field(result.w, artifacts["range_part"])
    artifacts["kernel"] = os.path.join(args.out, "kernel.json")
    with open(artifacts["kernel"], "w") as fh:
        json.dump({"m": config.m, "coefficients": list(result.kernel.v)}, fh, indent=1)
    artifacts["trace"] = os.path.join(args.out, "trace.jsonl")
    result.trace.to_jsonl(artifacts["trace"])
    artifacts["residual_report"] = os.path.join(args.out, "residual_report.json")
    result.residual.to_json(artifacts["residual_report"])
    artifacts["solution_csv"] = os.path.join(args.out, "solution.csv")
    field_algebra.field_to_csv(result.u, artifacts["solution_csv"])
    _write_manifest(args.out, config.to_dict(), artifacts,
                    {"solve": t1 - t0, "write": time.perf_counter() - t1}, result.stages)
    # the relative residual divides by ||u||^3, which is far from 1 on some
    # branches: report the absolute sigma = 0 residual beside it
    absolute = result.residual.norms[f"sigma=0,s={config.s:g},r=2"]
    print(f"converged: {len(result.trace.records)} stage records, "
          f"residual {result.residual.relative:.3e} (relative), {absolute:.3e} "
          f"(absolute, sigma = 0), artifacts in {args.out}")
    return EXIT_OK


def _mean_curve(eps_grid, m):
    """Branch mean M(w(eps)) at a grid of amplitudes, by uncertified continuations."""
    import numpy as np
    from .nash_moser import SolverConfig, continue_branch
    from .resonance import mean_potential

    return np.array([mean_potential(*continue_branch(SolverConfig(eps=float(e), m=m, n_max=2)))
                     for e in eps_grid])


def cmd_measure(args) -> int:
    import numpy as np
    from .nash_moser import SolverConfig
    from .resonance import _CHUNK_PAIRS, ResonanceParams, measure_scan, fit_excluded_exponent

    if args.solve_grid < 2:
        print("solve grid must contain at least 2 amplitudes for interpolation",
              file=sys.stderr)
        return EXIT_GRID
    if not all(math.isfinite(eta) and eta > 0.0 for eta in args.eta):
        print("invalid parameters: eta must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    etas = sorted(set(args.eta), reverse=True)
    try:
        params = ResonanceParams(args.gamma, args.tau, eps0=max(etas))
        # the branch mean is solved at amplitudes up to max(eta), from stage 0
        _check_stage0(max(etas), SolverConfig.L0, "eta")
        SolverConfig(eps=max(etas), m=args.m)  # the mean-curve solves' parameters
        if args.samples < 1:  # measure_scan's own rule, checked before the solves
            raise ValueError("samples must be at least 1")
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    t0 = time.perf_counter()
    # an unwritable --out exits 66 here, before the solves, and leaves no file
    created = not os.path.exists(args.out)
    open(args.out, "a").close()
    if created:
        os.remove(args.out)
    grid = np.linspace(1e-6, max(etas), args.solve_grid)
    mvals = _mean_curve(grid, args.m)
    m_of_eps = lambda e: np.interp(e, grid, mvals)
    try:
        reports = [measure_scan(eta, args.samples, params, m_of_eps) for eta in etas]
    except (np.linalg.LinAlgError, MemoryError) as exc:  # LinAlgError is a ValueError
        return _numeric_failure(exc)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "gamma": args.gamma,
        "tau": args.tau,
        "m": args.m,
        "solve_grid": list(map(float, grid)),
        "mean_values": list(map(float, mvals)),
        "reports": [replace(r, excluded_intervals=r.excluded_intervals[:0])._payload()
                    for r in reports],
        "fitted_exponent": fit_excluded_exponent(reports) if len(reports) >= 2 else None,
    }
    # json.dump(payload)'s text from the C encoder, one interval column at a
    # time in slices of rows (their texts joined by ", " are the column's), and
    # each report's table released once its columns are out
    text = json.dumps(payload, sort_keys=True)
    with open(args.out, "w") as fh:
        while reports:
            iv = reports.pop(0).excluded_intervals
            for name in sorted(iv.dtype.names):
                head, text = text.split(f'"{name}": []', 1)
                fh.write(f'{head}"{name}": [')
                for s in range(0, len(iv), _CHUNK_PAIRS):
                    rows = json.dumps(iv[name][s:s + _CHUNK_PAIRS].tolist())[1:-1]
                    fh.write(f", {rows}" if s else rows)
                fh.write("]")
        fh.write(text)
    fitted = payload["fitted_exponent"]
    print(f"admissible fractions: "
          + ", ".join(f"{r['eta']:g}: {r['fraction_interval']:.4f}" for r in payload["reports"])
          + (f"; fitted exponent {fitted:.3f}" if fitted is not None else "")
          + f"; {time.perf_counter() - t0:.2f} s")
    return EXIT_OK


def _load_run(run_dir):
    """(range part, time-mean potential b0, config) of a run directory.

    OSError naming the path for a missing or unreadable artifact, ValueError
    naming the file for a corrupt one, such as non-finite coefficients or a
    config whose eps, gamma, tau are not finite numbers that `SolverConfig` accepts.
    """
    from .bifurcation import KernelField, total_field
    from .field_algebra import field_multiply, load_field
    from .nash_moser import SolverConfig
    w = load_field(path := os.path.join(run_dir, "range_part.field"))
    if not (abs(w.u) < math.inf).all():  # also false for a NaN
        raise ValueError(f"{path}: coefficients are not finite")
    documents = []
    for name in ("kernel.json", "manifest.json"):
        path = os.path.join(run_dir, name)
        with open(path) as fh:
            try:
                documents.append(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    kernel_data, manifest = documents

    def number(x):  # json reads NaN and Infinity as floats, and integers of any size
        return type(x) in (int, float) and abs(x) <= sys.float_info.max  # not a bool
    coefficients = kernel_data.get("coefficients") if isinstance(kernel_data, dict) else None
    if not (isinstance(coefficients, list) and all(map(number, coefficients))):
        raise ValueError(f"{os.path.join(run_dir, 'kernel.json')}: coefficients not finite numbers")
    config = manifest.get("config") if isinstance(manifest, dict) else None
    try:
        if not (isinstance(config, dict) and all(number(config.get(k))
                                                 for k in ("eps", "gamma", "tau"))):
            raise ValueError("config lacks finite eps, gamma or tau")
        SolverConfig(eps=config["eps"], gamma=config["gamma"], tau=config["tau"])
    except ValueError as exc:
        raise ValueError(f"{os.path.join(run_dir, 'manifest.json')}: {exc}") from exc
    u = total_field(KernelField(coefficients), w)
    return w, 3.0 * field_multiply(u, u).u[0], config


def cmd_divisors(args) -> int:
    from .linearized import divisor_table

    try:
        w, b0, config = _load_run(args.run)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING
    L_n = w.L
    table = divisor_table(config["eps"], b0, L_n, 2 * L_n,
                          config["gamma"], config["tau"])
    out = args.out or os.path.join(args.run, "divisors.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    table.to_csv(out)
    print(f"{len(table.ells)} divisors written to {out}; floor "
          f"{'holds' if table.all_ok else 'VIOLATED'}")
    return EXIT_OK if table.all_ok else EXIT_NUMERIC


def cmd_spectrum(args) -> int:
    from .linearized import block_spectrum, spectrum_to_csv

    if args.ell_max is not None and args.ell_max < 0:
        print("invalid parameters: --ell-max must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        w, b0, config = _load_run(args.run)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING
    ell_max = args.ell_max if args.ell_max is not None else min(w.L, 64)
    blocks = [(ell, *block_spectrum(config["eps"], b0, ell, 2 * w.L))
              for ell in range(ell_max + 1)]
    out = args.out or os.path.join(args.run, "spectrum.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    spectrum_to_csv(blocks, out)
    print(f"spectra of {len(blocks)} blocks written to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .field_algebra import load_field
    from .nash_moser import SolverConfig, verify_solution

    try:
        config = SolverConfig(eps=args.eps)  # the rule of solve: eps finite and >= 0
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        u = load_field(args.field)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING
    report = verify_solution(u, config)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        report.to_json(args.out)
    print(f"residual (relative to ||u||^3): {report.relative:.6e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handlers = {"solve": cmd_solve, "measure": cmd_measure,
                "divisors": cmd_divisors, "spectrum": cmd_spectrum,
                "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except OSError as exc:  # an artifact path that is missing, a directory or unwritable
        print(f"inaccessible artifact path {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_MISSING
    except Exception as exc:
        return _numeric_failure(exc)


if __name__ == "__main__":
    sys.exit(main())
