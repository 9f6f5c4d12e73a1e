"""Tests of the benchmark harness: self-time arithmetic, tracing, the gate.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer, layer_metric_names, self_times  # noqa: E402

FACT, SOLVE, INV = "linearized.factorize", "linearized.solve", "linearized.inverse_norm"
KERNEL, MULT = "bifurcation.solve_kernel", "field_algebra.field_multiply"


def test_self_time_subtracts_direct_children_only():
    spans = [
        # name, start, end, parent
        ("stage", 0.0, 40.0, None),
        (SOLVE, 0.0, 10.0, 0),
        (FACT, 1.0, 4.0, 1),          # factorize inside solve
        (INV, 10.0, 20.0, 0),
        (FACT, 11.0, 12.0, 3),        # cached factorize inside inverse_norm
        (KERNEL, 20.0, 30.0, 0),
        (MULT, 21.0, 23.0, 5),        # field_multiply inside solve_kernel
        (MULT, 24.0, 27.0, 5),
    ]
    totals = self_times(spans)
    assert totals[SOLVE] == (1, 7.0)
    assert totals[INV] == (1, 9.0)
    assert totals[FACT] == (2, 4.0)
    assert totals[KERNEL] == (1, 5.0)
    assert totals[MULT] == (2, 5.0)
    assert totals["stage"] == (1, 10.0)
    assert sum(s for _, s in totals.values()) == pytest.approx(40.0)


def test_wrapped_calls_record_parents_and_add_up():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(2 * x)

    wrapped_middle = tracer.wrap("middle", middle)
    tracer.call("root", lambda: wrapped_middle(1000) + wrapped_leaf(10))
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["root", "middle", "leaf", "leaf", "leaf"]
    assert parents == [None, 0, 1, 1, 0]
    root = tracer.spans[0]
    total_self = sum(s for _, s in self_times(tracer.spans).values())
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)


def test_traced_solve_nests_layers_and_uninstalls():
    from resonant_kg import linearized, nash_moser
    from resonant_kg.field_algebra import field_multiply
    original = nash_moser.assemble_linearized
    original_factorize = vars(linearized.LinearizedOperator)["factorize"]
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.call("workload", nash_moser.run,
                             nash_moser.SolverConfig(eps=1e-3, m=0, n_max=2))
    finally:
        tracer.uninstall()
    assert nash_moser.assemble_linearized is original
    assert nash_moser.field_multiply is field_multiply
    assert vars(linearized.LinearizedOperator)["factorize"] is original_factorize

    spans = tracer.spans
    parent_name = {i: spans[s[3]][0] for i, s in enumerate(spans) if s[3] is not None}
    fact_parents = {parent_name[i] for i, s in enumerate(spans) if s[0] == FACT}
    assert fact_parents == {SOLVE, INV}
    assert any(parent_name.get(i) == KERNEL for i, s in enumerate(spans) if s[0] == MULT)
    stages = {s[4] for s in spans if s[0] == "linearized.assemble_linearized"}
    assert stages == {16, 32}

    metrics = tracer.layer_metrics()
    assert set(metrics) == set(layer_metric_names())
    assert metrics["nash_moser.solve_stage.calls"] == 2
    assert metrics["linearized.factorize.factorizations"] == 2
    assert metrics["linearized.factorize.calls"] > 2
    assert metrics["nash_moser.solve_stage.picard_iters"] == sum(
        r.picard_iters for r in result.trace.records[1:])
    root = spans[0]
    layered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < layered <= root[2] - root[1]


def _solve_summary(ref):
    n = ref["stages"]
    return {"stages": n, "h_norm": list(ref["h_norm"]),
            "inverse_norm": [1.0] * n, "inverse_bound": [2.0] * n,
            "divisor_ok": [True] * n, "melnikov_ok": [True] * n,
            "residual_relative": ref["residual_relative"]}


def _measure_summary(ref):
    return {"etas": list(ref["etas"]), "samples": [100_000] * len(ref["etas"]),
            "fraction_interval": list(ref["fraction_interval"]),
            "fraction_mc": list(ref["fraction_interval"]),
            "fitted_exponent": ref["fitted_exponent"]}


@pytest.mark.parametrize("name", ["solve-m1-deep", "solve-m0-default"])
def test_gate_trips_on_perturbed_solve_reference(name):
    reference = gate.load_reference()
    summary = _solve_summary(reference[name])
    assert gate.check(name, summary, reference) == []

    perturbed = copy.deepcopy(reference)
    perturbed[name]["h_norm"][1] *= 1.0 + 1e-4
    assert any("h_norm" in v for v in gate.check(name, summary, perturbed))

    perturbed = copy.deepcopy(reference)
    perturbed[name]["stages"] += 1
    assert any("stage count" in v for v in gate.check(name, summary, perturbed))

    bad = dict(summary, residual_relative=10 * reference[name]["residual_relative_max"])
    assert any("residual" in v for v in gate.check(name, bad, reference))
    bad = dict(summary, inverse_norm=[3.0] * summary["stages"])
    assert any("inverse_bound" in v for v in gate.check(name, bad, reference))
    bad = dict(summary, divisor_ok=[True] * (summary["stages"] - 1) + [False])
    assert any("divisor_ok" in v for v in gate.check(name, bad, reference))


def test_gate_trips_on_perturbed_measure_reference():
    name = "measure-windows"
    reference = gate.load_reference()
    summary = _measure_summary(reference[name])
    assert gate.check(name, summary, reference) == []

    perturbed = copy.deepcopy(reference)
    perturbed[name]["fraction_interval"][1] += 1e-6
    assert any("fraction_interval" in v for v in gate.check(name, summary, perturbed))

    perturbed = copy.deepcopy(reference)
    perturbed[name]["fitted_exponent"] += 1e-3
    assert any("exponent" in v for v in gate.check(name, summary, perturbed))

    off = summary["fraction_interval"][0] + 2.5 / 100_000 ** 0.5
    bad = dict(summary, fraction_mc=[off] + summary["fraction_mc"][1:])
    assert any("fraction_mc" in v for v in gate.check(name, bad, reference))


def test_benchmark_json_matches_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
