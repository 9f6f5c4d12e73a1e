"""Traced runs: spans around each layer's public entry points, added from outside.

The tracer replaces each entry point with a wrapper wherever the package
holds a reference to it: the defining module, every ``resonant_kg`` module
that imported the name directly (``nash_moser`` imports most of them), and
the ``LinearizedOperator`` class for its methods.  Spans stay in memory as
(name, start, end, parent, stage L_n, argument shapes) and are written as
JSONL when the run ends.  A layer's self time is its span time minus the
time of the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

PACKAGE = "resonant_kg"


# -- per-layer counters: (counts, args, kwargs, result) -> None ----------------

def _count_unknowns(counts, args, kwargs, op):
    counts["unknowns_max"] = max(counts["unknowns_max"], op.lattice.size)


def _counter_factorizations():
    # The operator caches its LU; only the first call per operator factorizes.
    seen = {}

    def count(counts, args, kwargs, result):
        op = args[0]
        ref = seen.get(id(op))
        if ref is None or ref() is not op:
            seen[id(op)] = weakref.ref(op)
            counts["factorizations"] += 1
    return count


def _count_exact_inverse_norm(counts, args, kwargs, result):
    # Mirrors LinearizedOperator.inverse_norm: exact SVD up to the threshold.
    op = args[0]
    threshold = kwargs.get("exact_threshold", args[2] if len(args) > 2 else 1600)
    if op.lattice.size <= threshold:
        counts["exact_calls"] += 1


def _count_blocks(counts, args, kwargs, report):
    counts["blocks"] += len(report.alpha)


def _count_pairs(counts, args, kwargs, result):
    a, b = args[0], args[1]
    counts["pairs"] += (a.L + 1) * (b.L + 1) * (a.J + 1) * (b.J + 1)


def _count_newton(counts, args, kwargs, result):
    counts["newton_iters"] += result.iterations


def _count_scan(counts, args, kwargs, report):
    counts["pairs"] += report.n_pairs
    counts["intervals"] += len(report.excluded_intervals)


def _count_picard(counts, args, kwargs, result):
    counts["picard_iters"] += result[2].picard_iters


def _stage_of_solve_stage(args, kwargs):
    n, config = args[0], args[3]
    return config.L(n + 1)


def _stage_of_solve_stage0(args, kwargs):
    return args[0].L0


# (module, attribute, metrics reported besides calls/self_s, counter factory,
#  stage function).  Names are "<module>.<function>" as in the package, with
# LinearizedOperator methods under "linearized".
LAYERS = [
    ("linearized", "assemble_linearized", ("unknowns_max",), lambda: _count_unknowns, None),
    ("linearized", "LinearizedOperator.factorize", ("factorizations",), _counter_factorizations, None),
    ("linearized", "LinearizedOperator.solve", (), None, None),
    ("linearized", "LinearizedOperator.inverse_norm", ("exact_calls",),
     lambda: _count_exact_inverse_norm, None),
    ("linearized", "divisor_table", ("blocks",), lambda: _count_blocks, None),
    ("spherical_basis", "multiplication_matrix", (), None, None),
    ("field_algebra", "field_multiply", ("pairs",), lambda: _count_pairs, None),
    ("bifurcation", "solve_kernel", ("newton_iters",), lambda: _count_newton, None),
    ("resonance", "check_stage_conditions", (), None, None),
    ("resonance", "measure_scan", ("pairs", "intervals"), lambda: _count_scan, None),
    ("nash_moser", "solve_stage", ("picard_iters",), lambda: _count_picard, _stage_of_solve_stage),
    ("nash_moser", "solve_stage0", (), None, _stage_of_solve_stage0),
    ("nash_moser", "verify_solution", (), None, None),
]


def layer_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.split('.')[-1]}"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in LAYERS order."""
    names = []
    for module, attribute, extra, _, _ in LAYERS:
        base = layer_name(module, attribute)
        names += [f"{base}.calls", f"{base}.self_s"] + [f"{base}.{c}" for c in extra]
    return names


def _shape(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        inner = getattr(x, "u", None)  # CoeffField
        if inner is None:
            inner = getattr(x, "v", None)  # KernelField
        shape = getattr(inner, "shape", None)
    if shape is not None:
        return list(shape)
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return x
    return None


class Tracer:
    """Span recorder with install/uninstall of the wrappers on the package."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, stage, shapes]
        self._stack = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._undo = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, count=None, stage_of=None):
        spans, stack, counts = self.spans, self._stack, self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if stage_of is not None:
                stage = stage_of(args, kwargs)
            else:
                stage = spans[parent][4] if parent is not None else None
            rec = [name, 0.0, 0.0, parent, stage, [_shape(a) for a in args]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the workload's root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every LAYERS entry point in the already imported package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module, attribute, _, counter, stage_of in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            name = layer_name(module, attribute)
            count = counter() if counter is not None else None
            if "." in attribute:
                cls_name, meth = attribute.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original, count, stage_of), original)
                continue
            original = getattr(mod, attribute)
            wrapper = self.wrap(name, original, count, stage_of)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper, original)

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time and counters, zero for layers not entered."""
        totals = self_times(self.spans)
        out = {}
        for module, attribute, extra, _, _ in LAYERS:
            name = layer_name(module, attribute)
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            for c in extra:
                out[f"{name}.{c}"] = self.counts[name][c]
        return out

    def write_jsonl(self, path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, start, end, parent, stage, shapes) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "stage": stage, "shapes": shapes}) + "\n")


def self_times(spans) -> dict:
    """{name: (calls, self seconds)} from spans given as (name, start, end, parent, ...).

    Spans nest properly (one thread), so the direct children of a span cover
    disjoint parts of its interval and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent is not None:
            child[parent] += span[2] - span[1]
    totals = {}
    for i, span in enumerate(spans):
        calls, self_s = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (calls + 1, self_s + (span[2] - span[1]) - child[i])
    return totals
