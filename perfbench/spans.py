"""Spans around the benchmark's calls into waylab, and the metrics derived from them.

The benchmark never calls waylab directly: it goes through the namespace
returned by :func:`layer_api`.  Untraced, that namespace holds the library
callables themselves, so measurement adds nothing.  Traced, every entry
is wrapped so that each call records a span ``<layer>.<function>`` with
its start, end, the op that made it and a small work count (sectors,
unknowns, bytes, ...) computed outside the timed interval.  Spans stay in
memory and are written out as JSON lines when the run ends.

Only calls the benchmark makes are spanned; calls waylab makes internally
(``cli.run`` building a scheme, say) belong to the caller's span.  Spans
of one op therefore never overlap, and an op's self time is its duration
minus the sum of its children.
"""

from __future__ import annotations

import json
import operator
import time
from types import SimpleNamespace

from waylab import born, cli, generalized, graded, nogo, optimize, scheme
from waylab.graded import BlockMap, GradedVector
from waylab.scheme import ApproxScheme

from checks import closed_form_error

LAYERS = ("graded", "scheme", "born", "nogo", "optimize", "generalized", "cli")


def _support(*vectors):
    return {"sectors": sum(len(v.support()) for v in vectors)}


def _blocks(m, *_):
    return {"sectors": len(m.blocks)}


def _sweep_work(args, table):
    better = sum(
        r.error_optimized < min(r.error_wigner, closed_form_error(r.n)) * (1 - 1e-9)
        for r in table.rows
    )
    return {
        "nfev": sum(r.iters for r in table.rows),
        "rows": len(table.rows),
        "improved_rows": better,
    }


# attribute -> (span name, callable, work(args, result) or None)
CALLS = {
    "inner": ("graded.inner", graded.inner, lambda a, r: _support(*a)),
    "add": ("graded.add", operator.add, lambda a, r: _support(*a)),
    "sub": ("graded.sub", operator.sub, lambda a, r: _support(*a)),
    "norm2": ("graded.norm2", GradedVector.norm2, lambda a, r: _support(*a)),
    "tensor": ("graded.tensor", graded.tensor, lambda a, r: _support(a[1])),
    "split_object_components": (
        "graded.split_object_components",
        graded.split_object_components,
        lambda a, r: _support(a[0]),
    ),
    "check_conserving": (
        "graded.check_conserving", graded.check_conserving, lambda a, r: _blocks(*a)
    ),
    "completed": ("graded.BlockMap.completed", BlockMap.completed, lambda a, r: _blocks(*a)),
    "orthogonality_transfer_check": (
        "graded.orthogonality_transfer_check",
        graded.orthogonality_transfer_check,
        lambda a, r: {"sectors": len(a[0].blocks) + _support(*a[1])["sectors"]},
    ),
    "build_canonical_scheme": (
        "scheme.build_canonical_scheme", scheme.build_canonical_scheme, None
    ),
    "validate_scheme": (
        "scheme.validate_scheme", scheme.validate_scheme, lambda a, r: {"entries": len(r.entries)}
    ),
    "scheme_error": ("scheme.scheme_error", scheme.scheme_error, None),
    "interaction_blocks": ("scheme.interaction_blocks", scheme.interaction_blocks, None),
    "to_json": ("scheme.to_json", ApproxScheme.to_json, lambda a, r: {"bytes": len(r)}),
    "from_json": ("scheme.from_json", ApproxScheme.from_json, None),
    "three_outcome_stats": ("born.three_outcome_stats", born.three_outcome_stats, None),
    "sample_outcomes": ("born.sample_outcomes", born.sample_outcomes, None),
    "born_distribution": ("born.born_distribution", born.born_distribution, None),
    "infeasibility_certificate": (
        "nogo.infeasibility_certificate",
        nogo.infeasibility_certificate,
        lambda a, r: {"unknowns": 5 * a[0]},
    ),
    "rotated_basis_residual": (
        "nogo.rotated_basis_residual",
        nogo.rotated_basis_residual,
        lambda a, r: {"unknowns": 5 * a[0]},
    ),
    "exact_constraint_residual": (
        "nogo.exact_constraint_residual", nogo.exact_constraint_residual, None
    ),
    "sweep": ("optimize.sweep", optimize.sweep, _sweep_work),
    "fit_scaling": ("optimize.fit_scaling", optimize.fit_scaling, None),
    "classify": ("generalized.classify", generalized.classify, None),
    "cli_run": ("cli.run", cli.run, None),
}


class Tracer:
    """In-memory span recorder.

    A span is a dict with ``span`` (id), ``name``, ``start``, ``end``
    (``perf_counter`` seconds), ``op`` (op id), ``parent`` (span id of
    the op, ``None`` for an op itself) and ``pass``; layer spans may add
    ``work`` and ``error``, op spans add ``self_s`` and ``failures``.
    """

    def __init__(self):
        self.spans = []
        self._current = None  # span dict of the open op
        self._child_s = 0.0  # time the open op spent in layer calls
        self._ids = 0
        self.pass_no = 0

    def _next_id(self):
        self._ids += 1
        return self._ids

    def begin_op(self, kind):
        self._current = {
            "span": self._next_id(),
            "name": f"op.{kind}",
            "op": None,
            "parent": None,
            "pass": self.pass_no,
            "start": time.perf_counter(),
        }
        self._current["op"] = self._current["span"]
        self._child_s = 0.0

    def end_op(self, failures):
        span = self._current
        span["end"] = time.perf_counter()
        span["self_s"] = span["end"] - span["start"] - self._child_s
        span["failures"] = [[layer, message] for layer, message in failures]
        self.spans.append(span)
        self._current = None

    def wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            op = self._current
            span = {
                "span": self._next_id(),
                "name": name,
                "op": op["op"] if op else None,
                "parent": op["span"] if op else None,
                "pass": self.pass_no,
            }
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                self._child_s += span["end"] - span["start"]
                span["error"] = repr(exc)
                self.spans.append(span)
                raise
            span["end"] = time.perf_counter()
            self._child_s += span["end"] - span["start"]
            if work is not None:
                span["work"] = work(args, result)
            self.spans.append(span)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span) + "\n")


def layer_api(tracer=None):
    """Namespace of the waylab callables the workloads use, spanned when traced."""
    return SimpleNamespace(
        **{
            attr: fn if tracer is None else tracer.wrap(name, fn, work)
            for attr, (name, fn, work) in CALLS.items()
        }
    )


# per-layer metric -> span names whose durations it sums
_BUSY = {
    "scheme.build.busy_s": ("scheme.build_canonical_scheme",),
    "scheme.validate.busy_s": ("scheme.validate_scheme",),
    "scheme.json.busy_s": ("scheme.to_json", "scheme.from_json"),
    "born.stats.busy_s": ("born.three_outcome_stats",),
    "born.sample.busy_s": ("born.sample_outcomes",),
    "born.distribution.busy_s": ("born.born_distribution",),
    "nogo.certificate.busy_s": ("nogo.infeasibility_certificate",),
    "nogo.rotated.busy_s": ("nogo.rotated_basis_residual",),
    "optimize.sweep.busy_s": ("optimize.sweep",),
    "optimize.fit.busy_s": ("optimize.fit_scaling",),
    "generalized.classify.busy_s": ("generalized.classify",),
}

# per-layer metric -> work key summed over the spans that record it
_WORK = {
    "graded.sectors": "sectors",
    "scheme.validate.entries": "entries",
    "scheme.json.bytes": "bytes",
    "nogo.unknowns": "unknowns",
    "optimize.nfev": "nfev",
    "optimize.rows": "rows",
    "optimize.improved_rows": "improved_rows",
}

_HIGHER = {"optimize.improved_rows", "optimize.rows", "scheme.validate.entries"}


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("us_per_sector"):
        return "us"
    return "count"


def per_layer_names():
    """Every per-layer metric name with its unit and better direction."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.busy_s", f"{layer}.failed"]
    names += list(_BUSY) + list(_WORK) + ["graded.us_per_sector"]
    names += ["op.calls", "op.self_s", "trace.spans", "trace.overhead_s"]
    return [
        (name, _unit(name), "higher" if name in _HIGHER else "lower")
        for name in sorted(names)
    ]


def layer_metrics(spans, passes, overhead_s):
    """Per-pass averages of every per-layer metric over ``passes`` traced passes."""
    ops = [s for s in spans if s["parent"] is None]
    calls = [s for s in spans if s["parent"] is not None]
    values = {name: 0.0 for name, _, _ in per_layer_names()}
    for s in calls:
        layer = s["name"].split(".", 1)[0]
        duration = s["end"] - s["start"]
        values[f"{layer}.calls"] += 1
        values[f"{layer}.busy_s"] += duration
        values[f"{layer}.failed"] += "error" in s
        for metric, names in _BUSY.items():
            if s["name"] in names:
                values[metric] += duration
        for metric, key in _WORK.items():
            values[metric] += s.get("work", {}).get(key, 0)
    for op in ops:
        for layer in {layer for layer, _ in op["failures"]} & set(LAYERS):
            values[f"{layer}.failed"] += 1
    values["op.calls"] = len(ops)
    values["op.self_s"] = sum(op["self_s"] for op in ops)
    values["trace.spans"] = len(spans)
    values = {name: v / passes for name, v in values.items()}
    if values["graded.sectors"]:
        values["graded.us_per_sector"] = 1e6 * values["graded.busy_s"] / values["graded.sectors"]
    values["trace.overhead_s"] = overhead_s
    return values
