"""Self-test of the benchmark's checkers: wrong outputs must count as failed ops.

Usage, from the repository root::

    python3 perfbench/selftest.py

For each workload, a pass over its small inputs must first succeed with
no failed op.  Then each control replaces one waylab callable with a fake
that returns a deliberately wrong result, reruns the pass and requires the
named op kind to be counted as failed.  Exit code 0 when every control is
caught, 1 otherwise.
"""

import dataclasses
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from waylab.born import Outcome, OutcomeDistribution  # noqa: E402
from waylab.graded import ConstraintReport  # noqa: E402
from waylab.optimize import SweepTable  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _scaled(dist, factor):
    return OutcomeDistribution(tuple(
        dataclasses.replace(o, probability=o.probability * factor) for o in dist.outcomes
    ))


def _swap_plus_minus(dist):
    plus, minus, rest = dist.outcomes
    return OutcomeDistribution((
        Outcome("plus", minus.probability, minus.post_state),
        Outcome("minus", plus.probability, plus.post_state),
        rest,
    ))


def _other_case(verdict):
    return dataclasses.replace(verdict, kind="Case1" if verdict.kind == "Case2" else "Case2")


def _sweep_above_bound(table):
    first, *rest = table.rows
    return SweepTable((dataclasses.replace(first, error_optimized=first.error_wigner * 1.01),
                       *rest))


def _one_shot_short(counts):
    label = max(counts, key=counts.get)
    return {**counts, label: counts[label] - 1}


def controls(real):
    """``(workload, op kind that must fail, callable name, fake)`` for every control."""
    def passing(*_):
        return ConstraintReport((("stopped-checking", 0.0),))

    return [
        ("readout-large", "build", "scheme_error",
         lambda s: real.scheme_error(s) * (1 + 1e-9)),
        ("readout-large", "json", "from_json",
         lambda text: dataclasses.replace(real.from_json(text), cprime=0.0)),
        ("readout-large", "validate", "validate_scheme",
         lambda s: ConstraintReport((("orthogonality[1]", 2e-10),))),
        ("readout-large", "negative-control", "validate_scheme", passing),
        ("readout-large", "graded", "orthogonality_transfer_check",
         lambda m, v: (lambda pre, post: (pre, post * (1 + 1e-9)))(*real.orthogonality_transfer_check(m, v))),
        ("readout-large", "graded", "norm2", lambda v: real.norm2(v) + 1e-11),
        ("readout-large", "readout", "three_outcome_stats",
         lambda s, o: _swap_plus_minus(real.three_outcome_stats(s, o))),
        ("readout-large", "sample", "sample_outcomes",
         lambda d, shots, seed: _one_shot_short(real.sample_outcomes(d, shots, seed))),
        ("readout-large", "cli", "cli_run",
         lambda argv: dataclasses.replace(real.cli_run(argv), exit_code=1)),
        ("small-structures", "classify", "classify",
         lambda p, m: _other_case(real.classify(p, m))),
        ("small-structures", "isometry", "check_conserving",
         lambda m: ConstraintReport((("isometry[0]", 1e-9),))),
        ("small-structures", "distribution", "born_distribution",
         lambda obs, phi: _scaled(real.born_distribution(obs, phi), 1 + 1e-11)),
        ("small-structures", "scheme", "three_outcome_stats",
         lambda s, o: _scaled(real.three_outcome_stats(s, o), 1 - 1e-9)),
        ("small-structures", "negative-control", "validate_scheme", passing),
        ("nogo-scan", "certificate", "infeasibility_certificate",
         lambda n: (lambda c: dataclasses.replace(c, min_violation=c.min_violation * (1 + 1e-5)))(
             real.infeasibility_certificate(n))),
        ("nogo-scan", "rotated", "rotated_basis_residual",
         lambda n, obj: dataclasses.replace(real.rotated_basis_residual(n, obj), min_violation=1e-9)),
        ("optimize-sweep", "sweep", "sweep",
         lambda n_values: _sweep_above_bound(real.sweep(n_values))),
        ("optimize-sweep", "fit", "fit_scaling",
         lambda table: (math.nan,) + tuple(real.fit_scaling(table)[1:])),
    ]


def main():
    ok = True
    out = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        inputs = {name: w.make_inputs(1, workdir, small=True)
                  for name, w in workloads.WORKLOADS.items()}
        for name, workload in workloads.WORKLOADS.items():
            ops = workloads.Ops()
            workload.run_pass(ops, spans.layer_api(), inputs[name])
            print(f"{name}: clean pass, {ops.failed} of {ops.attempted} ops failed")
            ok &= ops.failed == 0 and ops.attempted > 0
        real = spans.layer_api()
        for name, kind, attr, fake in controls(real):
            api = spans.layer_api()
            setattr(api, attr, fake)
            ops = workloads.Ops()
            workloads.WORKLOADS[name].run_pass(ops, api, inputs[name])
            caught = ops.by_kind.get(kind, [0, 0])[1] > 0
            ok &= caught
            print(f"{name}: wrong {attr} -> {kind} op "
                  f"{'counted as failed' if caught else 'NOT caught'}")
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
