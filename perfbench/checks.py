"""Correctness checks on every output the benchmark times.

Each checker takes outputs and returns a list of ``(layer, message)``
failures; an empty list means the output is correct.  The op runner
counts an op with any failure, or any exception, as failed.  References
are either exact (``1/(2n-1)``, the readout probabilities) or pinned
from commit 52b18e6, where the acceptance suite passes.
"""

from __future__ import annotations

import math

import numpy as np

#: Validation tolerance of the acceptance suite (``waylab.DEFAULT_TOL``).
VALID_TOL = 1e-10

#: ``infeasibility_certificate(n).min_violation``, pinned.
PINNED_MIN_VIOLATION = {
    4: 0.04707302353651176,
    8: 0.008241864047756594,
    16: 0.0012233916820192097,
    32: 0.00016707197219877347,
    64: 2.185244458473613e-05,
}

#: ``rotated_basis_residual(16, (0.6, 0.8)).min_violation``, pinned.
PINNED_REAL_MIXED_16 = 0.0011750812045091567


def closed_form_error(n):
    """Error ``(1 - cos t)/(3 + cos t)``, ``t = pi/(ceil(n/2) + 1)``, of the smooth-profile scheme."""
    theta = math.pi / (math.ceil(n / 2) + 1)
    return (1.0 - math.cos(theta)) / (3.0 + math.cos(theta))


def _fail(failures, ok, layer, message):
    if not ok:
        failures.append((layer, message))


def _close(a, b, tol):
    return abs(a - b) <= tol


# -- readout-large and small-structures ------------------------------------


def check_scheme_error(n, error):
    out = []
    _fail(out, _close(error, 1.0 / (2 * n - 1), 1e-12), "scheme",
          f"n={n}: scheme_error {error!r} != 1/(2n-1)")
    return out


def check_valid(n, report):
    out = []
    _fail(out, report.passed(VALID_TOL), "scheme",
          f"n={n}: canonical scheme fails validation (max residual {report.max_residual!r})")
    return out


def check_invalid(n, report):
    """Negative control: a corrupted scheme must not validate."""
    out = []
    _fail(out, not report.passed(VALID_TOL), "scheme",
          f"n={n}: corrupted scheme PASSES validation")
    return out


def check_roundtrip(original, loaded):
    out = []
    same = all(
        getattr(original, name) == getattr(loaded, name)
        for name in ("xi", "sigma", "tau", "rho")
    )
    same &= (original.n, original.d, original.c, original.cprime) == (
        loaded.n, loaded.d, loaded.c, loaded.cprime
    )
    _fail(out, same, "scheme", f"n={original.n}: JSON round-trip changed the scheme")
    return out


def readout_expected(n, amp0, amp1):
    """Exact ``(plus, minus, undetermined)`` probabilities of the canonical scheme."""
    e = 1.0 / (2 * n - 1)
    return (
        (1.0 - e) * abs(amp0 + amp1) ** 2 / 2.0,
        (1.0 - e) * abs(amp0 - amp1) ** 2 / 2.0,
        e,
    )


def check_readout(n, amp0, amp1, dist):
    out = []
    got = dist.probabilities()
    want = readout_expected(n, amp0, amp1)
    _fail(out, dist.labels() == ("plus", "minus", "undetermined")
          and all(_close(g, w, 1e-10) for g, w in zip(got, want)), "born",
          f"n={n}: readout {got} != {want}")
    _fail(out, _close(sum(got), 1.0, 1e-12), "born",
          f"n={n}: readout probabilities sum to {sum(got)!r}")
    return out


def check_counts(dist, counts, shots):
    """Counts sum to ``shots`` and each lies within 6 sigma of its mean."""
    out = []
    _fail(out, sum(counts.values()) == shots, "born",
          f"counts sum to {sum(counts.values())}, not {shots}")
    for label, p in zip(dist.labels(), dist.probabilities()):
        band = 6.0 * math.sqrt(p * (1.0 - p) * shots) + 1.0
        _fail(out, abs(counts.get(label, -1) - p * shots) <= band, "born",
              f"count of {label} {counts.get(label)} is far from {p * shots:.1f}")
    return out


def check_graded(n, results):
    """Direct graded-primitive calls on the canonical scheme's vectors.

    ``results`` holds ``inner_sigma_tau``, ``norm2_xi``, ``eta_norm2`` (of
    ``tau - rho``), ``sum_sectors`` (support of ``rho + tau``), ``split``
    (the pair recovered from ``tensor``), ``expected_split``,
    ``conserving`` and ``completed`` (max isometry defects) and
    ``gram`` (the two Gram matrices).
    """
    out = []
    _fail(out, results["inner_sigma_tau"] == 0, "graded",
          f"n={n}: (sigma, tau) = {results['inner_sigma_tau']!r}, not 0")
    _fail(out, _close(results["norm2_xi"], 1.0, 1e-12), "graded",
          f"n={n}: |xi|^2 = {results['norm2_xi']!r}")
    _fail(out, _close(0.25 * results["eta_norm2"], 1.0 / (2 * n - 1), 1e-12), "graded",
          f"n={n}: |tau - rho|^2/4 = {0.25 * results['eta_norm2']!r}")
    _fail(out, results["sum_sectors"] == n + 2, "graded",
          f"n={n}: rho + tau has {results['sum_sectors']} sectors, not {n + 2}")
    _fail(out, all(a.allclose(b, atol=1e-15) for a, b in zip(results["split"], results["expected_split"])),
          "graded", f"n={n}: split_object_components does not invert tensor")
    for key in ("conserving", "completed"):
        _fail(out, results[key] < VALID_TOL, "graded",
              f"n={n}: {key} isometry defect {results[key]!r}")
    pre, post = results["gram"]
    _fail(out, _max_abs_diff(pre, post) <= VALID_TOL, "graded",
          f"n={n}: Gram matrices differ by {_max_abs_diff(pre, post)!r}")
    return out


def _max_abs_diff(a, b):
    return float(np.max(np.abs(a - b)))


def check_cli(command, result):
    out = []
    _fail(out, result.exit_code == 0, "cli",
          f"waylab {command} exited {result.exit_code}: {result.summary[:200]}")
    return out


def check_classify(case, verdict):
    out = []
    _fail(out, verdict.kind == f"Case{case}", "generalized",
          f"classify gave {verdict.kind}, generated Case{case}")
    return out


def check_isometry(gram, conserving, completed):
    out = []
    pre, post = gram
    _fail(out, _max_abs_diff(pre, post) <= VALID_TOL, "graded",
          f"Gram matrices differ by {_max_abs_diff(pre, post)!r}")
    _fail(out, conserving.max_residual < VALID_TOL, "graded",
          f"isometry defect {conserving.max_residual!r}")
    _fail(out, completed.max_residual < VALID_TOL, "graded",
          f"completed map defect {completed.max_residual!r}")
    return out


def check_distribution(dist):
    out = []
    total = sum(dist.probabilities())
    _fail(out, _close(total, 1.0, 1e-12), "born", f"probabilities sum to {total!r}")
    return out


# -- nogo-scan ----------------------------------------------------------------


def check_certificate(n, value, residual_sum_squares, previous):
    """``previous`` is the violation at the next smaller size, or ``None``."""
    out = []
    pinned = PINNED_MIN_VIOLATION[n]
    _fail(out, value > 0, "nogo", f"n={n}: min_violation {value!r} is not positive")
    _fail(out, _close(value, pinned, 1e-6 * pinned), "nogo",
          f"n={n}: min_violation {value!r} != pinned {pinned!r}")
    _fail(out, _close(residual_sum_squares, value, 1e-9 * value), "nogo",
          f"n={n}: residual sum of squares {residual_sum_squares!r} != {value!r}")
    _fail(out, previous is None or value <= previous, "nogo",
          f"n={n}: min_violation {value!r} rose above {previous!r}")
    return out


def check_rotated(kind, value):
    out = []
    if kind == "eigenbasis":
        _fail(out, value <= 1e-12, "nogo", f"eigenbasis residual {value!r} > 1e-12")
        return out
    pinned = PINNED_REAL_MIXED_16 if kind == "real-mixed" else PINNED_MIN_VIOLATION[16]
    _fail(out, _close(value, pinned, 1e-6 * pinned), "nogo",
          f"{kind}: residual {value!r} != pinned {pinned!r}")
    return out


# -- optimize-sweep -------------------------------------------------------------


def check_sweep(n_values, table):
    out = []
    _fail(out, [r.n for r in table.rows] == list(n_values), "optimize",
          f"sweep rows {[r.n for r in table.rows]} != {list(n_values)}")
    for r in table.rows:
        bound = min(1.0 / (2 * r.n - 1), closed_form_error(r.n)) * (1 + 1e-9)
        _fail(out, not r.note, "optimize", f"n={r.n}: {r.note}")
        _fail(out, r.constraint_residual <= 1e-8, "optimize",
              f"n={r.n}: constraint residual {r.constraint_residual!r}")
        _fail(out, r.error_optimized <= bound, "optimize",
              f"n={r.n}: error {r.error_optimized!r} above {bound!r}")
    return out


def check_fit(fit):
    """The slope is reported, not bounded: over n <= 8 it is pre-asymptotic."""
    out = []
    slope, intercept, r2 = fit
    _fail(out, all(math.isfinite(v) for v in fit) and 0.0 <= r2 <= 1.0, "optimize",
          f"fit_scaling gave {fit!r}")
    return out
