"""Error-optimal approximate schemes of fixed apparatus size, in closed form.

Wigner's canonical scheme (Z. Phys. 133, 101, 1952) reaches
undetermined-outcome probability ``1/(2n - 1)``; Araki and Yanase
(Phys. Rev. 120, 622, 1960) showed that the error can be made small but
never zero at finite size.  The constraint system leaves room below the
canonical value: spreading the transfer amplitudes smoothly across the
sector window drives the error down like ``1/n^2``.  This module builds
that scheme directly, sweeps apparatus sizes and fits the scaling law.

Construction.  ``sigma`` lies along per-sector direction ``e0`` with equal
weight ``S/n`` on sectors ``1..n``; ``rho`` lies along ``e1`` with
amplitude ``g u[nu]`` on sectors ``0..n-1``; ``tau`` is its two-sector
shift, ``tau[nu] = rho[nu - 2]``; and ``xi`` follows from the
weight-split relations.  Because ``e0`` and ``e1`` are orthogonal and
``tau`` is a real shift of ``rho``, the orthogonality rows and both
error-vector overlaps vanish identically.  The error vector is
``2 eta = tau - rho`` with sectors ``g (u[nu - 2] - u[nu])``, so it couples
only sectors of equal parity: ``u`` lives on a *chain* of sectors
``p, p + 2, ...`` inside ``0..n-1``.

Error of a profile.  Write ``R = g^2 sum u^2`` for the transfer weight and
``q = (1/4) sum (u[nu - 2] - u[nu])^2 / sum u^2``, so ``E = q R``.  The
pointer overlap fixes ``S = R - E`` and normalization fixes ``S + R = 1``,
hence ``E = q / (2 - q)``, increasing in ``q``.  Now ``q`` is a Rayleigh
quotient of the Dirichlet second-difference operator on a chain of length
``k``; its minimum ``(1 - cos t)/2``, ``t = pi/(k + 1)``, is attained by the
lowest mode ``u_j = sin(j t)``.  The longest chain in the window is the
even one, ``k = ceil(n/2)``, which gives::

    E(n) = (1 - cos t) / (3 + cos t),   t = pi / (ceil(n/2) + 1).

The analysis above is exact within this family.  Over all admissible
schemes the value is established numerically: a penalty-plus-polish search
over every amplitude, from the canonical scheme, both parity profiles and
seeded perturbations of them, never beat ``E(n)`` by more than one ulp for
``n <= 64``, and ``tests/oracles.py`` keeps a multistart local-optimality
check over general two-parity starts at small ``n``.

Never worse than canonical.  ``E(n) <= 1/(2n - 1)`` for every ``n >= 2``.
With ``k = ceil(n/2)`` we have ``n <= 2k``, so it suffices that
``E <= 1/(4k - 1)``, i.e. ``(1 - c)(4k - 1) <= 3 + c`` with ``c = cos t``,
which reduces to ``c >= 1 - 1/k``.  At ``k = 1, 2`` both sides are equal
(``0 >= 0`` and ``1/2 >= 1/2``), giving equality at ``n = 2`` and ``n = 4``.
For ``k >= 3``, ``cos t >= 1 - t^2/2`` reduces the claim to
``2k^2 + (4 - pi^2) k + 2 >= 0``, whose larger root is below 2.6.

Scaling.  As ``n`` grows, ``1 - cos t ~ t^2/2`` and ``3 + cos t -> 4``, so
``E ~ pi^2 / (8 (k + 1)^2)`` and ``E n^2 -> pi^2/2``: the log-log slope
tends to exactly -2.  A fit over ``n = 4..64`` reads about -1.75 because
those sizes are still pre-asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graded import GradedVector, _dot, _integer
from .scheme import (
    ApproxScheme,
    _require_size,
    build_canonical_scheme,
    scheme_error,
    validate_scheme,
)


class OptimizationError(RuntimeError):
    """Raised when a constructed or solved result fails its checks.

    Carries the offending result in ``best`` so callers can diagnose the
    failure instead of silently accepting a bad result.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


#: Default bound on the validated constraint residual of an optimized scheme.
_CONSTRAINT_TOL = 1e-8

#: Default bound on the gap between an optimized scheme's error and the closed form ``E(n)``.
_OBJECTIVE_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerOptions:
    """Acceptance tolerances for :func:`optimize_scheme`; both must be positive.

    ``tol_constraint`` bounds the validated constraint residual and
    ``tol_objective`` the gap between the built scheme's error and the
    closed form ``E(n)``; a scheme outside either raises
    :class:`OptimizationError`.
    """

    tol_constraint: float = _CONSTRAINT_TOL
    tol_objective: float = _OBJECTIVE_TOL

    def __post_init__(self):
        for name in ("tol_constraint", "tol_objective"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SweepRow:
    n: int
    error_wigner: float
    error_optimized: float
    constraint_residual: float
    iters: int
    note: str = ""


@dataclass(frozen=True)
class SweepTable:
    """One row per apparatus size; errors of canonical vs optimized scheme."""

    rows: tuple

    CSV_HEADER = "n,error_wigner,error_optimized,constraint_residual,iters"

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.error_wigner:.17g},{r.error_optimized:.17g},"
                f"{r.constraint_residual:.17g},{r.iters}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.strip().split("\n") if ln] or [""]
        if lines[0] != cls.CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {lines[0]!r}")
        rows = []
        for ln in lines[1:]:
            n, ew, eo, cr, it = ln.split(",")
            rows.append(
                SweepRow(
                    n=int(n),
                    error_wigner=float(ew),
                    error_optimized=float(eo),
                    constraint_residual=float(cr),
                    iters=int(it),
                )
            )
        return cls(rows=tuple(rows))


def _closed_form_error(n):
    """``E(n) = (1 - cos t)/(3 + cos t)`` with ``t = pi/(ceil(n/2) + 1)``."""
    theta = math.pi / ((n + 1) // 2 + 1)
    return (1.0 - math.cos(theta)) / (3.0 + math.cos(theta))


def _smooth_profile_scheme(n, d):
    """Scheme whose transfer profile is the lowest sine mode on the even chain.

    The weight-split relations make ``tau`` the two-sector shift of
    ``rho``, and two scalar normalization relations fix the scales, so
    every constraint holds to machine precision.
    """
    length = (n + 1) // 2  # sectors 0, 2, ... of the window 0..n-1
    u = np.zeros(n)
    u[0::2] = np.sin(np.pi * np.arange(1, length + 1) / (length + 1))
    r0 = float(_dot(u, u))
    u_pad = np.concatenate([u, [0.0, 0.0]])
    diffs = u_pad - np.concatenate([[0.0, 0.0], u])
    obj0 = 0.25 * float(_dot(diffs, diffs))
    # With transfer weight R = g^2 r0 and error E = g^2 obj0, the pointer
    # overlap fixes S = R - E and normalization fixes S + R = 1.
    g2 = 1.0 / (2.0 * r0 - obj0)
    big_s = g2 * (r0 - obj0)
    s_each = big_s / n
    transfer, keep, start = np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d))
    transfer[:, 1] = np.sqrt(g2) * u
    keep[:, 0] = np.sqrt(s_each)
    start[:, 0] = np.sqrt(s_each + g2 * u**2)
    rho = GradedVector.from_window(0, transfer)
    tau = GradedVector.from_window(2, transfer)
    sigma = GradedVector.from_window(1, keep)
    xi = GradedVector.from_window(1, start)
    scheme = ApproxScheme(
        n=n, d=d, xi=xi, sigma=sigma, tau=tau, rho=rho, c=s_each, cprime=0.0
    )
    return replace(scheme, cprime=float(scheme_error(scheme)))


def _checked_scheme(n, d, opts):
    """Build the optimal scheme and its validation report, or raise."""
    n, d = _require_size(n, d)
    if n < 2:
        raise ValueError(f"optimization needs n >= 2, got {n}")
    opts = opts or OptimizerOptions()
    scheme = _smooth_profile_scheme(n, d)
    report = validate_scheme(scheme)
    # written as "not <=" so a NaN residual fails too
    if not report.max_residual <= opts.tol_constraint:
        raise OptimizationError(
            f"optimized scheme violates constraints "
            f"({report.max_residual:.3e} > {opts.tol_constraint:.3e})",
            best=scheme,
        )
    expected = _closed_form_error(n)
    if not abs(scheme.cprime - expected) <= opts.tol_objective:
        raise OptimizationError(
            f"objective mismatch: built {scheme.cprime!r}, closed form {expected!r}",
            best=scheme,
        )
    return scheme, report


def optimize_scheme(n, d=2, opts=None):
    """Error-optimal scheme of apparatus size ``n``, error ``E(n)``.

    Builds the closed-form scheme described in the module docstring and
    re-validates it; raises :class:`OptimizationError` carrying the
    scheme when the constraint residual exceeds ``opts.tol_constraint``
    or its error strays from ``E(n)`` by more than ``opts.tol_objective``.
    """
    scheme, _ = _checked_scheme(n, d, opts)
    return scheme


def sweep(n_values, d=2, opts=None):
    """Optimize every size in ``n_values`` and tabulate both error laws.

    A row whose scheme fails its checks is annotated and falls back to
    the canonical scheme rather than aborting the sweep.  ``iters`` is 0
    in every row, since no search runs.
    """
    n_values = [_integer(n, "swept size 'n'", 2) for n in n_values]
    if not n_values:
        raise ValueError("n_values must be nonempty")
    _require_size(max(n_values), d)  # the largest size bounds every window
    rows = []
    for n in n_values:
        baseline = 1.0 / (2.0 * n - 1.0)
        try:
            best, report = _checked_scheme(n, d, opts)
            error = best.cprime  # scheme_error(best), taken when it was built
            note = ""
        except OptimizationError as exc:
            best = build_canonical_scheme(n, d)
            report = validate_scheme(best)
            error = scheme_error(best)
            note = f"optimizer failed, canonical kept: {exc}"
        rows.append(
            SweepRow(
                n=n,
                error_wigner=baseline,
                error_optimized=error,
                constraint_residual=report.max_residual,
                iters=0,
                note=note,
            )
        )
    return SweepTable(rows=tuple(rows))


def fit_scaling(table):
    """Ordinary least squares of ``log(error_optimized)`` on ``log(n)``.

    Returns ``(slope, intercept, r2)``.  Requires at least three rows
    with strictly positive optimized errors.
    """
    rows = table.rows
    if len(rows) < 3:
        raise ValueError(f"need >= 3 rows to fit a scaling law, got {len(rows)}")
    if any(r.error_optimized <= 0 for r in rows):
        raise ValueError("every optimized error must be positive for a log fit")
    x = np.log([r.n for r in rows])
    y = np.log([r.error_optimized for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
