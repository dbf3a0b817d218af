"""Relaxed measurements with product-form final states.

Dropping the requirement that the object stay in its branch, the most
general relaxation keeps the apparatus charge sharp before the
interaction (fixed to zero without loss of generality) and asks only
that the two branches end as product states
``(sum psi'_mu)(sum chi'_lambda)``.

Charge bookkeeping then cuts deep: the input branches carry total charge
0 or 1 only, so every product component at total charge outside {0, 1}
must vanish individually.  Two patterns survive:

* Case 1 -- the object keeps the superposition (object components at
  charges 0 and 1, apparatus sharp at 0), which reduces to the analysis
  of the strict scheme;
* Case 2 -- the conserved quantum is exchanged with the apparatus: the
  object ends sharp at charge 0 and the apparatus carries the
  superposition, turning the original distinguishability problem into
  the same problem one level up.

This module checks the support constraint, classifies clean inputs into
the two cases with their cross conditions, and extracts the exchanged
pointer pair of Case 2.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .graded import GradedVector, _dot, _row_dots, inner

#: Squared-amplitude threshold deciding "finite" (nonzero) components,
#: applied after branch normalization.
FINITE_TOL = 1e-9

#: Default bound on ``| |branch| - 1 |`` for :meth:`BranchSpec.is_normalized`.
_NORM_TOL = 1e-10

#: Largest ``| |branch| - 1 |`` that :func:`classify` accepts for each input branch.
_CLASSIFY_NORM_TOL = 1e-8

#: Default ``tol`` of :func:`exchange_form`: object parts of the two branches misaligned by
#: more than its square root have no common exchanged form.
_EXCHANGE_TOL = 1e-10


@dataclass(frozen=True)
class BranchSpec:
    """Product-form final state of one measurement branch."""

    object_part: GradedVector
    apparatus_part: GradedVector

    def norm(self):
        return self.object_part.norm() * self.apparatus_part.norm()

    def is_normalized(self, tol=_NORM_TOL):
        return abs(self.norm() - 1.0) <= tol

    def overlap(self, other):
        """Joint inner product of two product states."""
        return inner(self.object_part, other.object_part) * inner(
            self.apparatus_part, other.apparatus_part
        )


@dataclass(frozen=True)
class CaseVerdict:
    """Outcome of the two-case classification.

    ``kind`` is ``"Case1"``, ``"Case2"``, or ``"Infeasible"``, and is
    ``Infeasible`` exactly when ``violations`` is nonempty or
    ``cross_condition_residual`` (the norm of the charge-1 cancellation
    the case demands) exceeds tolerance.  ``finite_components`` labels
    the nonzero components found (``branch:part:charge``);
    ``violations`` lists ``(nu, mu)`` pairs of nonvanishing products at
    total charge ``nu`` outside {0, 1}.  ``branch_overlap`` is the
    magnitude of the inner product of the two full branch outputs, a
    unitarity necessary condition reported separately from the verdict
    (and not part of the JSON form).
    """

    kind: str
    finite_components: tuple
    cross_condition_residual: float
    violations: tuple
    branch_overlap: float = 0.0

    def to_dict(self):
        return {
            "kind": self.kind,
            "finite_components": list(self.finite_components),
            "cross_condition_residual": float(self.cross_condition_residual),
            "violations": [[nu, mu] for nu, mu in self.violations],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


def _finite_parts(branches, tol):
    """Finite sectors ``(object, apparatus)`` of each branch, computed once, and
    the sorted distinct ``(nu, mu)`` products at total charge outside {0, 1}.

    The rows of all the parts, zero-padded to the widest dimension, are
    weighed in one pass; a sector is finite when its squared norm exceeds
    ``tol``.
    """
    parts = [p for b in branches for p in (b.object_part, b.apparatus_part)]
    ends = list(itertools.accumulate(len(p._amps) for p in parts))
    rows = np.zeros((ends[-1], max(p.d for p in parts)), dtype=np.complex128)
    for p, end in zip(parts, ends):
        rows[end - len(p._amps) : end, : p.d] = p._amps
    sectors = [[] for _ in parts]
    for i in np.flatnonzero(_row_dots(rows, rows).real > tol).tolist():
        k = bisect.bisect_right(ends, i)  # the part holding row i
        sectors[k].append(parts[k]._lo + i - (ends[k] - len(parts[k]._amps)))
    finite = list(zip(sectors[::2], sectors[1::2]))
    violations = {
        (mu + lam, mu)
        for obj_supp, app_supp in finite
        for mu in obj_supp
        for lam in app_supp
        if mu + lam not in (0, 1)
    }
    return finite, sorted(violations)


def support_check(plus_branch, minus_branch, tol=FINITE_TOL):
    """Product components at total charge outside {0, 1}.

    Returns the sorted list of distinct ``(nu, mu)`` pairs (total charge
    ``nu``, object charge ``mu``) whose product component
    ``psi_mu (x) chi_{nu - mu}`` is nonzero in either branch; an empty
    list means the support constraint holds.
    """
    return _finite_parts((plus_branch, minus_branch), tol)[1]


def classify(plus_branch, minus_branch, tol=FINITE_TOL):
    """Two-case classification of a pair of product branches.

    The verdict rule, on the sectors of each part above ``tol``: a product
    at total charge outside {0, 1} (a support violation) makes the pair
    ``Infeasible`` with residual 0.  Otherwise each branch is flagged
    ``(object raised, apparatus raised)``, raised meaning a sector off
    charge 0.  ``(True, False)`` in both branches is Case 1 with residual
    ``|sum psi_1 (x) chi_0|`` over the branches, ``(False, True)`` in both
    is Case 2 with ``|sum psi_0 (x) chi_1|``, and either stands only if the
    residual is at most ``sqrt(tol)``.  Other flags are ``Infeasible`` with
    the norm of all charge-1 products ``psi_mu (x) chi_{1 - mu}`` (1.0 if
    none).  The overlap of the two branch outputs (a unitarity necessary
    condition) is reported in ``branch_overlap``, not in the verdict.
    """
    branches = (plus_branch, minus_branch)
    for name, branch in zip(("plus", "minus"), branches):
        if not branch.is_normalized(_CLASSIFY_NORM_TOL):
            raise ValueError(f"{name} branch is not normalized: |.| = {branch.norm()!r}")

    finite, violations = _finite_parts(branches, tol)
    flags = {tuple(any(nu != 0 for nu in supp) for supp in parts) for parts in finite}
    if violations:
        kind, residual = "Infeasible", 0.0
    elif flags in ({(True, False)}, {(False, True)}):
        kind, mu = ("Case1", 1) if flags == {(True, False)} else ("Case2", 0)
        cross = sum(np.outer(b.object_part.sector(mu), b.apparatus_part.sector(1 - mu))
                    for b in branches)
        residual = float(np.linalg.norm(cross))
        kind = kind if residual <= np.sqrt(tol) else "Infeasible"
    else:
        # charge-1 leftovers in orthogonal object-charge subspaces cannot cancel
        squares = sum(
            float(_dot(m, m).real)
            for b, (obj_supp, app_supp) in zip(branches, finite)
            for m in [np.outer(b.object_part.sector(mu), b.apparatus_part.sector(1 - mu))
                      for mu in obj_supp if 1 - mu in app_supp]
        )
        kind, residual = "Infeasible", float(np.sqrt(squares)) if squares > 0 else 1.0
    labels = tuple(
        f"{name}:{part}:{nu}"
        for name, parts in zip(("plus", "minus"), finite)
        for part, supp in zip(("object", "apparatus"), parts)
        for nu in supp
    )
    overlap = abs(plus_branch.overlap(minus_branch))
    return CaseVerdict(kind, labels, residual, tuple(violations), overlap)


def exchange_form(verdict, plus_branch, minus_branch, tol=_EXCHANGE_TOL):
    """Exchanged pointer pair ``(chi0, chi1)`` of a Case 2 instance.

    The branches are ``psi'_0 (chi0 + chi1)`` and ``psi'_0 (chi0 - chi1)``
    up to a global phase of the second branch; the extracted pair
    reproduces both branches exactly, shifting the distinguishability
    problem from the object onto the apparatus.
    """
    if verdict.kind != "Case2":
        raise ValueError(f"exchange form requires a Case2 verdict, got {verdict.kind}")
    p = plus_branch.object_part
    q = minus_branch.object_part
    p2 = p.norm2()
    phase = inner(p, q) / p2
    misalign = (q - phase * p).norm()
    if misalign > np.sqrt(tol):
        raise ValueError(
            f"object parts of the two branches are not parallel "
            f"(residual {misalign:.3e}); no common exchanged form exists"
        )
    a_plus = plus_branch.apparatus_part
    a_minus = phase * minus_branch.apparatus_part
    chi0 = 0.5 * (a_plus + a_minus)
    chi1 = 0.5 * (a_plus - a_minus)
    return chi0, chi1
