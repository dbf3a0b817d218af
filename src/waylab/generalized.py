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

import json
from dataclasses import dataclass

import numpy as np

from .graded import GradedVector, _row_dots, inner

#: Squared-amplitude threshold deciding "finite" (nonzero) components,
#: applied after branch normalization.
FINITE_TOL = 1e-9


@dataclass(frozen=True)
class BranchSpec:
    """Product-form final state of one measurement branch."""

    object_part: GradedVector
    apparatus_part: GradedVector

    def norm(self):
        return self.object_part.norm() * self.apparatus_part.norm()

    def is_normalized(self, tol=1e-10):
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


def _finite_sectors(vec, tol):
    support = vec.support() or (0,)
    amps = vec.window(support[0], support[-1])
    weights = _row_dots(amps, amps).real
    return [support[0] + int(i) for i in np.flatnonzero(weights > tol)]


def support_check(plus_branch, minus_branch, tol=FINITE_TOL):
    """Product components at total charge outside {0, 1}.

    Returns the sorted list of distinct ``(nu, mu)`` pairs (total charge
    ``nu``, object charge ``mu``) whose product component
    ``psi_mu (x) chi_{nu - mu}`` is nonzero in either branch; an empty
    list means the support constraint holds.
    """
    pairs = set()
    for branch in (plus_branch, minus_branch):
        app_supp = _finite_sectors(branch.apparatus_part, tol)
        for mu in _finite_sectors(branch.object_part, tol):
            pairs.update((mu + lam, mu) for lam in app_supp if mu + lam not in (0, 1))
    return sorted(pairs)


def _pattern(branch, tol):
    """Finite-component pattern of one clean branch.

    Returns ``"Case1"`` when the object carries both charges and the
    apparatus is sharp, ``"Case2"`` for the mirror pattern, or ``None``
    when neither side carries the charge-1 component.
    """
    obj_raised = any(nu != 0 for nu in _finite_sectors(branch.object_part, tol))
    app_raised = any(nu != 0 for nu in _finite_sectors(branch.apparatus_part, tol))
    if obj_raised and not app_raised:
        return "Case1"
    if app_raised and not obj_raised:
        return "Case2"
    return None


def _component_labels(plus_branch, minus_branch, tol):
    return tuple(
        f"{name}:{part_name}:{nu}"
        for name, branch in (("plus", plus_branch), ("minus", minus_branch))
        for part_name, part in (
            ("object", branch.object_part), ("apparatus", branch.apparatus_part)
        )
        for nu in _finite_sectors(part, tol)
    )


def _outer(obj_vec, app_vec, mu, lam):
    """Product component psi_mu (x) chi_lam as a flat matrix."""
    return np.outer(obj_vec.sector(mu), app_vec.sector(lam))


def classify(plus_branch, minus_branch, tol=FINITE_TOL):
    """Two-case classification of a pair of product branches.

    Runs the support check; on clean support, matches the finite
    components against the two admissible patterns and evaluates the
    applicable charge-1 cross condition as a residual.  Orthogonality of
    the two full branch outputs (a unitarity necessary condition) is
    verified alongside and reported in ``branch_overlap`` without
    affecting the verdict.
    """
    for name, branch in (("plus", plus_branch), ("minus", minus_branch)):
        if not branch.is_normalized(1e-8):
            raise ValueError(f"{name} branch is not normalized: |.| = {branch.norm()!r}")

    violations = tuple(support_check(plus_branch, minus_branch, tol))
    labels = _component_labels(plus_branch, minus_branch, tol)
    overlap = abs(plus_branch.overlap(minus_branch))
    if violations:
        return CaseVerdict(
            kind="Infeasible",
            finite_components=labels,
            cross_condition_residual=0.0,
            violations=violations,
            branch_overlap=overlap,
        )

    pat_plus = _pattern(plus_branch, tol)
    pat_minus = _pattern(minus_branch, tol)

    if pat_plus is None or pat_minus is None or pat_plus != pat_minus:
        # No consistent charge-1 cancellation exists across the branches:
        # leftover charge-1 components sit in orthogonal object-charge
        # subspaces (or are missing entirely) and cannot cancel.
        residual = sum(
            float(np.vdot(m, m).real)
            for branch in (plus_branch, minus_branch)
            for m in _charge_one_products(branch, tol)
        )
        residual = float(np.sqrt(residual)) if residual > 0 else 1.0
        return CaseVerdict(
            kind="Infeasible",
            finite_components=labels,
            cross_condition_residual=residual,
            violations=(),
            branch_overlap=overlap,
        )

    mu, lam = (1, 0) if pat_plus == "Case1" else (0, 1)
    cross = sum(
        _outer(b.object_part, b.apparatus_part, mu, lam)
        for b in (plus_branch, minus_branch)
    )
    residual = float(np.linalg.norm(cross))
    kind = pat_plus if residual <= np.sqrt(tol) else "Infeasible"
    return CaseVerdict(
        kind=kind,
        finite_components=labels,
        cross_condition_residual=residual,
        violations=(),
        branch_overlap=overlap,
    )


def _charge_one_products(branch, tol):
    app_supp = set(_finite_sectors(branch.apparatus_part, tol))
    return [
        _outer(branch.object_part, branch.apparatus_part, mu, 1 - mu)
        for mu in _finite_sectors(branch.object_part, tol)
        if 1 - mu in app_supp
    ]


def exchange_form(verdict, plus_branch, minus_branch, tol=1e-10):
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
