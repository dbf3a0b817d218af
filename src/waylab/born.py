"""Measurement postulate: outcome probabilities, collapse, and sampling.

``born_distribution`` implements the textbook rule on a finite-dimensional
space: outcome ``q_nu`` occurs with probability ``|(psi_nu, phi)|^2``,
summed over an orthonormal family ``psi_nu_kappa`` when the eigenvalue is
degenerate, and the post-measurement state is the normalized projection
onto the eigenspace.  ``three_outcome_stats`` specializes to the
approximate scheme: the apparatus is read out in the basis of the two
pointer states plus the orthogonal remainder, giving the outcomes
``plus``, ``minus`` and ``undetermined``.

Sampling uses the PCG64 generator (numpy's default bit generator),
seeded explicitly; the algorithm is named so counts are reproducible
across environments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graded import DEFAULT_TOL, GradedVector, ObjectState, inner, split_object_components, tensor
from .graded import _integer, _number_array
from .scheme import apply_interaction, derived_pointers

#: Label of the appended outcome when the state has weight outside the
#: declared eigenspaces.
OUTSIDE_SPAN = "outside-span"


@dataclass(frozen=True)
class Observable:
    """Eigenvalues with orthonormal eigenvector families.

    ``eigenvalues[k]`` belongs to the family ``eigenspaces[k]``, an array
    of shape ``(dim, multiplicity)`` whose columns are orthonormal;
    columns of different families must be orthonormal too.
    """

    eigenvalues: tuple
    eigenspaces: tuple

    def __init__(self, eigenvalues, eigenspaces, tol=1e-10):
        eigenvalues = tuple(_number_array(list(eigenvalues)).tolist())
        spaces = []
        for fam in eigenspaces:
            arr = _number_array(fam, complex)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.shape[1] == 0:
                raise ValueError("every eigenvalue needs a nonempty eigenvector family")
            spaces.append(arr)
        if len(eigenvalues) != len(spaces):
            raise ValueError(
                f"{len(eigenvalues)} eigenvalues vs {len(spaces)} eigenspaces"
            )
        labels = {}  # outcome label -> eigenvalue; distinct eigenvalues need distinct labels
        for q in eigenvalues:
            label = f"{q or 0.0:g}"  # -0.0 is the eigenvalue 0.0
            if not math.isfinite(q):
                raise ValueError(f"eigenvalues must be finite, got {q!r}")
            if label in labels:
                raise ValueError(
                    f"eigenvalues {labels[label]!r} and {q!r} share the outcome label {label!r}"
                    " (merge degenerate families)"
                )
            labels[label] = q
        stacked = np.hstack(spaces)
        with np.errstate(invalid="ignore"):  # non-finite entries fail the check below
            gram = stacked.conj().T @ stacked
        if not np.max(np.abs(gram - np.eye(gram.shape[0]))) <= tol:
            raise ValueError("eigenvectors must be orthonormal across all families")
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenspaces", tuple(spaces))

    @property
    def dim(self):
        return self.eigenspaces[0].shape[0]


@dataclass(frozen=True)
class Outcome:
    label: str
    probability: float
    post_state: object  # ndarray, GradedVector, or None for zero probability

    def _post_state_json(self):
        if self.post_state is None:
            return None
        if isinstance(self.post_state, GradedVector):
            return self.post_state.to_dict()
        return [[float(z.real), float(z.imag)] for z in np.asarray(self.post_state)]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Labeled outcome probabilities with post-measurement states."""

    outcomes: tuple

    def probability(self, label):
        for o in self.outcomes:
            if o.label == label:
                return o.probability
        raise KeyError(label)

    def labels(self):
        return tuple(o.label for o in self.outcomes)

    def probabilities(self):
        return tuple(o.probability for o in self.outcomes)

    def to_dict(self):
        return {
            "outcomes": [
                {
                    "label": o.label,
                    "probability": float(o.probability),
                    "post_state": o._post_state_json(),
                }
                for o in self.outcomes
            ]
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


def born_distribution(obs, phi, tol=DEFAULT_TOL):
    """Outcome distribution of measuring ``obs`` on state ``phi``.

    For a degenerate eigenvalue the probability is the summed squared
    overlap with its orthonormal family and the post state is the
    normalized projection onto that family's span.  Weight outside the
    declared eigenspaces (squared norm above ``1e-10``) is reported as an
    explicit ``outside-span`` outcome.
    """
    phi = _number_array(phi, complex)
    norm2 = float(np.vdot(phi, phi).real)
    if not abs(norm2 - 1.0) <= tol:
        raise ValueError(f"state must be normalized, got |phi|^2 = {norm2!r}")
    outcomes = []
    projected = np.zeros_like(phi)
    for q, fam in zip(obs.eigenvalues, obs.eigenspaces):
        coeff = fam.conj().T @ phi
        w = float(np.vdot(coeff, coeff).real)
        if w > 0.0:
            part = fam @ coeff
            post = part / np.sqrt(w)
            projected += part
        else:
            post = None
        outcomes.append(Outcome(label=f"{q:g}", probability=w, post_state=post))
    rest = phi - projected
    w_rest = float(np.vdot(rest, rest).real)
    if w_rest > 1e-10:
        outcomes.append(
            Outcome(
                label=OUTSIDE_SPAN,
                probability=w_rest,
                post_state=rest / np.sqrt(w_rest),
            )
        )
    return OutcomeDistribution(outcomes=tuple(outcomes))


def three_outcome_stats(s, obj, tol=DEFAULT_TOL):
    """Pointer-readout distribution of the scheme on a normalized object.

    Applies the interaction and projects the apparatus factor onto the
    normalized pointer states and the orthogonal remainder.  For the
    canonical construction the wrong-pointer probability vanishes and the
    undetermined probability equals the scheme error.
    """
    if not isinstance(obj, ObjectState):
        obj = ObjectState(*obj)
    joint = apply_interaction(s, obj, tol=tol)
    pointers = derived_pointers(s)
    outcomes = []
    remainder = joint
    # the apparatus factors of joint = psi0 (x) a0 + psi1 (x) a1
    a0, a1 = split_object_components(joint, s.d)
    for label, vec in (("plus", pointers.chi), ("minus", pointers.chiprime)):
        nrm = vec.norm()
        if nrm > tol:
            direction = (1.0 / nrm) * vec
            # the component of joint whose apparatus factor lies along direction
            amp0, amp1 = inner(direction, a0), inner(direction, a1)
            prob = float(abs(amp0) ** 2 + abs(amp1) ** 2)
            part = tensor(ObjectState(amp0, amp1), direction)
            remainder = remainder - part
            post = (1.0 / np.sqrt(prob)) * part if prob > tol**2 else None
            outcomes.append(Outcome(label=label, probability=prob, post_state=post))
        else:
            outcomes.append(Outcome(label=label, probability=0.0, post_state=None))
    w_rest = remainder.norm2()
    post = (1.0 / np.sqrt(w_rest)) * remainder if w_rest > tol**2 else None
    outcomes.append(Outcome(label="undetermined", probability=w_rest, post_state=post))
    return OutcomeDistribution(outcomes=tuple(outcomes))


def sample_outcomes(dist, shots, seed):
    """Multinomial counts for ``shots`` repetitions of the measurement.

    Deterministic for a fixed seed: draws come from a PCG64 generator
    (numpy default), and counts over the distribution's labels always
    sum to ``shots``.
    """
    shots = _integer(shots, "shots", 1)
    seed = _integer(seed, "seed", 0)
    labels = dist.labels()
    probs = np.asarray(dist.probabilities(), dtype=float)
    total = probs.sum()
    # tolerate the pointer-overlap drift of near-feasible schemes
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    probs = probs / total
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.multinomial(shots, probs)
    return {label: int(c) for label, c in zip(labels, counts)}


def counts_to_csv(counts, dist):
    """Counts CSV with header ``label,count,probability``."""
    lines = ["label,count,probability"]
    for o in dist.outcomes:
        lines.append(f"{o.label},{counts.get(o.label, 0)},{o.probability!r}")
    return "\n".join(lines) + "\n"
