"""Charge-graded complex vector algebra.

States of a system carrying an additive conserved quantity (electric
charge, z-angular momentum, baryon number, ...) split into sectors labeled
by the integer number of quanta they contain.  This module provides the
sector-indexed vector type used throughout the package, the hermitian
inner product, graded tensor products with a two-level object, and the
structural checks (grading preservation, isometry, orthogonality
transfer) for interaction maps that commute with the conserved quantity.

Conventions
-----------
* Sector labels are signed integers; half-integer physical values are
  absorbed by relabeling.
* Every sector vector of a :class:`GradedVector` has the same dimension
  ``d``; absent sectors are zero.
* A :class:`GradedVector` stores one *window*: a read-only ``(k, d)``
  complex array whose rows are sectors ``lo..lo+k-1``, trimmed so its
  first and last rows are nonzero; zero interior rows are absent from
  ``support()``.  Operations are array expressions over windows.
* A window costs memory in proportion to its label span, so one of more
  than ``2**24`` entries (``(hi - lo + 1) * d``, 256 MiB) is rejected
  with ``ValueError`` before it is allocated.
* ``inner`` is conjugate-linear in its *first* argument.
* A joint object+apparatus vector is itself a :class:`GradedVector` with
  per-sector dimension ``2 * d``: within total-charge sector ``N`` the
  first ``d`` slots hold the object-charge-0 component (apparatus sector
  ``N``) and the last ``d`` slots the object-charge-1 component
  (apparatus sector ``N - 1``).
* All values are immutable after construction and all operations are
  pure functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default absolute tolerance for structural residual checks.
DEFAULT_TOL = 1e-10

#: Largest window a graded vector may allocate, in complex entries (256 MiB).
_MAX_WINDOW_ENTRIES = 2**24


def _zeros(lo, hi, d):
    """Zero window for sectors ``lo..hi``, refused beyond the entry limit."""
    if (hi - lo + 1) * d > _MAX_WINDOW_ENTRIES:
        raise ValueError(
            f"sector labels {lo}..{hi} at dimension {d} span more than "
            f"{_MAX_WINDOW_ENTRIES} entries"
        )
    return np.zeros((max(hi - lo + 1, 0), d), dtype=np.complex128)


def _bounds(*vectors):
    """Smallest label range covering every vector; ``(0, -1)`` if all are zero."""
    nonzero = [v for v in vectors if not v.is_zero()]
    if not nonzero:
        return 0, -1
    return min(v._lo for v in nonzero), max(v._hi for v in nonzero)


def _row_dots(a, b):
    """Per-row hermitian products ``<a_i, b_i>`` of two windows."""
    return np.einsum("ij,ij->i", a.conj(), b)


class GradedVector:
    """Complex vector decomposed into integer charge sectors.

    Parameters
    ----------
    d : int
        Common dimension of every sector vector (``d >= 1``).
    sectors : mapping
        ``{nu: amplitudes}`` with ``amplitudes`` array-like of shape
        ``(d,)``.  Sectors whose amplitudes are exactly zero are dropped,
        so explicit zeros and absent sectors compare equal.
    """

    __slots__ = ("d", "_lo", "_amps")

    def __init__(self, d, sectors=None):
        if d < 1:
            raise ValueError(f"sector dimension must be >= 1, got {d}")
        d = self.d = int(d)
        rows = {}
        for nu, amp in (sectors or {}).items():
            arr = np.asarray(amp, dtype=np.complex128)
            if arr.shape != (d,):
                raise ValueError(f"sector {nu}: expected shape ({d},), got {arr.shape}")
            if np.any(arr != 0):
                rows[int(nu)] = arr
        lo, hi = (min(rows), max(rows)) if rows else (0, -1)
        amps = _zeros(lo, hi, d)
        for nu, arr in rows.items():
            amps[nu - lo] = arr
        self._store(lo, amps)

    def _store(self, lo, amps):
        """Keep ``amps`` (sectors ``lo, lo + 1, ...``) trimmed to nonzero rows."""
        nonzero = np.flatnonzero(np.any(amps != 0, axis=1))
        first, stop = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
        self._lo = int(lo) + first if nonzero.size else 0
        self._amps = amps[first:stop]
        self._amps.setflags(write=False)

    @classmethod
    def from_window(cls, lo, amps):
        """Vector whose sectors ``lo, lo + 1, ...`` are the rows of ``amps``, copied."""
        amps = np.array(amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] < 1:
            raise ValueError(f"window shape {amps.shape} is not (k, d) with d >= 1")
        vec = cls(amps.shape[1])
        vec._store(lo, amps)
        return vec

    # -- basic queries ---------------------------------------------------

    @property
    def _hi(self):
        return self._lo + len(self._amps) - 1

    def support(self):
        """Sorted tuple of sector labels with nonzero amplitudes."""
        rows = np.flatnonzero(np.any(self._amps != 0, axis=1))
        return tuple((rows + self._lo).tolist())

    def sector(self, nu):
        """Amplitude vector of sector ``nu`` (zeros if absent)."""
        i = int(nu) - self._lo
        if 0 <= i < len(self._amps):
            return self._amps[i]
        return np.zeros(self.d, dtype=np.complex128)

    def items(self):
        """``(nu, amplitudes)`` pairs over the support, in label order."""
        return [(nu, self._amps[nu - self._lo]) for nu in self.support()]

    def window(self, lo, hi):
        """Sectors ``lo..hi`` as a zero-padded ``(hi - lo + 1, d)`` copy."""
        out = _zeros(lo, hi, self.d)
        a, b = max(lo, self._lo), min(hi, self._hi)
        if a <= b:
            out[a - lo : b - lo + 1] = self._amps[a - self._lo : b - self._lo + 1]
        return out

    def norm2(self):
        """Squared norm, the sum of squared sector norms."""
        return float(np.vdot(self._amps, self._amps).real)

    def norm(self):
        return float(np.sqrt(self.norm2()))

    def is_zero(self):
        return not len(self._amps)

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        if self.d != other.d:
            raise ValueError(f"sector dimension mismatch: {self.d} vs {other.d}")
        lo, hi = _bounds(self, other)
        return GradedVector.from_window(lo, self.window(lo, hi) + other.window(lo, hi))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return GradedVector.from_window(self._lo, scalar * self._amps)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return (
            self.d == other.d
            and self._lo == other._lo
            and np.array_equal(self._amps, other._amps)
        )

    __hash__ = None

    def allclose(self, other, atol=DEFAULT_TOL):
        """Equality up to ``atol``, treating absent sectors as zeros."""
        if self.d != other.d:
            return False
        lo, hi = _bounds(self, other)
        return np.allclose(self.window(lo, hi), other.window(lo, hi), atol=atol, rtol=0.0)

    def __repr__(self):
        return f"GradedVector(d={self.d}, support={list(self.support())})"

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        """JSON form: ``{"d": int, "sectors": [{"nu": int, "amp": [[re, im], ...]}]}``."""
        return {
            "d": self.d,
            "sectors": [
                {"nu": nu, "amp": [[float(z.real), float(z.imag)] for z in amp]}
                for nu, amp in self.items()
            ],
        }

    @classmethod
    def from_dict(cls, data):
        sectors = {
            int(entry["nu"]): [complex(re, im) for re, im in entry["amp"]]
            for entry in data["sectors"]
        }
        return cls(int(data["d"]), sectors)


@dataclass(frozen=True)
class ObjectState:
    """Two-level measured object: ``amp0`` on charge 0, ``amp1`` on charge 1."""

    amp0: complex
    amp1: complex

    def norm2(self):
        return abs(self.amp0) ** 2 + abs(self.amp1) ** 2

    def is_normalized(self, tol=DEFAULT_TOL):
        return abs(self.norm2() - 1.0) <= tol

    def require_normalized(self, tol=DEFAULT_TOL):
        if not self.is_normalized(tol):
            raise ValueError(
                f"object state not normalized: |amp0|^2+|amp1|^2 = {self.norm2()!r}"
            )


@dataclass(frozen=True)
class ConstraintReport:
    """Named residuals of a constraint system.

    ``entries`` is a tuple of ``(constraint_id, residual)`` with residuals
    nonnegative; ``max_residual`` is their maximum (0.0 when empty), or
    NaN when any residual is NaN, so a report with a NaN never passes.
    """

    entries: tuple

    @property
    def max_residual(self):
        residuals = [r for _, r in self.entries]
        # max() skips a NaN unless it comes first; the sum of nonnegative
        # residuals is NaN exactly when one of them is
        if math.isnan(sum(residuals)):
            return math.nan
        return max(residuals, default=0.0)

    @property
    def sum_squares(self):
        """Unweighted sum of squared residuals over all entries."""
        return float(sum(r * r for _, r in self.entries))

    def passed(self, tol=DEFAULT_TOL):
        return self.max_residual < tol

    def entry(self, constraint_id):
        """Residual of a single named entry."""
        for cid, r in self.entries:
            if cid == constraint_id:
                return r
        raise KeyError(constraint_id)

    def filter(self, prefix):
        """Sub-report of entries whose id starts with ``prefix``."""
        return ConstraintReport(
            tuple((cid, r) for cid, r in self.entries if cid.startswith(prefix))
        )

    def to_dict(self):
        return {
            "entries": [[cid, float(r)] for cid, r in self.entries],
            "max_residual": float(self.max_residual),
        }


# -- operations -------------------------------------------------------------


def inner(u, v):
    """Hermitian scalar product of graded vectors.

    Conjugate-linear in ``u``, linear in ``v``.  Sectors absent from
    either argument contribute zero, so vectors with disjoint charge
    support are orthogonal by grading alone.
    """
    if u.d != v.d:
        raise ValueError(f"sector dimension mismatch: {u.d} vs {v.d}")
    lo, hi = max(u._lo, v._lo), min(u._hi, v._hi)
    return complex(np.vdot(u.window(lo, hi), v.window(lo, hi)))


def tensor(obj, app):
    """Joint state of a two-level object and a graded apparatus.

    The result is graded by total charge: sector ``N`` stacks
    ``amp0 * app_N`` (object charge 0) above ``amp1 * app_{N-1}``
    (object charge 1).  The norm of the result is ``|obj| * |app|``.
    """
    d, amps = app.d, app._amps
    joint = np.zeros((len(amps) + 1, 2 * d), dtype=np.complex128)
    if obj.amp0 != 0:
        joint[:-1, :d] += obj.amp0 * amps
    if obj.amp1 != 0:
        joint[1:, d:] += obj.amp1 * amps
    return GradedVector.from_window(app._lo, joint)


def split_object_components(joint, d):
    """Inverse of the :func:`tensor` layout.

    Returns the pair ``(A0, A1)`` of apparatus-side graded vectors such
    that ``joint = psi0 (x) A0 + psi1 (x) A1``.
    """
    if joint.d != 2 * d:
        raise ValueError(f"joint sector dimension {joint.d} != 2*{d}")
    amps = joint._amps
    return (
        GradedVector.from_window(joint._lo, amps[:, :d]),
        GradedVector.from_window(joint._lo - 1, amps[:, d:]),
    )


def charge_expectation(v):
    """Mean number of conserved quanta carried by ``v``."""
    total = v.norm2()
    if total == 0.0:
        raise ValueError("charge expectation undefined for the zero vector")
    weights = _row_dots(v._amps, v._amps).real
    return float(np.arange(v._lo, v._hi + 1) @ weights / total)


class BlockMap:
    """Linear map given block-by-block over total-charge sectors.

    ``blocks[N]`` is a pair ``(domain, image)`` of complex ``(d, m)``
    arrays: the columns of ``domain`` are the declared domain vectors
    inside the charge-``N`` sector and the columns of ``image`` their
    images, in the same sector.  Block-diagonality over total charge is
    built into the representation, so conservation can only fail through
    a per-block isometry defect, never through off-grading leakage.
    """

    __slots__ = ("d", "blocks")

    def __init__(self, d, blocks):
        self.d = int(d)
        self.blocks = {}
        for n, (dom, img) in blocks.items():
            dom = np.asarray(dom, dtype=np.complex128)
            img = np.asarray(img, dtype=np.complex128)
            if dom.ndim != 2 or dom.shape[0] != self.d:
                raise ValueError(f"block {n}: domain shape {dom.shape}")
            if img.shape != dom.shape:
                raise ValueError(
                    f"block {n}: image shape {img.shape} != domain shape {dom.shape}"
                )
            self.blocks[int(n)] = (dom, img)

    def sectors(self):
        return tuple(sorted(self.blocks))

    def apply(self, v, tol=DEFAULT_TOL):
        """Image of a graded vector lying in the declared domain."""
        if v.d != self.d:
            raise ValueError(f"sector dimension mismatch: {v.d} vs {self.d}")
        out = {}
        for nu, amp in v.items():
            pair = self.blocks.get(nu)
            if pair is None:
                raise ValueError(f"sector {nu} outside the declared domain")
            dom, img = pair
            coeff, *_ = np.linalg.lstsq(dom, amp, rcond=None)
            residual = np.linalg.norm(dom @ coeff - amp)
            if residual > tol * (1.0 + np.linalg.norm(amp)):
                raise ValueError(
                    f"sector {nu}: component outside the declared domain "
                    f"(projection residual {residual:.3e})"
                )
            out[nu] = img @ coeff
        return GradedVector(self.d, out)

    def completed(self, tol=1e-8):
        """Deterministic extension of each block to a full unitary.

        One SVD per block gives an orthonormal basis of the domain span
        (rank tolerance ``1e-12``) and, through its coefficients, the
        matching image basis; a Householder QR extends both to the whole
        sector, a deterministic completion.  Requires the map to be an
        isometry on its declared domain.
        """
        report = check_conserving(self)
        # written as "not <=" so a NaN defect is refused too
        if not report.max_residual <= tol:
            raise ValueError(
                f"cannot complete a non-isometric map (defect {report.max_residual:.3e})"
            )
        blocks = {}
        for n, (dom, img) in self.blocks.items():
            u, sv, vh = np.linalg.svd(dom, full_matrices=False)
            rank = int(np.count_nonzero(sv > 1e-12))
            q_img = img @ (vh[:rank].conj().T / sv[:rank])
            blocks[n] = (_extend_basis(u[:, :rank]), _extend_basis(q_img))
        return BlockMap(self.d, blocks)


def _extend_basis(q):
    """Orthonormal columns ``q``, then their complement from the QR of ``[q | I]``."""
    full, _ = np.linalg.qr(np.hstack([q, np.eye(q.shape[0])]))
    return np.hstack([q, full[:, q.shape[1] :]])


def check_conserving(m):
    """Structural report for a :class:`BlockMap`.

    Off-grading leakage is zero by construction and asserted anyway; the
    isometry defect of block ``N`` is the max-norm difference between the
    Gram matrix of the image columns and the Gram matrix of the domain
    columns.
    """
    entries = [("grading", 0.0)]
    for n in m.sectors():
        dom, img = m.blocks[n]
        g_dom = dom.conj().T @ dom
        g_img = img.conj().T @ img
        defect = float(np.max(np.abs(g_img - g_dom))) if dom.shape[1] else 0.0
        entries.append((f"isometry[{n}]", defect))
    return ConstraintReport(tuple(entries))


def orthogonality_transfer_check(m, inputs, tol=DEFAULT_TOL):
    """Gram matrices of a family of inputs before and after the map.

    A unitary interaction transfers orthogonality of the pointer states
    back to the measured states, so for any conserving isometry the two
    matrices agree within tolerance.
    """
    k = len(inputs)
    images = [m.apply(v, tol=tol) for v in inputs]
    g_pre = np.zeros((k, k), dtype=np.complex128)
    g_post = np.zeros((k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            g_pre[i, j] = inner(inputs[i], inputs[j])
            g_post[i, j] = inner(images[i], images[j])
    return g_pre, g_post
