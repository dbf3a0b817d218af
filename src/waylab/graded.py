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

    __slots__ = ("d", "_sectors")

    def __init__(self, d, sectors=None):
        if d < 1:
            raise ValueError(f"sector dimension must be >= 1, got {d}")
        self.d = int(d)
        store = {}
        for nu, amp in (sectors or {}).items():
            arr = np.asarray(amp, dtype=np.complex128)
            if arr.shape != (self.d,):
                raise ValueError(
                    f"sector {nu}: expected shape ({self.d},), got {arr.shape}"
                )
            if np.any(arr != 0):
                arr = arr.copy()
                arr.setflags(write=False)
                store[int(nu)] = arr
        self._sectors = store

    # -- basic queries ---------------------------------------------------

    def support(self):
        """Sorted tuple of sector labels with nonzero amplitudes."""
        return tuple(sorted(self._sectors))

    def sector(self, nu):
        """Amplitude vector of sector ``nu`` (zeros if absent)."""
        arr = self._sectors.get(int(nu))
        if arr is None:
            return np.zeros(self.d, dtype=np.complex128)
        return arr

    def items(self):
        return self._sectors.items()

    def norm2(self):
        """Squared norm, the sum of squared sector norms."""
        return float(
            sum(np.vdot(a, a).real for a in self._sectors.values())
        )

    def norm(self):
        return float(np.sqrt(self.norm2()))

    def is_zero(self):
        return not self._sectors

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        if self.d != other.d:
            raise ValueError(f"sector dimension mismatch: {self.d} vs {other.d}")
        sectors = {}
        for nu in set(self._sectors) | set(other._sectors):
            sectors[nu] = self.sector(nu) + other.sector(nu)
        return GradedVector(self.d, sectors)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return GradedVector(
            self.d, {nu: scalar * a for nu, a in self._sectors.items()}
        )

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return (
            self.d == other.d
            and self.support() == other.support()
            and all(
                np.array_equal(self._sectors[nu], other._sectors[nu])
                for nu in self._sectors
            )
        )

    __hash__ = None

    def allclose(self, other, atol=DEFAULT_TOL):
        """Equality up to ``atol``, treating absent sectors as zeros."""
        if self.d != other.d:
            return False
        return all(
            np.allclose(self.sector(nu), other.sector(nu), atol=atol, rtol=0.0)
            for nu in set(self._sectors) | set(other._sectors)
        )

    def __repr__(self):
        return f"GradedVector(d={self.d}, support={list(self.support())})"

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        """JSON form: ``{"d": int, "sectors": [{"nu": int, "amp": [[re, im], ...]}]}``."""
        return {
            "d": self.d,
            "sectors": [
                {
                    "nu": nu,
                    "amp": [[float(z.real), float(z.imag)] for z in self._sectors[nu]],
                }
                for nu in self.support()
            ],
        }

    @classmethod
    def from_dict(cls, data):
        d = int(data["d"])
        sectors = {
            int(entry["nu"]): np.array(
                [complex(re, im) for re, im in entry["amp"]], dtype=np.complex128
            )
            for entry in data["sectors"]
        }
        return cls(d, sectors)


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
    acc = 0.0 + 0.0j
    common = set(u._sectors) & set(v._sectors)
    for nu in common:
        acc += np.vdot(u._sectors[nu], v._sectors[nu])
    return complex(acc)


def tensor(obj, app):
    """Joint state of a two-level object and a graded apparatus.

    The result is graded by total charge: sector ``N`` stacks
    ``amp0 * app_N`` (object charge 0) above ``amp1 * app_{N-1}``
    (object charge 1).  The norm of the result is ``|obj| * |app|``.
    """
    d = app.d
    sectors = {}

    def _slot(total, offset, amp):
        block = sectors.setdefault(total, np.zeros(2 * d, dtype=np.complex128))
        block[offset : offset + d] += amp

    for nu, amp in app.items():
        if obj.amp0 != 0:
            _slot(nu, 0, obj.amp0 * amp)
        if obj.amp1 != 0:
            _slot(nu + 1, d, obj.amp1 * amp)
    return GradedVector(2 * d, sectors)


def split_object_components(joint, d):
    """Inverse of the :func:`tensor` layout.

    Returns the pair ``(A0, A1)`` of apparatus-side graded vectors such
    that ``joint = psi0 (x) A0 + psi1 (x) A1``.
    """
    if joint.d != 2 * d:
        raise ValueError(f"joint sector dimension {joint.d} != 2*{d}")
    a0, a1 = {}, {}
    for total, block in joint.items():
        head, tail = block[:d], block[d:]
        if np.any(head != 0):
            a0[total] = head
        if np.any(tail != 0):
            a1[total - 1] = tail
    return GradedVector(d, a0), GradedVector(d, a1)


def charge_expectation(v):
    """Mean number of conserved quanta carried by ``v``."""
    total = v.norm2()
    if total == 0.0:
        raise ValueError("charge expectation undefined for the zero vector")
    acc = sum(nu * np.vdot(a, a).real for nu, a in v.items())
    return float(acc / total)


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

        Domain and image column spans are orthonormalized and extended by
        canonical basis vectors in a fixed order, so the completion is
        reproducible.  Requires the map to be an isometry on its declared
        domain.
        """
        report = check_conserving(self)
        if report.max_residual > tol:
            raise ValueError(
                f"cannot complete a non-isometric map (defect {report.max_residual:.3e})"
            )
        blocks = {}
        for n, (dom, img) in self.blocks.items():
            q_dom, coeff = _orthonormal_columns(dom)
            q_img = img @ coeff
            full_dom = _extend_basis(q_dom)
            # Map the added domain directions onto the matching extension
            # of the image span.
            full_img = np.hstack([q_img, _extend_basis(q_img)[:, q_img.shape[1]:]])
            blocks[n] = (full_dom, full_img)
        return BlockMap(self.d, blocks)


def _orthonormal_columns(a, tol=1e-12):
    """Modified Gram-Schmidt returning ``(q, c)`` with ``q = a @ c``."""
    d, m = a.shape
    q_cols, c_cols = [], []
    coeff = np.zeros((m, 0), dtype=np.complex128)
    for j in range(m):
        v = a[:, j].copy()
        cj = np.zeros(m, dtype=np.complex128)
        cj[j] = 1.0
        for q, cq in zip(q_cols, c_cols):
            ov = np.vdot(q, v)
            v -= ov * q
            cj -= ov * cq
        nv = np.linalg.norm(v)
        if nv > tol:
            q_cols.append(v / nv)
            c_cols.append(cj / nv)
    q = np.column_stack(q_cols) if q_cols else np.zeros((d, 0), dtype=np.complex128)
    c = np.column_stack(c_cols) if c_cols else np.zeros((m, 0), dtype=np.complex128)
    return q, c


def _extend_basis(q, tol=1e-12):
    """Extend orthonormal columns ``q`` to a full basis of the sector."""
    d = q.shape[0]
    cols = [q[:, j] for j in range(q.shape[1])]
    for k in range(d):
        v = np.zeros(d, dtype=np.complex128)
        v[k] = 1.0
        for c in cols:
            v -= np.vdot(c, v) * c
        nv = np.linalg.norm(v)
        if nv > tol:
            cols.append(v / nv)
        if len(cols) == d:
            break
    return np.column_stack(cols)


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
