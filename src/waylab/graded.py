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
* A :class:`BlockMap` stores its blocks stacked by column count ``m``:
  each group is a sorted label array with ``(K, d, m)`` domain and image
  stacks, ``blocks`` maps each label to views into them, and every
  operation is a few batched array or LAPACK calls per group (taken in
  slices of at most 256 blocks, which bounds their temporaries) rather
  than a loop over sectors.
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
from types import MappingProxyType

import numpy as np

#: Default absolute tolerance for structural residual checks.
DEFAULT_TOL = 1e-10

#: Largest window a graded vector may allocate, in complex entries (256 MiB).
_MAX_WINDOW_ENTRIES = 2**24

#: Most blocks per batched call over a :class:`BlockMap`'s stacks.
_SLICE = 256


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
        rows = np.flatnonzero(np.any(self._amps != 0, axis=1))
        amps = self._amps[rows].view(np.float64).reshape(len(rows), self.d, 2).tolist()
        labels = (rows + self._lo).tolist()
        return {
            "d": self.d,
            "sectors": [{"nu": nu, "amp": amp} for nu, amp in zip(labels, amps)],
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; the last entry of a repeated ``nu`` wins.

        Malformed data (a missing key, a label that is not an integer, an
        ``amp`` that is not ``d`` pairs of numbers) raise ``ValueError``.
        """
        if not isinstance(data, dict) or not isinstance(data.get("sectors"), list):
            raise ValueError("expected an object with 'd' and a 'sectors' list")
        vec = cls(_int_field(data, "d"))
        entries, d = data["sectors"], vec.d
        if not entries:
            return vec
        if not all(isinstance(e, dict) and "amp" in e for e in entries):
            raise ValueError("every sector needs 'nu' and 'amp'")
        try:
            labels = np.array([_int_field(e, "nu") for e in entries], dtype=np.int64)
        except OverflowError:
            raise ValueError("sector label out of the 64-bit range") from None
        try:
            amps = _number_array([e["amp"] for e in entries])
        except ValueError:
            amps = None
        if amps is None or amps.shape != (len(entries), d, 2):
            _raise_amp_error(labels, entries, d)
        # the last entry of each label, in label order, without exact-zero sectors
        last = len(labels) - 1 - np.unique(labels[::-1], return_index=True)[1]
        labels, amps = labels[last], amps[last].view(np.complex128)[..., 0]
        keep = np.any(amps != 0, axis=1)
        labels, amps = labels[keep], amps[keep]
        if len(labels):
            lo = int(labels[0])
            window = _zeros(lo, int(labels[-1]), d)
            window[labels - lo] = amps
            vec._store(lo, window)
        return vec


def _int_field(data, key):
    """``int(data[key])``, or ``ValueError`` naming ``key``."""
    try:
        return int(data[key])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValueError(f"{key!r} must be an integer") from None


def _number_array(value):
    """``value`` as a float array, or ``ValueError`` unless it is a regular array of numbers."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"not an array of numbers (dtype {arr.dtype})")
    return arr.astype(np.float64)


def _raise_amp_error(labels, entries, d):
    """Name the first sector whose ``amp`` is not ``d`` pairs of numbers."""
    for nu, entry in zip(labels.tolist(), entries):
        try:
            shape = _number_array(entry["amp"]).shape
        except ValueError:
            raise ValueError(f"sector {nu}: amp is not an array of numbers") from None
        if shape != (d, 2):
            raise ValueError(f"sector {nu}: expected amp shape ({d}, 2), got {shape}")


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

    The blocks are stored stacked: those with ``m`` columns form one
    group of a sorted label array and ``(K, d, m)`` domain and image
    stacks, and each operation is batched over a group.  ``blocks`` is a
    read-only mapping, in the order the blocks were given, whose values
    are views into the stacks.
    """

    __slots__ = ("d", "blocks", "_groups")

    def __init__(self, d, blocks):
        d = int(d)
        parsed = {}
        for n, (dom, img) in blocks.items():
            dom = np.asarray(dom, dtype=np.complex128)
            img = np.asarray(img, dtype=np.complex128)
            if dom.ndim != 2 or dom.shape[0] != d:
                raise ValueError(f"block {n}: domain shape {dom.shape}")
            if img.shape != dom.shape:
                raise ValueError(
                    f"block {n}: image shape {img.shape} != domain shape {dom.shape}"
                )
            parsed[int(n)] = (dom, img)
        by_cols = {}
        for n in sorted(parsed):
            by_cols.setdefault(parsed[n][0].shape[1], []).append(n)
        groups = [
            (
                np.array(labels, dtype=np.int64),
                np.stack([parsed[n][0] for n in labels]),
                np.stack([parsed[n][1] for n in labels]),
            )
            for labels in by_cols.values()
        ]
        self._set(d, groups, parsed)

    @classmethod
    def _from_groups(cls, d, groups, order=None):
        """Map over ``groups`` of ``(labels, domains, images)`` stacks, labels sorted."""
        m = object.__new__(cls)
        m._set(d, groups, order)
        return m

    def _set(self, d, groups, order):
        """Keep the stacks; ``blocks`` lists their labels in ``order`` (default ascending)."""
        self.d = d
        self._groups = tuple(groups)
        labels = np.concatenate([np.zeros(0, dtype=np.int64)] + [g[0] for g in groups])
        views = []
        for _, dom, img in groups:
            views.extend(zip(dom, img))
        where = np.argsort(labels, kind="stable")
        if order is None:
            keys, index = labels[where].tolist(), where
        else:
            keys = list(order)
            index = where[np.searchsorted(labels, keys, sorter=where)]
        self.blocks = MappingProxyType(dict(zip(keys, map(views.__getitem__, index.tolist()))))

    def sectors(self):
        return tuple(sorted(self.blocks))

    def apply(self, v, tol=DEFAULT_TOL):
        """Image of a graded vector lying in the declared domain."""
        if v.d != self.d:
            raise ValueError(f"sector dimension mismatch: {v.d} vs {self.d}")
        _, labels, amps = _sector_rows([v], self.d)
        out = np.zeros_like(v._amps)
        out[labels - v._lo] = self._images(labels, amps, tol)
        return GradedVector.from_window(v._lo, out)

    def _images(self, labels, amps, tol):
        """Images of the sector rows ``amps`` (sectors ``labels``).

        Each row is solved by least squares against its block's domain,
        through pseudo-inverses from one stacked SVD per group of the
        blocks hit (cutoff as in ``lstsq(rcond=None)``).  The first row
        outside the declared domain raises ``ValueError``.
        """
        images = np.zeros_like(amps)
        residual = np.zeros(len(labels))
        found = np.zeros(len(labels), dtype=bool)
        for lab, dom, img in self._groups:
            pos = np.searchsorted(lab, labels).clip(max=len(lab) - 1)
            rows = np.flatnonzero(lab[pos] == labels)
            if not rows.size:
                continue
            pos = pos[rows]
            # invert only the blocks the rows hit, each once
            used, at = np.unique(pos, return_inverse=True)
            coeff = np.einsum("tmd,td->tm", _pinv(dom[used])[at], amps[rows])
            fitted = np.einsum("tdm,tm->td", dom[pos], coeff)
            residual[rows] = np.linalg.norm(fitted - amps[rows], axis=1)
            images[rows] = np.einsum("tdm,tm->td", img[pos], coeff)
            found[rows] = True
        outside = ~found | (residual > tol * (1.0 + np.linalg.norm(amps, axis=1)))
        if outside.any():
            i = int(np.argmax(outside))
            if not found[i]:
                raise ValueError(f"sector {labels[i]} outside the declared domain")
            raise ValueError(
                f"sector {labels[i]}: component outside the declared domain "
                f"(projection residual {residual[i]:.3e})"
            )
        return images

    def completed(self, tol=1e-8):
        """Deterministic extension of each block to a full unitary.

        A stacked SVD gives orthonormal bases of the domain spans (rank
        tolerance ``1e-12``) and, through their coefficients, the matching
        image bases; per rank, one stacked Householder QR extends both to
        the whole sector, a deterministic completion.
        Requires the map to be an isometry on its declared domain.
        """
        worst = _isometry_defects(self)[1].max(initial=0.0)
        # written as "not <=" so a NaN defect is refused too
        if not worst <= tol:
            raise ValueError(f"cannot complete a non-isometric map (defect {worst:.3e})")
        if not self._groups:
            return BlockMap._from_groups(self.d, [])
        labels = np.sort(np.concatenate([lab for lab, _, _ in self._groups]))
        doms = np.empty((len(labels), self.d, self.d), dtype=np.complex128)
        imgs = np.empty_like(doms)
        for lab, dom, img in _slices(self._groups):
            at = np.searchsorted(labels, lab)
            u, sv, vh = np.linalg.svd(dom, full_matrices=False)
            rank = np.count_nonzero(sv > 1e-12, axis=1)
            for r in set(rank.tolist()):
                sel = rank == r
                q_img = img[sel] @ (vh[sel, :r].conj().swapaxes(1, 2) / sv[sel, None, :r])
                # domain and image bases share one stacked QR
                full = _extend_basis(np.concatenate([u[sel, :, :r], q_img]))
                doms[at[sel]] = full[: len(q_img)]
                imgs[at[sel]] = full[len(q_img) :]
        return BlockMap._from_groups(self.d, [(labels, doms, imgs)], self.blocks)


def _slices(groups):
    """The ``(labels, domains, images)`` groups cut into slices of at most ``_SLICE`` blocks.

    Batched calls go through slices so their temporaries stay small.
    """
    for lab, dom, img in groups:
        for i in range(0, len(lab), _SLICE):
            yield lab[i : i + _SLICE], dom[i : i + _SLICE], img[i : i + _SLICE]


def _sector_rows(vectors, d):
    """Nonzero sector rows of ``vectors``, by vector then label: ``(owner, labels, amps)``."""
    owner = [np.zeros(0, dtype=np.intp)]
    labels = [np.zeros(0, dtype=np.int64)]
    amps = [np.zeros((0, d), dtype=np.complex128)]
    for j, v in enumerate(vectors):
        rows = np.flatnonzero(np.any(v._amps != 0, axis=1))
        owner.append(np.full(rows.size, j))
        labels.append(rows + v._lo)
        amps.append(v._amps[rows])
    return np.concatenate(owner), np.concatenate(labels), np.concatenate(amps)


def _pinv(dom):
    """Pseudo-inverses of a ``(K, D, m)`` stack, singular values cut as ``lstsq(rcond=None)``."""
    u, sv, vh = np.linalg.svd(dom, full_matrices=False)
    keep = sv > np.finfo(np.float64).eps * max(dom.shape[1:]) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    return (vh.conj().swapaxes(1, 2) * inv[:, None, :]) @ u.conj().swapaxes(1, 2)


def _extend_basis(q):
    """Orthonormal columns ``q`` (stacked), then their complement from the QR of ``[q | I]``.

    The ``Q`` factor of ``[q | I]`` is fixed by its first ``dim`` columns
    alone, so only those are factored.
    """
    k, dim, r = q.shape
    stacked = np.zeros((k, dim, dim), dtype=np.complex128)
    stacked[:, :, :r] = q
    stacked[:, :, r:] = np.eye(dim)[:, : dim - r]
    full, _ = np.linalg.qr(stacked)
    full[:, :, :r] = q
    return full


def _gram(a):
    """Column Gram matrices of a ``(K, D, m)`` stack."""
    return np.einsum("kdi,kdj->kij", a.conj(), a)


def _isometry_defects(m):
    """Sorted labels and isometry defects of the blocks of ``m``.

    The defect of a block is the max-norm difference between the Gram
    matrices of its image and its domain columns (0 without columns).
    """
    labels, defects = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for lab, dom, img in _slices(m._groups):
        labels.append(lab)
        defects.append(np.abs(_gram(img) - _gram(dom)).max(axis=(1, 2), initial=0.0))
    labels, defects = np.concatenate(labels), np.concatenate(defects)
    order = np.argsort(labels)
    return labels[order], defects[order]


def check_conserving(m):
    """Structural report for a :class:`BlockMap`.

    Off-grading leakage is zero by construction and asserted anyway; the
    isometry defect of block ``N`` is the max-norm difference between the
    Gram matrix of the image columns and the Gram matrix of the domain
    columns.
    """
    labels, defects = _isometry_defects(m)
    ids = map("isometry[{}]".format, labels.tolist())
    return ConstraintReport((("grading", 0.0), *zip(ids, defects.tolist())))


def orthogonality_transfer_check(m, inputs, tol=DEFAULT_TOL):
    """Gram matrices of a family of inputs before and after the map.

    A unitary interaction transfers orthogonality of the pointer states
    back to the measured states, so for any conserving isometry the two
    matrices agree within tolerance.  All inputs are mapped at once, and
    each Gram matrix is one product of the inputs (or images) laid out
    over the union of their sectors.
    """
    k = len(inputs)
    # inputs before one of the wrong dimension are mapped first, so their
    # domain errors are reported before the dimension mismatch
    bad = next((j for j, v in enumerate(inputs) if v.d != m.d), k)
    owner, labels, amps = _sector_rows(inputs[:bad], m.d)
    images = m._images(labels, amps, tol)
    if bad < k:
        raise ValueError(f"sector dimension mismatch: {inputs[bad].d} vs {m.d}")
    union, slot = np.unique(labels, return_inverse=True)
    stacked = np.zeros((2, k, len(union), m.d), dtype=np.complex128)
    stacked[0, owner, slot] = amps
    stacked[1, owner, slot] = images
    flat = stacked.reshape(2, k, len(union) * m.d)
    g_pre, g_post = flat.conj() @ flat.swapaxes(1, 2)
    return g_pre, g_post
