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
* ``__init__`` (a sector map), ``from_dict`` (parsed JSON) and the strict
  reader of :mod:`waylab.jsonio` read labels and rows into two arrays and
  share one tail, ``_fill``: the last row of a repeated label wins,
  exact-zero rows are dropped, and one window is filled; labels already
  in strictly increasing order, as written, are not sorted.  The JSON
  text itself, written and read, is :mod:`waylab.jsonio`'s.
  ``from_window`` copies and trims a given window; an operation
  that has just built its result window (a sum, a tensor product, a
  block-map image) hands it over to be trimmed without the copy.
* One integer rule, :func:`_integer`, reads every sector label, ``d`` and
  ``n`` from outside: an ``int`` or a numpy integer; a bool, float (even
  ``2.0``) or string raises ``ValueError`` naming the field.
* Arithmetic keeps the float operations of ``a + (-1) b``: ``u - v``
  writes ``v``'s own rows times ``-1.0`` into one fresh window and adds
  ``u``'s rows in place, the rows outside ``u`` getting ``0 + x`` as
  ``u``'s zero padding would give them, so its bits equal those of
  ``u + (-1.0) * v``.  A plain ``a - b`` of the
  windows differs: ``(-1.0) * b`` is a full complex multiply, which can
  flip the sign of a zero or turn an infinite part into NaN.
* A window costs memory in proportion to its label span, so one of more
  than ``2**24`` entries (``(hi - lo + 1) * d``, 256 MiB) is rejected
  with ``ValueError`` before it is allocated.  :func:`_require_entries`,
  the one check of that limit, also bounds scheme sizes and no-go solves.
* ``inner`` is conjugate-linear in its *first* argument.
* Every hermitian product of whole windows or arrays in the package
  (``norm2``, ``inner``, ``charge_expectation``, ``scheme_error``, the
  Born weights) goes through :func:`_dot`: up to ``_DOT_CHUNK`` entries
  it is one ``np.vdot``, and a longer one is summed in fixed chunks of
  that size, each below the length at which OpenBLAS splits a dot
  product over threads, so results do not depend on the BLAS thread
  count.  The products of an eigenvector family with a state go through
  :func:`_column_dots`, which cuts the same way by matrix entries, in
  runs of whole rows.
* A :class:`BlockMap` stores one stack of its distinct blocks: sorted
  labels, one ``(2, R, d, M)`` array of the ``R`` distinct blocks'
  domains over their images, each zero-padded to the widest ``M``, their
  column counts, and the stored block of each label.  A run of
  neighbouring blocks equal in column count and bits is stored once, so
  the canonical scheme's map stores three blocks at any ``n``.
  ``blocks`` maps each label to views into the stack and is built when
  first read.  Every operation is a few array or LAPACK calls over the
  stored blocks, the same few at any number of blocks, rather than a
  loop over sectors.  The per-block products of
  ``apply`` and ``orthogonality_transfer_check`` are ``np.vecdot`` loops
  of ``d``- or ``M``-term sums rather than one BLAS call per block, and
  their misfit test is one maximum, with the exact first offender
  looked up only on the error path.  They lay their inputs over one common label
  window (refused beyond the entry limit), find the blocks inside it by
  bisection, gather their stored blocks and factors, and solve only the
  rows of declared sectors; a window holding no declared sector factors
  nothing.  The stack is read-only, and a map keeps what it derives from
  its stored blocks once first computed: the isometry defects, one array
  that ``check_conserving`` reports by label and ``completed`` reads,
  and the SVD of every stored block on its own columns, from which
  ``apply`` and ``orthogonality_transfer_check`` take their
  pseudo-inverses and ``completed`` its bases.  The defects, and the SVD
  of a stack of several widths, go in slices of at most 256 blocks.  The
  tolerances of these calls are named once: ``_PINV_CUT``, ``_RANK_TOL``
  and ``_ISOMETRY_TOL``.
* A joint object+apparatus vector is itself a :class:`GradedVector` with
  per-sector dimension ``2 * d``: within total-charge sector ``N`` the
  first ``d`` slots hold the object-charge-0 component (apparatus sector
  ``N``) and the last ``d`` slots the object-charge-1 component
  (apparatus sector ``N - 1``).
* All values are immutable after construction and all operations are
  pure functions, so everything here is safe to share across threads; a
  block map's kept factors and defects are filled on first use, and a
  race fills the same values twice.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType

import numpy as np

#: Default absolute tolerance for structural residual checks.
DEFAULT_TOL = 1e-10

#: Largest window a graded vector may allocate, in complex entries (256 MiB).
_MAX_WINDOW_ENTRIES = 2**24

#: Pseudo-inverse cut of a block map's ``(d, m)`` block, relative to its largest singular
#: value per unit of ``max(d, m)``: smaller ones are dropped, as ``lstsq(rcond=None)`` drops them.
_PINV_CUT = np.finfo(np.float64).eps

#: Singular values at or below this bound a block's null space when ``completed`` takes its rank.
_RANK_TOL = 1e-12

#: Largest isometry defect ``BlockMap.completed`` accepts by default.
_ISOMETRY_TOL = 1e-8

#: Most blocks per sliced call over a :class:`BlockMap`'s stored blocks: defects, and SVDs of mixed
#: widths.  Unsliced, a long stack's temporaries cost more memory and time than the extra calls.
_SLICE = 256

#: Most entries per BLAS dot product: OpenBLAS threads ``zdotc`` and ``ddot`` above
#: 10 000 entries, and a threaded sum's bits depend on the thread count.
_DOT_CHUNK = 8192


def _require_entries(entries, what, *args):
    """Refuse more than ``_MAX_WINDOW_ENTRIES`` entries; ``what.format(*args)`` names them."""
    if entries > _MAX_WINDOW_ENTRIES:
        raise ValueError(f"{what.format(*args)} more than {_MAX_WINDOW_ENTRIES} entries")


def _is_integer(kind):
    """The integer rule on a type: ``int`` or a numpy integer (a bool, float or string is not)."""
    # an exact test: bool subclasses int, and an ABC check costs a microsecond
    return kind is int or issubclass(kind, np.integer)


def _integer(value, what, minimum=None):
    """``value`` as an ``int``; ``ValueError`` naming ``what`` unless an integer ``>= minimum``."""
    if not _is_integer(type(value)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


def _integers(values, what):
    """The list ``values`` as an int64 array under the rule of :func:`_integer`."""
    if not all(map(_is_integer, set(map(type, values)))):
        for value in values:
            _integer(value, what)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} out of the 64-bit range") from None


def _zeros(lo, hi, d):
    """Zero window for sectors ``lo..hi``, refused beyond the entry limit."""
    _require_entries((hi - lo + 1) * d, "sector labels {}..{} at dimension {} span", lo, hi, d)
    return np.zeros((max(hi - lo + 1, 0), d), dtype=np.complex128)


def _bounds(*vectors):
    """Smallest label range covering every vector; ``(0, -1)`` if all are zero."""
    nonzero = [v for v in vectors if not v.is_zero()]
    if not nonzero:
        return 0, -1
    return min(v._lo for v in nonzero), max(v._hi for v in nonzero)


def _trimmed(lo, amps):
    """``(lo, amps)`` for sectors ``lo, lo + 1, ...`` cut to the first..last nonzero row.

    A row is nonzero when one of its entries is (NaN counts, ``-0.0``
    does not).  The ends come from the first and last nonzero entry of
    the flattened window: a per-row reduction over ``d`` entries costs
    several times more per row.
    """
    nonzero = amps.astype(bool).ravel()
    first = int(nonzero.argmax()) if nonzero.size else 0
    if not nonzero.size or not nonzero[first]:
        return 0, amps[:0]
    d = amps.shape[1]
    stop = (nonzero.size - 1 - int(nonzero[::-1].argmax())) // d + 1
    return lo + first // d, amps[first // d : stop]


def _nonzero_rows(amps):
    """Mask of the window rows with a nonzero entry (NaN counts, ``-0.0`` does not)."""
    # ORing the d columns is several times faster than a per-row reduction
    nonzero = amps.astype(bool)
    mask = nonzero[:, 0].copy()
    for j in range(1, amps.shape[1]):
        mask |= nonzero[:, j]
    return mask


def _sum_window(u, v, scale=None):
    """Untrimmed window of ``u + v``, or of ``u + scale * v``, as ``(lo, amps)``.

    One fresh window receives ``v``'s rows, multiplied by ``scale``, and
    then ``u``'s rows are added in place.  The rows outside ``u`` get
    ``0 + x``, which turns ``-0.0`` into ``0.0`` as adding ``u``'s zero
    padding would: these are the float operations of building the vector
    ``scale * v`` and adding it, down to signed zeros and NaN (see the
    module Conventions).
    """
    if u.d != v.d:
        raise ValueError(f"sector dimension mismatch: {u.d} vs {v.d}")
    lo, hi = _bounds(u, v)
    out = _zeros(lo, hi, u.d)
    if len(v._amps):
        a, b = v._lo - lo, v._hi - lo + 1
        if scale is None:
            out[a:b] = v._amps
        else:
            np.multiply(scale, v._amps, out=out[a:b])
        # v's rows before and after u's (all of them when u is zero)
        c, e = (u._lo - lo, u._hi - lo + 1) if len(u._amps) else (b, b)
        for rest in out[a : min(b, c)], out[max(a, e) : b]:
            np.add(0.0, rest, out=rest)
    if len(u._amps):
        rows = out[u._lo - lo : u._hi - lo + 1]
        np.add(u._amps, rows, out=rows)
    return lo, out


def _dot(a, b):
    """``np.vdot(a, b)`` of two same-size arrays, summed on one BLAS thread.

    Up to ``_DOT_CHUNK`` entries this is one ``np.vdot`` call; a longer
    product adds, first to last, the ``np.vdot`` of each run of
    ``_DOT_CHUNK`` consecutive entries of the flattened arrays.
    """
    if a.size <= _DOT_CHUNK:
        return np.vdot(a, b)
    a, b = a.ravel(), b.ravel()
    total = np.vdot(a[:_DOT_CHUNK], b[:_DOT_CHUNK])
    for i in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total += np.vdot(a[i : i + _DOT_CHUNK], b[i : i + _DOT_CHUNK])
    return total


def _column_dots(a, b):
    """``a.conj().T @ b``, the products ``<a_j, b>`` of the columns of ``a`` with ``b``, on one BLAS thread.

    OpenBLAS threads a matrix-vector product of 9216 entries or more, so up
    to ``_DOT_CHUNK`` entries of the ``(n, k)`` matrix ``a`` this is that
    one product; a larger one adds, first to last, the products of each run
    of ``max(1, _DOT_CHUNK // k)`` consecutive rows.
    """
    if a.size <= _DOT_CHUNK:
        return a.conj().T @ b
    rows = max(1, _DOT_CHUNK // a.shape[1])
    total = a[:rows].conj().T @ b[:rows]
    for i in range(rows, len(a), rows):
        total += a[i : i + rows].conj().T @ b[i : i + rows]
    return total


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
        d = _integer(d, "sector dimension 'd'", 1)
        sectors = sectors or {}
        labels = _integers(list(sectors), "sector label 'nu'")
        rows = _rows(labels, list(sectors.values()), (d,), partial(_number_array, dtype=complex))
        self._fill(d, labels, rows)

    def _fill(self, d, labels, amps):
        """Keep ``d`` and the rows ``amps`` of sectors ``labels`` (int64): last row per label.

        Labels in strictly increasing order, as ``to_json`` writes them, are
        neither sorted nor gathered; rows are copied only into the window.
        """
        keep = _nonzero_rows(amps)
        if (labels[1:] <= labels[:-1]).any():
            order = np.argsort(labels, kind="stable")  # repeated labels keep their input order
            labels, amps, keep = labels[order], amps[order], keep[order]
            keep[:-1] &= labels[1:] != labels[:-1]
        if not keep.all():
            labels, amps = labels[keep], amps[keep]
        lo, hi = (int(labels[0]), int(labels[-1])) if len(labels) else (0, -1)
        window = _zeros(lo, hi, d)
        if hi - lo + 1 == len(labels):
            window[:] = amps  # every sector of the span, in order
        else:
            window[labels - lo] = amps
        # its first and last rows are nonzero, so the window is already trimmed
        self.d, self._lo, self._amps = d, lo, window
        window.setflags(write=False)

    @classmethod
    def from_window(cls, lo, amps):
        """Vector whose sectors ``lo, lo + 1, ...`` are the rows of ``amps``, copied."""
        amps = _number_array(amps, complex)
        if amps.ndim != 2 or amps.shape[1] < 1:
            raise ValueError(f"window shape {amps.shape} is not (k, d) with d >= 1")
        return cls._own(_integer(lo, "window start 'lo'"), amps)

    @classmethod
    def _own(cls, lo, amps):
        """Vector over a ``(k, d)`` complex window the caller has just built and gives up.

        The window is trimmed as a view and made read-only, not copied.
        """
        vec = object.__new__(cls)
        vec.d = amps.shape[1]
        vec._lo, vec._amps = _trimmed(lo, amps)
        vec._amps.setflags(write=False)
        return vec

    # -- basic queries ---------------------------------------------------

    @property
    def _hi(self):
        return self._lo + len(self._amps) - 1

    def support(self):
        """Sorted tuple of sector labels with nonzero amplitudes."""
        rows = np.flatnonzero(_nonzero_rows(self._amps))
        return tuple((rows + self._lo).tolist())

    def sector(self, nu):
        """Amplitude vector of sector ``nu`` (zeros if absent)."""
        i = _integer(nu, "sector label 'nu'") - self._lo
        if 0 <= i < len(self._amps):
            return self._amps[i]
        return np.zeros(self.d, dtype=np.complex128)

    def items(self):
        """``(nu, amplitudes)`` pairs over the support, in label order."""
        return [(nu, self._amps[nu - self._lo]) for nu in self.support()]

    def window(self, lo, hi):
        """Sectors ``lo..hi`` as a zero-padded ``(hi - lo + 1, d)`` copy."""
        lo, hi = _integer(lo, "window start 'lo'"), _integer(hi, "window end 'hi'")
        out = _zeros(lo, hi, self.d)
        a, b = max(lo, self._lo), min(hi, self._hi)
        if a <= b:
            out[a - lo : b - lo + 1] = self._amps[a - self._lo : b - self._lo + 1]
        return out

    def norm2(self):
        """Squared norm, the sum of squared sector norms."""
        return float(_dot(self._amps, self._amps).real)

    def norm(self):
        return float(np.sqrt(self.norm2()))

    def is_zero(self):
        return not len(self._amps)

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return GradedVector._own(*_sum_window(self, other))

    def __sub__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return GradedVector._own(*_sum_window(self, other, -1.0))

    def __mul__(self, scalar):
        amps = scalar * self._amps
        # a fresh complex window is kept; anything else is read (or refused) by from_window
        if type(amps) is np.ndarray and amps.dtype == complex and amps.ndim == 2 and amps.shape[1]:
            return GradedVector._own(self._lo, amps)
        return GradedVector.from_window(self._lo, amps)

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
        rows = np.flatnonzero(_nonzero_rows(self._amps))
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
        d = _integer(data.get("d"), "sector dimension 'd'", 1)
        entries = data["sectors"]
        if not all(isinstance(e, dict) and "amp" in e for e in entries):
            raise ValueError("every sector needs 'nu' and 'amp'")
        labels = _integers([e.get("nu") for e in entries], "sector label 'nu'")
        amps = _rows(labels, [e["amp"] for e in entries], (d, 2), _number_array)
        return cls._from_pairs(d, labels, amps)

    @classmethod
    def _from_pairs(cls, d, labels, amps):
        """Vector of sectors ``labels`` (int64) whose rows are ``amps``, ``(k, d, 2)`` floats."""
        vec = object.__new__(cls)
        vec._fill(d, labels, amps.view(np.complex128)[..., 0])
        return vec


def _number_array(value, dtype=np.float64):
    """``value`` as a ``dtype`` array; ValueError unless numbers (complex if dtype is complex)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise ValueError(f"not an array of numbers (dtype {arr.dtype})")
    return arr.astype(dtype)


def _rows(labels, values, shape, convert):
    """``values`` read by ``convert`` as one ``(len(values), *shape)`` array, or ``ValueError``."""
    try:
        amps = convert(values) if values else np.zeros((0, *shape))
    except (TypeError, ValueError):
        amps = None
    if amps is not None and amps.shape == (len(values), *shape):
        return amps
    for nu, value in zip(labels.tolist(), values):
        try:
            got = convert(value).shape
        except (TypeError, ValueError):
            raise ValueError(f"sector {nu}: amp is not an array of numbers") from None
        if got != shape:
            raise ValueError(f"sector {nu}: expected amp shape {shape}, got {got}")
    raise ValueError(f"sector amplitudes are not rows of shape {shape}")


@dataclass(frozen=True)
class ObjectState:
    """Two-level measured object: ``amp0`` on charge 0, ``amp1`` on charge 1."""

    amp0: complex
    amp1: complex

    def norm2(self):
        try:  # ``**``, not ``x * x``, which differs from it in the last bit on some floats
            return abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        except OverflowError:  # a square beyond the float range
            return math.inf

    def is_normalized(self, tol=DEFAULT_TOL):
        return abs(self.norm2() - 1.0) <= tol

    def require_normalized(self, tol=DEFAULT_TOL):
        if not self.is_normalized(tol):
            raise ValueError(f"object state not normalized: |amp0|^2+|amp1|^2 = {self.norm2()!r}")


class ConstraintReport:
    """Named residuals of a constraint system, held as one read-only float array.

    ``entries`` is a tuple of ``(constraint_id, residual)`` with residuals
    nonnegative, spelled out when first read from runs of ids: a plain id,
    or ``(kinds, labels)`` naming ``kind[nu]`` for each label ``nu`` and
    each kind within it.  ``max_residual`` is their maximum (0.0 when
    empty), or NaN when any residual is NaN, so a report with a NaN never
    passes.  Reports compare and hash by ``entries``.
    """

    __slots__ = ("_runs", "_residuals", "_entries")

    def __init__(self, entries):
        entries = tuple(entries)
        self._runs, self._entries = (), entries
        self._residuals = np.array([r for _, r in entries], dtype=np.float64)
        self._residuals.flags.writeable = False

    @classmethod
    def _from_runs(cls, runs, residuals):
        """Report of the float array ``residuals`` (kept, made read-only), named by ``runs``."""
        report = object.__new__(cls)
        report._runs, report._residuals, report._entries = runs, residuals, None
        residuals.flags.writeable = False
        return report

    @property
    def entries(self):
        if self._entries is None:  # a race spells the same tuple twice
            ids = []
            for run in self._runs:
                if isinstance(run, str):
                    ids.append(run)
                else:
                    kinds, labels = run
                    ids += [f"{kind}[{nu}]" for nu in labels.tolist() for kind in kinds]
            self._entries = tuple(zip(ids, self._residuals.tolist()))
        return self._entries

    @property
    def max_residual(self):
        return float(self._residuals.max()) if len(self._residuals) else 0.0

    @property
    def sum_squares(self):
        """Unweighted sum of squared residuals, added in order: ``0 + r0^2 + r1^2 + ...``."""
        with np.errstate(over="ignore"):
            return float(np.cumsum(np.append(0.0, self._residuals**2))[-1])

    def passed(self, tol=DEFAULT_TOL):
        return self.max_residual < tol

    def entry(self, constraint_id):
        """Residual of a single named entry (the first, if the id repeats)."""
        return dict(reversed(self.entries))[constraint_id]

    def filter(self, prefix):
        """Sub-report of entries whose id starts with ``prefix``."""
        return ConstraintReport(e for e in self.entries if e[0].startswith(prefix))

    def to_dict(self):
        entries = [[cid, float(r)] for cid, r in self.entries]
        return {"entries": entries, "max_residual": self.max_residual}

    def __eq__(self, other):
        return (self.entries,) == (other.entries,) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.entries,))

    def __repr__(self):
        return f"ConstraintReport(entries={self.entries!r})"


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
    if lo > hi:
        return 0j
    return complex(_dot(u._amps[lo - u._lo : hi - u._lo + 1], v._amps[lo - v._lo : hi - v._lo + 1]))


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
    return GradedVector._own(app._lo, joint)


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
    return float(_dot(np.arange(v._lo, v._hi + 1), weights) / total)


def _distinct(cols, pair):
    """``(cols, pair, run)`` of a stack of blocks: its distinct blocks and the one of each label.

    A run is a maximal stretch of neighbouring blocks with the same column
    count and the same domain and image bits, compared as the ``int64``
    view of the stack, so blocks that differ only in the sign of a zero or
    in a NaN payload are never merged.  Each run is stored once, as its
    first block, and ``run[k]`` is the stored block of block ``k``.  A
    LAPACK or ``einsum`` result on one block depends only on its bits and
    column count, so what is derived from the stored blocks, gathered by
    run, has the bits of the whole stack.  Without two equal neighbours
    the stack is kept as it is and ``run`` is ``None``.
    """
    k = len(cols)
    if k < 2:  # a stack of no block has no int64 rows to compare
        return cols, pair, None
    bits = pair.reshape(2, k, -1).view(np.int64)
    same = (cols[1:] == cols[:-1]) & (bits[:, 1:] == bits[:, :-1]).all(axis=(0, 2))
    if not same.any():
        return cols, pair, None
    new = np.append(True, ~same)
    first = np.flatnonzero(new)
    # np.take is contiguous, unlike pair[:, first]
    return cols[first], np.take(pair, first, axis=1), np.cumsum(new) - 1


class BlockMap:
    """Linear map given block-by-block over total-charge sectors.

    ``blocks[N]`` is a pair ``(domain, image)`` of complex ``(d, m)``
    arrays: the columns of ``domain`` are the declared domain vectors
    inside the charge-``N`` sector and the columns of ``image`` their
    images, in the same sector.  Block-diagonality over total charge is
    built into the representation, so conservation can only fail through
    a per-block isometry defect, never through off-grading leakage.

    The map stores its ``K`` sorted labels and one stack of its ``R``
    distinct blocks (:func:`_distinct`): a ``(2, R, d, M)`` array, the
    domains over the images, in which every block is zero-padded to the
    common width ``M``, their column counts, and ``_run``, the stored
    block of each label, or ``None`` when no two neighbouring blocks are
    equal and the stack holds every block.  That is ``2 * d * M * 16 + 8``
    bytes per stored block and 16 bytes per label (8 without runs): the
    canonical scheme's map stores three blocks at any ``n``.  A zero
    column changes no Gram matrix, singular value or image, so each
    operation is a few calls over the stored blocks, the same few at any
    number of blocks.  ``blocks`` is a read-only mapping, in the order
    the blocks were given, whose values are views into the stack; it is
    built when first read.

    The stack is read-only, so what the map derives from its stored
    blocks is kept once first computed: their isometry defects, 8 bytes
    per block, and their SVD factors, zero-padded to the stack, ``(d * r
    + r * M) * 16 + r * 8`` bytes per block with ``r = min(d, M)``; a
    stack of several column counts also keeps the unpadded factors of
    each count, at most as much again.  Every later call reads them and
    returns the bits a fresh map would; besides ``blocks``, nothing else
    is kept.  A call's temporaries are of the blocks it touches: ``apply``
    and the transfer check gather the stored blocks and factors of their
    window (or slice them, without runs) and write a few ``d``- or
    ``M``-entry columns per block and input in it; ``completed`` writes
    the ``2 * d * d`` entries of each completed stored block, in place for
    a group of full-rank blocks of one width, and its map keeps the runs.
    """

    __slots__ = ("d", "_labels", "_cols", "_pair", "_run", "_order", "_blocks", "_svd", "_defect")

    def __init__(self, d, blocks):
        d = _integer(d, "sector dimension 'd'", 1)
        labels = _integers(list(blocks), "block label 'N'")
        parsed = {}
        for n, (dom, img) in zip(labels.tolist(), blocks.values()):
            try:
                dom, img = _number_array(dom, complex), _number_array(img, complex)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"block {n}: {exc}") from None
            if dom.ndim != 2 or dom.shape[0] != d:
                raise ValueError(f"block {n}: domain shape {dom.shape}")
            if img.shape != dom.shape:
                raise ValueError(f"block {n}: image shape {img.shape} != domain shape {dom.shape}")
            parsed[n] = (dom, img)
        labels = np.sort(labels)
        cols = np.array([parsed[n][0].shape[1] for n in labels.tolist()], dtype=np.intp)
        pair = np.zeros((2, len(labels), d, cols.max(initial=0)), dtype=np.complex128)
        for k, n in enumerate(labels.tolist()):
            pair[:, k, :, : cols[k]] = parsed[n]
        self._set(d, labels, *_distinct(cols, pair), tuple(parsed))

    @classmethod
    def _from_stack(cls, d, labels, cols, pair, order=None):
        """Map over sorted ``labels``, block ``k`` the first ``cols[k]`` columns of ``pair[:, k]``."""
        m = object.__new__(cls)
        m._set(d, labels, *_distinct(cols, pair), order)
        return m

    def _set(self, d, labels, cols, pair, run, order):
        """Keep the stored blocks and runs, read-only; ``blocks`` lists labels in ``order``.

        ``order`` is ``None`` for ascending labels.  Each run of ``run``
        need only hold equal blocks, not be maximal.
        """
        for a in labels, cols, pair, run:
            if a is not None:
                a.setflags(write=False)
        self.d, self._labels, self._cols, self._pair, self._run = d, labels, cols, pair, run
        self._order, self._blocks, self._svd, self._defect = order, None, None, None

    @property
    def blocks(self):
        """Read-only ``{N: (domain, image)}`` of views into the stack, in the given order."""
        if self._blocks is None:  # a race builds the same mapping twice
            pair, cols = self._pair, self._cols
            views = list(zip(*pair))
            for k in np.flatnonzero(cols < pair.shape[3]).tolist():
                views[k] = pair[0, k, :, : cols[k]], pair[1, k, :, : cols[k]]
            if self._run is not None:
                views = [views[r] for r in self._run.tolist()]
            blocks = dict(zip(self._labels.tolist(), views))
            if self._order is not None:
                blocks = {n: blocks[n] for n in self._order}
            self._blocks = MappingProxyType(blocks)
        return self._blocks

    def sectors(self):
        return tuple(self._labels.tolist())

    def apply(self, v, tol=DEFAULT_TOL):
        """Image of a graded vector lying in the declared domain."""
        if v.d != self.d:
            raise ValueError(f"sector dimension mismatch: {v.d} vs {self.d}")
        lo, rows, span, pair = self._images([v], tol)
        out = np.zeros((span, self.d), dtype=np.complex128)
        out[rows] = pair[1, :, :, 0]
        return GradedVector._own(lo, out)

    def _factor(self):
        """SVD of every stored block, each of its own columns, kept: ``(u, sv, vh, groups)``.

        The blocks are factored unpadded (on a padded block the singular
        vectors can come out with other phases): in one ``svd`` call when
        every block has the stack's width, else one call per ``_SLICE``
        blocks and column count.  ``groups`` lists, per ``_SLICE`` blocks
        and column count, ``(c, at, u_c, sv_c, vh_c)``: the column count,
        the stack positions of the blocks (a slice when every block has
        the stack's width, else an index array) and their unpadded
        factors, which bounds the temporaries of ``completed``.  ``u, sv,
        vh`` hold every block's factors zero-padded to ``min(d, M)``
        singular values and ``M`` columns.  A domain holding NaN does not
        factor; it is refused by the first label of the first non-finite
        stored block.
        """
        factors = self._svd
        if factors is None:  # a race factors the same blocks twice
            dom, cols = self._pair[0], self._cols
            k, d, m = dom.shape
            try:
                # one width: one call, and slices completed fills in place, faster on small maps
                if (cols == m).all():
                    u, sv, vh = np.linalg.svd(dom, full_matrices=False)
                    slices = [slice(i, min(i + _SLICE, k)) for i in range(0, k, _SLICE)]
                    groups = [(m, s, u[s], sv[s], vh[s]) for s in slices]
                else:
                    r = min(d, m)
                    u, vh = np.zeros((k, d, r), dtype=complex), np.zeros((k, r, m), dtype=complex)
                    sv, groups = np.zeros((k, r)), []
                    for i in range(0, k, _SLICE):
                        part = cols[i : i + _SLICE]
                        for c in sorted(set(part.tolist())):
                            at, w = np.flatnonzero(part == c) + i, min(d, c)
                            f = np.linalg.svd(dom[at, :, :c], full_matrices=False)
                            u[at, :, :w], sv[at, :w], vh[at, :w, :c] = f
                            groups.append((c, at, *f))
            except np.linalg.LinAlgError:
                finite = np.isfinite(dom).all(axis=(1, 2))
                if finite.all():
                    raise
                r = int(finite.argmin())
                label = self._labels[r if self._run is None else np.searchsorted(self._run, r)]
                raise ValueError(f"block {label}: domain is not finite") from None
            factors = self._svd = u, sv, vh, groups
        return factors

    def _images(self, vectors, tol):
        """Inputs and images of ``vectors`` (all of dimension ``d``) over their label window.

        The inputs are laid as the columns of one ``(span, d, k)`` window
        over sectors ``lo..lo+span-1``.  Two bisections of the sorted
        labels find the blocks inside the window, a contiguous run of the
        labels, whose stored blocks and kept SVD factors are sliced from
        the stack, or gathered by ``_run``; only the window rows of those
        declared sectors are solved: by least squares against each block's
        domain, with the pseudo-inverse applied from the factors as
        ``V diag(1/s) U^H`` (cut as ``lstsq(rcond=None)`` cuts each
        unpadded block, at ``_PINV_CUT``).  Each product is one
        ``np.vecdot`` over the blocks, a loop of ``d``- or ``M``-term sums
        rather than one BLAS call per block, and one of them, with the
        blocks' domains over their images, gives both the fit and the
        images.  A window without a declared sector factors nothing.

        A row offends when it is nonzero in an undeclared sector, or when
        its projection residual is not within ``tol * (1 + |row|)``, so a
        NaN residual offends.  The largest squared residual, at most
        ``tol**2``, and, when the window holds an undeclared row, two
        counts of nonzero entries (window and declared rows) clear the
        usual call; otherwise :func:`_refuse_first` tests every row, with
        norms that do not overflow, and raises ``ValueError`` for the first
        offending one, in vector-then-label order.

        Returns ``(lo, rows, span, pair)``: the window rows of the declared
        sectors (sectors ``lo + rows``) and the ``(2, len(rows), d, k)``
        stack of the inputs there and of their images.  Every other window
        row is zero in every input.
        """
        k, d = len(vectors), self.d
        lo, hi = _bounds(*vectors)
        span = hi - lo + 1
        _require_entries(span * d * k, "{} inputs over sector labels {}..{} at dimension {} span",
                         k, lo, hi, d)
        window = np.zeros((span, d, k), dtype=np.complex128)
        for j, v in enumerate(vectors):
            window[v._lo - lo : v._hi - lo + 1, :, j] = v._amps
        a, b = bisect_left(self._labels, lo), bisect_left(self._labels, hi + 1)
        rows = self._labels[a:b] - lo
        # the misses of the fit, the inputs and their images
        out = np.empty((3, b - a, d, k), dtype=np.complex128)
        out[1] = amps = window[rows]
        # a nonzero entry outside the declared rows, which can only be where a row is undeclared
        stray = len(rows) < span and np.count_nonzero(window) != np.count_nonzero(amps)
        misses = np.zeros((0, k))  # the squared residuals of the declared rows
        if a < b:
            u, sv, vh, _ = self._factor()
            if self._run is None:
                u, sv, vh, cols = (f[a:b] for f in (u, sv, vh, self._cols))
                blocks = self._pair[:, a:b]
            else:  # np.take, several times faster than indexing by an array here
                at = self._run[a:b]
                u, sv, vh, cols = (np.take(f, at, axis=0) for f in (u, sv, vh, self._cols))
                blocks = np.take(self._pair, at, axis=1)
            # x = U^H a / s, a cut singular value reading as inf; vecdot conjugates its first
            # argument, so coeff is conj(V x), and the product with the blocks conjugates it back
            cut = _PINV_CUT * np.maximum(d, cols)[:, None] * sv[:, :1]
            kept = np.where(sv > cut, sv, np.inf)
            x = np.vecdot(u[..., None], amps[:, :, None], axis=1)
            np.divide(x, kept[..., None], out=x)
            coeff = np.vecdot(x[:, :, None], vh[..., None], axis=1)
            # the blocks' domains over their images times V x: the fit and the images
            np.vecdot(coeff[:, None], blocks[..., None], axis=-2, out=out[::2])
            np.subtract(out[0], amps, out=out[0])
            misses = np.vecdot(out[0], out[0], axis=1).real
        # a residual within tol is within its bound, tol * (1 + |row|); NaN never is
        if stray or not misses.max(initial=0.0) <= tol * tol:
            # hypot, unlike a sum of squares, does not overflow on rows above 1e154
            residual, size = np.hypot.reduce(np.abs(out[:2]), axis=2)
            _refuse_first(window, lo, rows, residual, tol * (1.0 + size))
        return lo, rows, span, out[1:]

    def _defects(self):
        """Isometry defect of each stored block, in stack order: one read-only array, kept.

        The defect is the max-norm difference of the block's image and
        domain Gram matrices (0 without columns; padding columns add zero
        Gram entries), taken ``_SLICE`` blocks at a time, both Gram
        matrices of a slice in one ``einsum`` over its image and domain.
        """
        defects = self._defect
        if defects is None:  # a race computes the same defects twice
            defects = np.empty(len(self._cols))
            for i in range(0, len(defects), _SLICE):
                pair = self._pair[::-1, i : i + _SLICE]  # images over domains
                gram = np.einsum("tkdi,tkdj->tkij", pair.conj(), pair)
                np.abs(gram[0] - gram[1]).max(
                    axis=(1, 2), initial=0.0, out=defects[i : i + _SLICE]
                )
            defects.setflags(write=False)
            self._defect = defects
        return defects

    def completed(self, tol=_ISOMETRY_TOL):
        """Deterministic extension of each block to a full unitary.

        The kept SVD factors give orthonormal bases of the domain spans
        (rank: the singular values above ``_RANK_TOL``) and, through their
        coefficients, the matching image bases; per group of blocks and
        rank, one stacked Householder QR extends both to the whole sector,
        a deterministic completion.  A group whose blocks all have full
        rank, as in most maps, takes one QR without a per-rank selection,
        filled in place when the stack has one width.  Only the stored
        blocks are completed, and the completed map keeps the runs of this
        one.  Requires the map to be an isometry on its declared domain.
        """
        worst = self._defects().max(initial=0.0)
        # written as "not <=" so a NaN defect is refused too
        if not worst <= tol:
            raise ValueError(f"cannot complete a non-isometric map (defect {worst:.3e})")
        k, d = len(self._cols), self.d
        full = np.empty((2, k, d, d), dtype=np.complex128)  # domains, then images
        for c, at, u, sv, vh in self._factor()[3]:
            if sv.min(initial=np.inf) > _RANK_TOL:  # every block of full rank
                parts = [(at, sv.shape[1], slice(None))]
            else:
                rank, at = (sv > _RANK_TOL).sum(axis=1), np.arange(k)[at]
                parts = [(at[rank == r], r, rank == r) for r in set(rank.tolist())]
            for pos, r, sel in parts:
                # domain and image bases share one stacked QR, in place when pos is a slice
                q = full[:, pos]
                q[0, :, :, :r] = u[sel, :, :r]
                basis = vh[sel, :r].conj().swapaxes(1, 2) / sv[sel, None, :r]
                np.matmul(self._pair[1, pos, :, :c], basis, out=q[1, :, :, :r])
                _extend_basis(q, r)
                if not isinstance(pos, slice):
                    full[:, pos] = q
        out = object.__new__(BlockMap)
        out._set(d, self._labels, np.full(k, d), full, self._run, self._order)
        return out


def _refuse_first(window, lo, rows, residual, bound):
    """Raise ``ValueError`` for the first offending row of ``window``, by vector then label, if any.

    A nonzero row offends unless it is in a declared sector (window rows
    ``rows``); a declared row offends unless its residual is within its
    bound.
    """
    outside = window.astype(bool).any(axis=1)
    outside[rows] = ~(residual <= bound)
    if not outside.any():
        return
    j, i = divmod(int(outside.T.argmax()), len(window))
    if i not in rows:
        raise ValueError(f"sector {lo + i} outside the declared domain")
    r = residual[np.searchsorted(rows, i), j]
    raise ValueError(
        f"sector {lo + i}: component outside the declared domain (projection residual {r:.3e})"
    )


def _extend_basis(q, r):
    """Stack ``q`` whose first ``r`` columns are orthonormal, completed in place to unitaries.

    The columns after the first ``r`` are taken from the QR of ``[q_r | I]``,
    whose ``Q`` factor is fixed by its first ``dim`` columns alone, so only
    those are factored.  With ``r == dim`` there are none, and ``q`` is
    returned as it is.
    """
    dim = q.shape[-1]
    if r < dim:
        q[..., r:] = np.eye(dim, dim - r)
        q[..., r:] = np.linalg.qr(q)[0][..., r:]
    return q


def check_conserving(m):
    """Structural report for a :class:`BlockMap`.

    Off-grading leakage is zero by construction and asserted anyway; the
    isometry defect of block ``N`` is the max-norm difference between the
    Gram matrix of the image columns and the Gram matrix of the domain
    columns (0 without columns; padding columns add zero Gram entries).
    """
    residuals = np.empty(len(m._labels) + 1)  # the grading entry, then the blocks
    defects = m._defects()
    residuals[0], residuals[1:] = 0.0, defects if m._run is None else defects[m._run]
    runs = ("grading", (("isometry",), m._labels))
    return ConstraintReport._from_runs(runs, residuals)


def orthogonality_transfer_check(m, inputs, tol=DEFAULT_TOL):
    """Gram matrices of a family of inputs before and after the map.

    A unitary interaction transfers orthogonality of the pointer states
    back to the measured states, so for any conserving isometry the two
    matrices agree within tolerance.  All inputs are mapped at once over
    their common label window, and each Gram matrix is one product of the
    inputs (or images) in the declared sectors, where every nonzero row
    lies.
    """
    k = len(inputs)
    # inputs before one of the wrong dimension are mapped first, so their
    # domain errors are reported before the dimension mismatch
    bad = next((j for j, v in enumerate(inputs) if v.d != m.d), k)
    pair = m._images(inputs[:bad], tol)[3]
    if bad < k:
        raise ValueError(f"sector dimension mismatch: {inputs[bad].d} vs {m.d}")
    flat = pair.reshape(2, pair.shape[1] * m.d, k)
    g_pre, g_post = flat.conj().swapaxes(1, 2) @ flat
    return g_pre, g_post
