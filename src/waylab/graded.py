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
* ``__init__`` (a sector map) and ``from_dict`` (parsed JSON) read labels
  and rows into two arrays and share one tail, ``_fill``: the last row of
  a repeated label wins, exact-zero rows are dropped, and one window is
  filled.  ``from_window`` copies and trims a given window.  Every
  operation that returns a vector ends in ``from_window``.
* One integer rule, :func:`_integer`, reads every sector label, ``d`` and
  ``n`` from outside: an ``int`` or a numpy integer; a bool, float (even
  ``2.0``) or string raises ``ValueError`` naming the field.
* Arithmetic keeps the float operations of ``a + (-1) b``: ``u - v``
  multiplies ``v``'s own rows by ``-1.0``, zero-pads them and adds, so
  its bits equal those of ``u + (-1.0) * v``.  A plain ``a - b`` of the
  windows differs: ``(-1.0) * b`` is a full complex multiply, which can
  flip the sign of a zero or turn an infinite part into NaN.
* A window costs memory in proportion to its label span, so one of more
  than ``2**24`` entries (``(hi - lo + 1) * d``, 256 MiB) is rejected
  with ``ValueError`` before it is allocated.  :func:`_require_entries`,
  the one check of that limit, also bounds scheme sizes and no-go solves.
* ``inner`` is conjugate-linear in its *first* argument.
* A :class:`BlockMap` stores one stack: sorted labels, the column count
  of each block and ``(K, d, M)`` domain and image stacks, each block
  zero-padded to the widest ``M``.  ``blocks`` maps each label to views
  into them, and every operation is a few batched array or LAPACK calls
  over the stack (taken in slices of at most 256 blocks, which bounds
  their temporaries) rather than a loop over sectors.
* A joint object+apparatus vector is itself a :class:`GradedVector` with
  per-sector dimension ``2 * d``: within total-charge sector ``N`` the
  first ``d`` slots hold the object-charge-0 component (apparatus sector
  ``N``) and the last ``d`` slots the object-charge-1 component
  (apparatus sector ``N - 1``).
* All values are immutable after construction and all operations are
  pure functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType

import numpy as np

#: Default absolute tolerance for structural residual checks.
DEFAULT_TOL = 1e-10

#: Largest window a graded vector may allocate, in complex entries (256 MiB).
_MAX_WINDOW_ENTRIES = 2**24

#: Most blocks per batched call over a :class:`BlockMap`'s stacks, which bounds its temporaries.
_SLICE = 256


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

    ``scale`` multiplies ``v``'s own rows before they are zero-padded and
    added: the float operations of building the vector ``scale * v`` and
    adding it, down to signed zeros and NaN (see the module Conventions).
    """
    if u.d != v.d:
        raise ValueError(f"sector dimension mismatch: {u.d} vs {v.d}")
    lo, hi = _bounds(u, v)
    out = v.window(lo, hi)
    if scale is not None and len(v._amps):
        rows = out[v._lo - lo : v._hi - lo + 1]
        np.multiply(scale, rows, out=rows)
    return lo, np.add(u.window(lo, hi), out, out=out)


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
        """Keep ``d`` and the rows ``amps`` of sectors ``labels`` (int64): last row per label."""
        order = np.argsort(labels, kind="stable")  # repeated labels keep their input order
        labels, amps = labels[order], amps[order]
        keep = _nonzero_rows(amps)
        keep[:-1] &= labels[1:] != labels[:-1]
        labels, amps = labels[keep], amps[keep]
        lo, hi = (int(labels[0]), int(labels[-1])) if len(labels) else (0, -1)
        window = _zeros(lo, hi, d)
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
        vec = object.__new__(cls)
        vec.d = amps.shape[1]
        vec._lo, vec._amps = _trimmed(_integer(lo, "window start 'lo'"), amps)
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
        return float(np.vdot(self._amps, self._amps).real)

    def norm(self):
        return float(np.sqrt(self.norm2()))

    def is_zero(self):
        return not len(self._amps)

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return GradedVector.from_window(*_sum_window(self, other))

    def __sub__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return GradedVector.from_window(*_sum_window(self, other, -1.0))

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
        rows = np.flatnonzero(_nonzero_rows(self._amps))
        amps = self._amps[rows].view(np.float64).reshape(len(rows), self.d, 2).tolist()
        labels = (rows + self._lo).tolist()
        return {
            "d": self.d,
            "sectors": [{"nu": nu, "amp": amp} for nu, amp in zip(labels, amps)],
        }

    def _json(self, indent, depth):
        """``json.dumps(self.to_dict(), indent=indent)`` as written at nesting ``depth``.

        ``indent`` is ``None`` (compact) or the indent string.  One %-template
        per sector is repeated and filled from flat lists of labels and
        float texts, so no per-sector container is built.
        """
        rows = np.flatnonzero(_nonzero_rows(self._amps))
        values = _json_floats(self._amps[rows].view(np.float64).ravel())
        # '%' in the indent string must not read as a conversion
        ind = None if indent is None else indent.replace("%", "%%")
        pair = _json_array(["%s", "%s"], ind, depth + 4)
        amp = _json_array([pair] * self.d, ind, depth + 3)
        row = _json_object(['"nu": %d', '"amp": ' + amp], ind, depth + 2)
        width = 2 * self.d + 1
        args = [None] * (len(rows) * width)
        args[::width] = (rows + self._lo).tolist()
        for j in range(2 * self.d):
            args[j + 1 :: width] = values[j :: 2 * self.d]
        sectors = _json_array([row] * len(rows), ind, depth + 1) % tuple(args)
        return _json_object([f'"d": {self.d}', '"sectors": ' + sectors], indent, depth)

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
        vec = object.__new__(cls)
        vec._fill(d, labels, amps.view(np.complex128)[..., 0])
        return vec


#: ``json``'s spelling of the non-finite floats, keyed by ``str(value)``.
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_indent(indent):
    """``json``'s ``indent`` as ``None`` (compact) or a string; an int ``k`` means ``k`` spaces."""
    if indent is None or isinstance(indent, str):
        return indent
    return " " * indent


def _json_floats(values):
    """Texts of the entries of a 1-D float array as ``json.dumps`` writes them.

    Each distinct bit pattern is formatted once (``-0.0`` and ``0.0`` stay
    apart), which skips most of the work on arrays of repeated values.
    """
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = map(float.__repr__, bits.view(np.float64).tolist())
    return np.array([_JSON_CONSTANTS.get(t, t) for t in texts], dtype=object)[where].tolist()


def _json_array(items, indent, depth):
    """JSON array of the item texts, laid out as ``json.dumps`` does at ``depth``."""
    if not items:
        return "[]"
    if indent is None:
        return "[" + ", ".join(items) + "]"
    brk = "\n" + indent * (depth + 1)
    return "[" + brk + ("," + brk).join(items) + "\n" + indent * depth + "]"


def _json_object(members, indent, depth):
    """JSON object of the ``"key": value`` texts, laid out as ``json.dumps`` does at ``depth``."""
    return "{" + _json_array(members, indent, depth)[1:-1] + "}"


def _number_array(value, dtype=np.float64):
    """``value`` as a ``dtype`` array; ValueError unless numbers (complex if dtype is complex)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise ValueError(f"not an array of numbers (dtype {arr.dtype})")
    return arr.astype(dtype)


def _read_fields(data, parsers, kind):
    """``{name: parse(data[name])}`` over ``parsers``; ``ValueError`` names a bad ``kind`` field."""
    if not isinstance(data, dict):
        raise ValueError(f"a {kind} must be a JSON object")
    fields = {}
    for name, parse in parsers.items():
        if name not in data:
            raise ValueError(f"{kind} field {name!r} is missing")
        try:
            fields[name] = parse(data[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} field {name!r}: {exc}") from None
    return fields


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
        return abs(self.amp0) ** 2 + abs(self.amp1) ** 2

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

    The blocks are stored as one stack: their sorted labels, the column
    count of each block, and ``(K, d, M)`` domain and image stacks in
    which every block is zero-padded to the common width ``M``.  A zero
    column changes no Gram matrix, singular value or image, so each
    operation is a few batched calls over the stack.  ``blocks`` is a
    read-only mapping, in the order the blocks were given, whose values
    are views into the stacks.
    """

    __slots__ = ("d", "blocks", "_labels", "_cols", "_dom", "_img")

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
        dom = np.zeros((len(labels), d, cols.max(initial=0)), dtype=np.complex128)
        img = np.zeros_like(dom)
        for k, n in enumerate(labels.tolist()):
            dom[k, :, : cols[k]], img[k, :, : cols[k]] = parsed[n]
        self._set(d, labels, cols, dom, img, parsed)

    @classmethod
    def _from_stack(cls, d, labels, cols, dom, img, order=None):
        """Map over sorted ``labels`` whose block ``k`` is the first ``cols[k]`` stack columns."""
        m = object.__new__(cls)
        m._set(d, labels, cols, dom, img, order)
        return m

    def _set(self, d, labels, cols, dom, img, order):
        """Keep the stacks; ``blocks`` lists their labels in ``order`` (default ascending)."""
        self.d, self._labels, self._cols, self._dom, self._img = d, labels, cols, dom, img
        views = list(zip(dom, img))
        for k in np.flatnonzero(cols < dom.shape[2]).tolist():
            views[k] = dom[k, :, : cols[k]], img[k, :, : cols[k]]
        blocks = dict(zip(labels.tolist(), views))
        if order is not None:
            blocks = {n: blocks[n] for n in order}
        self.blocks = MappingProxyType(blocks)

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
        through pseudo-inverses from one stacked SVD of the blocks hit
        (cutoff as in ``lstsq(rcond=None)``).  The first row outside the
        declared domain raises ``ValueError``.
        """
        images = np.zeros_like(amps)
        residual = np.zeros(len(labels))
        pos = np.searchsorted(self._labels, labels)
        found = pos < len(self._labels)
        found[found] = self._labels[pos[found]] == labels[found]
        rows = np.flatnonzero(found)
        pos = pos[rows]
        # invert only the blocks the rows hit, each once
        used, at = np.unique(pos, return_inverse=True)
        coeff = np.einsum("tmd,td->tm", _pinv(self._dom[used], self._cols[used])[at], amps[rows])
        fitted = np.einsum("tdm,tm->td", self._dom[pos], coeff)
        residual[rows] = np.linalg.norm(fitted - amps[rows], axis=1)
        images[rows] = np.einsum("tdm,tm->td", self._img[pos], coeff)
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
        worst = check_conserving(self).max_residual
        # written as "not <=" so a NaN defect is refused too
        if not worst <= tol:
            raise ValueError(f"cannot complete a non-isometric map (defect {worst:.3e})")
        k, d = len(self._labels), self.d
        doms = np.empty((k, d, d), dtype=np.complex128)
        imgs = np.empty_like(doms)
        # the SVD runs on unpadded blocks, one column count at a time: on a
        # padded block its singular vectors can come out with other phases
        for c in sorted(set(self._cols.tolist())):
            same = np.flatnonzero(self._cols == c)
            for i in range(0, len(same), _SLICE):
                at = same[i : i + _SLICE]
                u, sv, vh = np.linalg.svd(self._dom[at, :, :c], full_matrices=False)
                rank = np.count_nonzero(sv > 1e-12, axis=1)
                for r in set(rank.tolist()):
                    sel = rank == r
                    basis = vh[sel, :r].conj().swapaxes(1, 2) / sv[sel, None, :r]
                    q_img = self._img[at[sel], :, :c] @ basis
                    # domain and image bases share one stacked QR
                    full = _extend_basis(np.concatenate([u[sel, :, :r], q_img]))
                    doms[at[sel]] = full[: len(q_img)]
                    imgs[at[sel]] = full[len(q_img) :]
        return BlockMap._from_stack(d, self._labels, np.full(k, d), doms, imgs, self.blocks)


def _sector_rows(vectors, d):
    """Nonzero sector rows of ``vectors``, by vector then label: ``(owner, labels, amps)``."""
    rows = [np.flatnonzero(_nonzero_rows(v._amps)) for v in vectors]
    owner = np.repeat(np.arange(len(vectors)), [len(r) for r in rows])
    labels = [np.zeros(0, dtype=np.int64)] + [r + v._lo for r, v in zip(rows, vectors)]
    amps = [np.zeros((0, d), dtype=np.complex128)] + [v._amps[r] for r, v in zip(rows, vectors)]
    return owner, np.concatenate(labels), np.concatenate(amps)


def _pinv(dom, cols):
    """Pseudo-inverses of a padded stack, cut as ``lstsq(rcond=None)`` cuts each unpadded block."""
    u, sv, vh = np.linalg.svd(dom, full_matrices=False)
    keep = sv > np.finfo(np.float64).eps * np.maximum(dom.shape[1], cols)[:, None] * sv[:, :1]
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


def check_conserving(m):
    """Structural report for a :class:`BlockMap`.

    Off-grading leakage is zero by construction and asserted anyway; the
    isometry defect of block ``N`` is the max-norm difference between the
    Gram matrix of the image columns and the Gram matrix of the domain
    columns (0 without columns; padding columns add zero Gram entries).
    """
    residuals = [np.zeros(1)]  # the grading entry
    for i in range(0, len(m._labels), _SLICE):
        dom, img = m._dom[i : i + _SLICE], m._img[i : i + _SLICE]
        residuals.append(np.abs(_gram(img) - _gram(dom)).max(axis=(1, 2), initial=0.0))
    runs = ("grading", (("isometry",), m._labels))
    return ConstraintReport._from_runs(runs, np.concatenate(residuals))


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
