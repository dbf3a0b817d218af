"""Canonical approximate measurement scheme under an additive conservation law.

An apparatus spreading over ``n`` charge sectors cannot distinguish the
two superposition states of a two-level object exactly (see
:mod:`waylab.nogo`), but it can do so approximately, with a third
"undetermined" outcome whose probability is the squared norm of the error
vector ``eta``.  This module builds the standard construction attaining
error ``1/(2n - 1)``, validates its constraint system, derives the
pointer states, and applies the interaction to arbitrary object states.

The scheme data are four graded vectors:

* ``xi``    -- apparatus initial state, sectors ``1..n``;
* ``sigma`` -- amplitude for the object keeping its branch, sectors ``1..n``;
* ``rho``   -- object-raising transfer amplitude, sectors ``0..n-1``;
* ``tau``   -- object-lowering transfer amplitude, sectors ``2..n+1``;

with the interaction acting as ``psi0 xi -> psi0 sigma + psi1 rho`` and
``psi1 xi -> psi0 tau + psi1 sigma``.  The pointer states are the
combinations ``2 chi = 2 sigma + rho + tau``, ``2 chi' = 2 sigma - rho -
tau`` and the error vector ``2 eta = tau - rho`` (its partner is
``eta' = -eta``).
"""

from __future__ import annotations

import gc
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graded import (
    DEFAULT_TOL,
    BlockMap,
    ConstraintReport,
    GradedVector,
    ObjectState,
    _bounds,
    _integer,
    _nonzero_rows,
    _require_entries,
    _row_dots,
)
from .jsonio import read_fields, read_vectors, text_pieces


#: The four graded vectors of a scheme, in the order of its JSON form.
_VECTORS = ("xi", "sigma", "tau", "rho")


@dataclass(frozen=True)
class ApproxScheme:
    """Approximate measurement scheme for an apparatus of size ``n``.

    ``c`` is the mean squared sector norm of ``sigma`` and ``cprime`` the
    scheme error; for the canonical construction these are the constants
    ``c = (n-1)/(n(2n-1))`` and ``c' = 1/(2n-1)`` with ``n(c + c') = 1``.
    """

    n: int
    d: int
    xi: GradedVector
    sigma: GradedVector
    tau: GradedVector
    rho: GradedVector
    c: float
    cprime: float

    def to_dict(self):
        data = {k: getattr(self, k) for k in ("n", "d", "c", "cprime")}
        return data | {k: getattr(self, k).to_dict() for k in _VECTORS}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`.

        Malformed data raise ``ValueError`` naming the field, and so does a
        vector whose sector dimension is not the scheme's ``d``.
        """
        return cls._from_fields(read_fields(data, _FIELDS, "scheme"))

    @classmethod
    def _from_fields(cls, fields):
        for name in _VECTORS:
            if fields[name].d != fields["d"]:
                what = f"sector dimension {fields[name].d} != scheme d {fields['d']}"
                raise ValueError(f"scheme field {name!r}: {what}")
        return cls(**fields)

    def to_json(self, indent=None):
        """``json.dumps(self.to_dict(), indent=indent)``, written directly.

        ``indent`` follows ``json``: ``None`` is the compact form, an int
        ``k`` indents by ``k`` spaces and a string is used as is.  The text
        is :meth:`_pieces` joined once, so no enclosing object copies what
        it holds; a run of neighbouring sectors equal in bits, as in the
        canonical scheme, has its row formatted once (see
        ``jsonio._sector_array``).
        """
        return "".join(self._pieces(indent))

    def _pieces(self, indent):
        """The pieces of :meth:`to_json`'s text, which the CLI writes one after another."""
        return text_pieces({k: getattr(self, k) for k in (*_HEADER, *_VECTORS)}, indent)

    @classmethod
    def from_json(cls, text):
        """``from_dict(json.loads(text))``, read directly from the layout :meth:`to_json` writes.

        A ``str`` in that layout, compact or indented by any number of
        spaces and followed by optional spaces and newlines, is read
        without building its object tree: ``n``, ``d``, ``c``, ``cprime``
        and each vector's ``d`` are parsed by ``json.loads`` with the
        sector arrays cut out, and each vector's labels by one
        ``json.loads`` and its distinct rows by another (see
        ``jsonio.read_vectors``): a row repeated in many sectors, as in the
        canonical scheme, parses once.
        Every other text, ``bytes``, and any text that reads as a malformed
        scheme go to ``from_dict(json.loads(text))``, the one general
        parser and the source of every error message, so both ways give
        the same scheme, bit for bit, or the same ``ValueError``.  JSON
        nested too deeply for ``json`` raises ``ValueError`` too.
        """
        # the parsed lists and dicts hold no cycles, so a collection finds nothing, and the
        # collections their allocations would set off cost a large parse much of its time
        enabled = gc.isenabled()
        gc.disable()
        try:
            fields = _strict_fields(text)
            if fields is not None:
                return cls._from_fields(fields)
            try:
                data = json.loads(text)
            except RecursionError:
                raise ValueError("scheme JSON is nested too deeply to read") from None
            return cls.from_dict(data)
        finally:
            if enabled:
                gc.enable()


def _weight(value):
    """A scheme weight from JSON: a real number (a bool or a string is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


#: The scalar fields of a scheme, in the order of its JSON form, before the vectors.
_HEADER = ("n", "d", "c", "cprime")

#: Parser of each field of the JSON form of a scheme.
_FIELDS = {
    "n": lambda value: _integer(value, "apparatus size", 1),
    "d": lambda value: _integer(value, "sector dimension", 1),
    **dict.fromkeys(_VECTORS, GradedVector.from_dict),
    **dict.fromkeys(("c", "cprime"), _weight),
}


def _strict_fields(text):
    """The fields of a scheme text in the layout of ``to_json``, or ``None`` to parse it in full."""
    parsed = read_vectors(text, _VECTORS)
    if parsed is None:
        return None
    header, vectors = parsed
    if list(header) != [*_HEADER, *_VECTORS]:
        return None
    try:
        fields = read_fields(header, {k: _FIELDS[k] for k in _HEADER}, "scheme")
    except ValueError:
        return None
    return fields | vectors


@dataclass(frozen=True)
class DerivedPointers:
    """Pointer states ``chi``, ``chi'`` and error vector ``eta``.

    The partner error vector is ``-eta`` and is not stored separately.
    """

    chi: GradedVector
    chiprime: GradedVector
    eta: GradedVector


def canonical_weights(n):
    """Exact weights ``(c, c')`` of the canonical scheme as fractions.

    ``c = (n - 1)/(n (2n - 1))`` and ``c' = 1/(2n - 1)`` solve the total
    apparatus weight ``n (c + c') = 1`` and pointer orthogonality
    ``4 n c = 4 (n - 1) c'``; rational arithmetic keeps the headline
    error free of rounding before the float conversion.
    """
    n = _integer(n, "apparatus size 'n'", 1)
    return Fraction(n - 1, n * (2 * n - 1)), Fraction(1, 2 * n - 1)


def _require_size(n, d):
    """``(n, d)`` of a scheme to build as ints, checked before anything is allocated.

    Integers ``n >= 1`` and ``d >= 2`` (so ``sigma`` and ``tau`` can be orthogonal
    in a sector) whose windows (sectors ``-2..n+3``) fit the entry limit.
    """
    n = _integer(n, "apparatus size 'n'", 1)
    d = _integer(d, "per-sector dimension 'd'", 2)
    what = "apparatus size n = {} at dimension {} needs windows of {} sectors,"
    _require_entries((n + 6) * d, what, n, d, n + 6)
    return n, d


def build_canonical_scheme(n, d=2):
    """Construct the canonical scheme of apparatus size ``n``.

    All amplitudes are real and nonnegative: ``sigma`` lies along
    per-sector basis direction 0 with squared norm ``c`` on sectors
    ``1..n``; ``rho`` and ``tau`` lie along direction 1 with squared norm
    ``c'``, equal on the interior sectors and carried by the four
    boundary components ``rho_0, rho_1, tau_n, tau_{n+1}``.  ``xi`` is
    fixed by the weight-split relations at ``|xi_nu|^2 = c + c'``.

    ``n = 1`` is the degenerate limit: no information is extracted, the
    error is 1, and no charge-respecting isometry realizes it (the
    returned data keep the exact error and pointer algebra but fail the
    structural validation, which requires ``n >= 2``).
    """
    n, d = _require_size(n, d)
    c_frac, cp_frac = canonical_weights(n)
    c, cp = float(c_frac), float(cp_frac)
    e0, e1 = np.eye(2, d)

    if n == 1:
        # Degenerate limit: sigma vanishes (c = 0) and the error vector
        # carries the full weight, tau = -rho = unit vector in the single
        # apparatus sector, so chi = chi' = 0 and (eta, eta) = c' = 1.
        xi = GradedVector(d, {1: e0})
        sigma = GradedVector(d, {})
        rho = GradedVector(d, {1: -np.sqrt(cp) * e1})
        tau = GradedVector(d, {1: np.sqrt(cp) * e1})
        return ApproxScheme(n=n, d=d, xi=xi, sigma=sigma, tau=tau, rho=rho,
                            c=c, cprime=cp)

    sc, scp, sx = np.sqrt(c), np.sqrt(cp), np.sqrt(c + cp)
    xi = GradedVector.from_window(1, np.tile(sx * e0, (n, 1)))
    sigma = GradedVector.from_window(1, np.tile(sc * e0, (n, 1)))
    rho = GradedVector.from_window(0, np.tile(scp * e1, (n, 1)))
    tau = GradedVector.from_window(2, np.tile(scp * e1, (n, 1)))
    return ApproxScheme(n=n, d=d, xi=xi, sigma=sigma, tau=tau, rho=rho,
                        c=c, cprime=cp)


def scheme_error(s):
    """Probability of the undetermined outcome, ``(eta, eta)``.

    Computed from the stored vectors as a quarter of the squared norm of
    ``tau - rho``.
    """
    return 0.25 * (s.tau - s.rho).norm2()


def derived_pointers(s):
    """Pointer states and error vector of a scheme.

    For a validated canonical scheme the three vectors are mutually
    orthogonal and ``|chi|^2 + |eta|^2 = 1``.
    """
    chi, chiprime = _pointers(s)
    return DerivedPointers(chi=chi, chiprime=chiprime, eta=0.5 * (s.tau - s.rho))


def _pointers(s):
    """Pointer states ``(chi, chi')`` of a scheme, without the error vector."""
    half_sum = 0.5 * (s.rho + s.tau)
    return s.sigma + half_sum, s.sigma - half_sum


def interaction_blocks(s):
    """Interaction of the scheme as a :class:`BlockMap` on joint sectors.

    The map is declared only on the measurement inputs: within total
    charge ``N`` the domain vectors are ``psi0 xi_N`` and
    ``psi1 xi_{N-1}`` (where the corresponding component of ``xi`` is
    nonzero) and their images are ``psi0 sigma_N + psi1 rho_{N-1}`` and
    ``psi0 tau_N + psi1 sigma_{N-1}``.
    """
    lo, (xi, sg, tu, rh) = _windows(s)
    # total charge lo + i: the head column from rows i + 1, the tail from rows i
    zero = np.zeros_like(xi[1:])
    head = np.hstack([xi[1:], zero]), np.hstack([sg[1:], rh[:-1]])
    tail = np.hstack([zero, xi[:-1]]), np.hstack([tu[1:], sg[:-1]])
    has_head, has_tail = _nonzero_rows(xi[1:]), _nonzero_rows(xi[:-1])
    keep = np.flatnonzero(has_head | has_tail)
    first, both = has_head[keep, None], (has_head & has_tail)[keep, None]
    # a block without its head keeps the tail in column 0; one column leaves zero padding
    pair = np.empty((2, len(keep), 2 * s.d, 2), dtype=np.complex128)  # domains, then images
    for h, t, out in zip(head, tail, pair):
        np.stack([np.where(first, h[keep], t[keep]), np.where(both, t[keep], 0)], axis=2, out=out)
    return BlockMap._from_stack(2 * s.d, lo + keep, 1 + both[:, 0], pair)


def _windows(s):
    """Windows of ``xi, sigma, tau, rho`` over the checked sectors ``lo..hi``.

    ``lo..hi`` spans the four supports and ``1..n`` plus one sector each
    way; the windows add one row each side, so row ``i + 1`` is sector ``lo + i``.
    """
    vecs = (s.xi, s.sigma, s.tau, s.rho)
    lo, hi = _bounds(*vecs)
    lo, hi = (min(lo, 1), max(hi, s.n)) if lo <= hi else (1, s.n)
    return lo - 1, [v.window(lo - 2, hi + 2) for v in vecs]


def _fsum(terms):
    """Correctly rounded sum, or the plain sum where ``math.fsum`` raises (inf - inf)."""
    try:
        if np.iscomplexobj(terms):
            return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
        return math.fsum(terms.tolist())
    except (OverflowError, ValueError):
        return terms.sum().item()


def validate_scheme(s):
    """Residual report for the full scheme constraint system.

    Entries cover, per sector: orthogonality of the two interaction
    outputs and the two weight-split relations fixing ``|xi_nu|^2``; and
    globally: normalization of ``xi``, vanishing overlap of the two
    pointer states, vanishing overlap of the error vector with ``sigma``
    and with the pointer difference.  Three more entries compare the
    header with the vectors: ``header-n`` is the weight of ``xi`` outside
    sectors ``1..n``, ``header-c`` is ``|c - |sigma|^2 / n|`` and
    ``header-cprime`` is ``|c' - (eta, eta)|``.  Global sums are correctly
    rounded (``math.fsum``), so they do not drift with ``n``.

    These entries cover the induced block map: the isometry defect of
    block ``N`` of :func:`interaction_blocks` is the maximum of
    ``orthogonality[N]``, ``weights-rho[N]`` and ``weights-tau[N-1]``,
    restricted to the domain vectors ``psi0 xi_N``, ``psi1 xi_{N-1}``
    present.  Reports and never raises for finite inputs whose label
    span fits one window and whose ``n`` is an integer ``>= 1``.
    """
    n = _integer(s.n, "apparatus size 'n'", 1)
    lo, (xi, sg, tu, rh) = _windows(s)
    mid, k = slice(1, -1), len(xi) - 2  # the checked sectors are window rows 1..k
    # overflowing amplitudes give inf/NaN residuals, which report FAIL without warning
    with np.errstate(over="ignore", invalid="ignore"):
        x, sn = _row_dots(xi, xi).real, _row_dots(sg, sg).real
        r, t = _row_dots(rh, rh).real, _row_dots(tu, tu).real
        nu = np.arange(lo - 1, lo - 1 + len(x))  # the sector of each window row
        totals = _totals(s, n, nu, x, sn, sg, tu, rh)
        # one array in report order: orthogonality, then weights-rho and weights-tau by sector
        residuals = np.empty(3 * k + len(totals))
        np.abs(_row_dots(sg[mid], tu[mid]) + _row_dots(rh[:-2], sg[:-2]), out=residuals[:k])
        np.abs(x[mid] - sn[mid] - r[:-2], out=residuals[k : 3 * k : 2])
        np.abs(x[mid] - sn[mid] - t[2:], out=residuals[k + 1 : 3 * k : 2])
    residuals[3 * k :] = list(totals.values())
    runs = ((("orthogonality",), nu[mid]), (("weights-rho", "weights-tau"), nu[mid]), *totals)
    return ConstraintReport._from_runs(runs, residuals)


def _totals(s, n, nu, x, sn, sg, tu, rh):
    """The global entries of :func:`validate_scheme` from its windows and row weights.

    ``rh + tu`` is built once (IEEE addition commutes, so it serves as
    ``tu + rh`` too; only the payload of a NaN could differ) and freed
    with ``tu - rh`` when this returns, before the caller's per-sector
    residuals; each global sum is taken while few of its window-sized
    temporaries are alive.
    """
    both = rh + tu
    pointers = _fsum(np.concatenate([4.0 * sn, -_row_dots(both, both).real]))
    diff = tu - rh
    eta_pointer = _fsum(_row_dots(both, diff))
    del both
    return {
        "norm-xi": abs(_fsum(x) - 1.0),
        "overlap-pointers": abs(pointers),
        "overlap-eta-sigma": abs(_fsum(_row_dots(sg, diff))),
        "overlap-eta-pointer": abs(eta_pointer),
        "header-n": abs(_fsum(x[(nu < 1) | (nu > n)])),
        "header-c": abs(s.c - _fsum(sn) / n),
        "header-cprime": abs(s.cprime - 0.25 * _fsum(_row_dots(diff, diff).real)),
    }


def _require_finite(s):
    """``ValueError`` naming the first of ``xi, sigma, tau, rho`` with a non-finite amplitude."""
    for name in _VECTORS:
        if not np.isfinite(getattr(s, name)._amps).all():
            raise ValueError(f"scheme vector {name} has non-finite amplitudes")


def apply_interaction(s, obj, tol=DEFAULT_TOL):
    """Joint output state of the interaction for a normalized object.

    Returns ``amp0 (psi0 sigma + psi1 rho) + amp1 (psi0 tau + psi1 sigma)``
    as a joint graded vector.  For a validated scheme the output is
    normalized and its total-charge grading matches the input exactly.
    A scheme with a non-finite amplitude in any of its four vectors is
    refused with ``ValueError``.
    """
    if not isinstance(obj, ObjectState):
        obj = ObjectState(*obj)
    obj.require_normalized(tol)
    _require_finite(s)
    lo, (_, sg, tu, rh) = _windows(s)
    # total charge lo + i: head from rows i + 1, tail from rows i
    head = obj.amp0 * sg[1:] + obj.amp1 * tu[1:]
    tail = obj.amp0 * rh[:-1] + obj.amp1 * sg[:-1]
    return GradedVector.from_window(lo, np.hstack([head, tail]))
