"""Infeasibility analysis of exact measurement under the conservation law.

An exact two-outcome measurement of the superposition basis would need a
charge-conserving unitary sending ``(psi0 + psi1) xi`` and
``(psi0 - psi1) xi`` to product states with orthogonal pointer parts.
Decomposing by sector turns that requirement into a linear system on the
real sequences

* ``x[nu] = |xi_nu|^2``   -- apparatus weights,
* ``s[nu] = |sigma_nu|^2``, ``t[nu] = |tau_nu|^2`` -- pointer-sum and
  pointer-difference weights,
* ``a[nu] + i b[nu] = (sigma_nu, tau_nu)`` -- their overlap,

supported on the window ``1..n``.  The system is inconsistent for every
finite ``n``: the overlap chains force ``a = b = 0``, the norm-balance
recursion makes ``t`` constant on each parity class, the boundary rows
pin those constants to zero, and ``sum t = 1`` then fails.  This module
measures the minimal violation and produces the symbolic derivation as a
certificate.

Data are held as the five rows ``(x, s, t, a, b)``, shape ``(5, n)``.
:func:`_unitarity_rows` states the system once: per sector ``nu = 1..n+1``
two norm balances and the two parts of the image orthogonality, linear in
the data at ``nu`` and ``nu - 1``; five normalization sums against
``_SUM_TARGETS`` complete it.  :func:`exact_constraint_residual` evaluates
the rows on data, and the block solve below on unit data to read off
the stencils of its unknowns at ``nu`` and ``nu - 1``.

The minimal violation is ``min |A w - r|^2`` over the data ``w`` whose
squared norms ``x, s, t`` are nonnegative.  One unconstrained solve gives
it exactly: the unconstrained minimum over all ``w`` is at most the
bounded one, and an unconstrained minimizer with nonnegative ``x, s, t``
lies in the bounded set, so the bounded minimum is at most its value.
Whenever the minimum-norm minimizer passes that check the two minima are
equal; when it fails, the solve raises instead of clipping.  The optimal
set is that minimizer plus the null space of ``A`` (``s = 2x``,
``t = a = b = 0``, ``sum x = 0`` in the standard basis), and the
minimum-norm point is the one orthogonal to it, so ``x + 2s`` is constant
across sectors.

In the standard basis that point is found in O(n) along two parity chains:

* The overlaps enter only their own chains ``a[nu] + a[nu-1]`` and
  ``b[nu] - b[nu-1]`` and the sums ``sum a = sum b = 0``; ``a = b = 0``
  zeroes all of them.
* ``u = x - s/2`` and ``v = x + 2s`` are an orthogonal change of
  variables, ``x = (4u + v)/5``, ``s = 2(v - u)/5``, with
  ``x^2 + s^2 = (4u^2 + v^2)/5``.  The norm balances read
  ``u[nu] - t[nu-1]/2`` and ``u[nu-1] - t[nu]/2``, so ``v`` enters only
  the sums ``sum x = (4 sum u + sum v)/5`` and
  ``sum s = 2(sum v - sum u)/5``.  The best ``sum v`` is 3, which leaves
  the sum residual ``(4/5)(sum u - 1/2)^2 + (sum t - 1)^2``; the
  minimum-norm point spreads it evenly, ``v[nu] = 3/n``.
* The rows split ``(u, t)`` into two chains by parity, ``q[k] = u[k]`` on
  odd ``k`` and ``t[k]`` on even ``k``, and the other way round.  On each,
  row ``k = 1..n+1`` is ``d[k] q[k] + d[k-1] q[k-1]`` with ``d = 1`` on the
  ``u`` entries and ``-1/2`` on the ``t`` entries, so its normal matrix is
  ``K = D S^T S D`` with ``S^T S = tridiag(1, 2, 1)``: diagonal 2 on ``u``
  and 1/2 on ``t``, off-diagonals -1/2.  The inverse of
  ``tridiag(1, 2, 1)`` is ``(-1)^(i+j) min(i, j)(n + 1 - max(i, j))/(n + 1)``
  (its two Thomas sweeps in closed form: the pivots are ``(k + 1)/k``),
  so applying it to a parity indicator takes two cumulative sums of
  same-sign terms.
* The two sum rows ``W = (1_u, 1_t)``, weighted ``C = diag(4/5, 1)`` with
  targets ``c = (1/2, 1)``, are a rank-two update of ``K``.  Woodbury
  gives the minimizer ``K^-1 W lam`` with
  ``lam = (C^-1 + W^T K^-1 W)^-1 c``, one 2x2 solve, and every column of
  ``K^-1 W`` is one of the two parity-indicator solves above.

The value is then the squared rows of :func:`_unitarity_rows` plus the
five squared sums at that point.

The same machinery covers an arbitrary rotated object basis
``alpha psi0 + beta psi1`` / ``-conj(beta) psi0 + conj(alpha) psi1``:
only the mixing weight ``m = |alpha|^2 |beta|^2`` and the imbalance
``delta = |alpha|^2 - |beta|^2`` enter the coefficients, so the result
is invariant under phases of ``alpha`` and ``beta``, reduces to the
standard system at ``m = 1/4``, and becomes exactly feasible in the
degenerate case ``m = 0`` (measuring the conserved quantity itself).
Every such basis is solved in O(n) by one block QR:

* ``v`` enters only the sums, so ``v[nu] = (x_sum + 2 s_sum)/n``; ``b``
  enters only ``g (b[nu] - b[nu-1])`` (``g = 2 sqrt(m)``) and ``sum b``,
  so ``b = 0``.  With ``p = u - t/2`` and ``e[nu] = t[nu] - t[nu-1]``
  the other rows at ``nu`` are exactly ``p[nu] - delta a[nu] + 2m e[nu]``,
  ``p[nu-1] + delta a[nu-1] - 2m e[nu]`` and
  ``g (a[nu] + a[nu-1] + delta e[nu])``.  Three unknowns per sector are
  left, taken as ``y = (sqrt(4/5) u, t, a)`` so that the sums, those of
  ``x`` and ``s`` weighted as above, are the three rows on ``sum y``.
* One Householder QR per block of ``_BLOCK`` sectors factors its edge
  rows with the 6 rows the sums and earlier edges leave on its first
  sector.  On later sectors those rows are combinations of the sums of
  ``y``, held as 3 columns, so the sum rows stay in the factorization.
  Only those 6 rows are kept; each R is refactored on the way back.
* For ``m > 0`` the rows have full column rank and one least-squares
  point, but only the edge rows see the shape of ``t``, through ``e``
  weighted ``2m`` and ``g delta``, so as ``m -> 0`` it sinks below rounding
  (undamped, ``|beta| = 1e-15`` at ``n = 64`` gives negative ``x, s, t``).
  Rows ``lambda t[nu]``, ``lambda = 16 n eps`` (``_DAMPING``), cut it as
  ``lstsq``'s ``rcond`` would: a direction with singular value
  ``sigma >> lambda`` moves by ``(lambda/sigma)^2`` of itself, one with
  ``sigma << lambda`` takes its minimum-norm value (uniform ``t``), and
  the violation exceeds the minimum by at most ``lambda^2 |t|^2`` at the
  exact minimizer.  At ``m = 0`` the minimum-norm point
  ``x = s = t = 1/n``, ``a = b = 0`` zeroes every row and is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graded import ConstraintReport, ObjectState, _integer, _number_array, _require_entries
from .jsonio import read_fields, text_pieces
from .optimize import OptimizationError

#: Targets of the five normalization sums of ``(x, s, t, a, b)``.
_SUM_TARGETS = (1.0, 1.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class ExactSchemeData:
    """Sector data of a candidate exact scheme on the window ``1..n``.

    Arrays are indexed by ``nu - 1``; values outside the window are zero.
    ``x``, ``s`` and ``t`` are squared norms, so a well-formed instance
    is entrywise nonnegative (checked by the residual operation, not the
    constructor, so corrupt data can be diagnosed).  Two instances are
    equal when ``n`` and every array are.
    """

    n: int
    x: np.ndarray
    s: np.ndarray
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in _ROWS:
            try:
                arr = _number_array(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            if arr.shape != (self.n,):
                raise ValueError(f"{name}: expected shape ({self.n},), got {arr.shape}")
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, ExactSchemeData):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in _ROWS
        )

    __hash__ = None

    def to_dict(self):
        return {"n": self.n, **{k: getattr(self, k).tolist() for k in _ROWS}}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; malformed data raise ``ValueError`` naming the field."""
        return cls(**read_fields(data, _EXACT_FIELDS, "exact scheme data"))


#: The five sector sequences of :class:`ExactSchemeData`, in data-row order.
_ROWS = ("x", "s", "t", "a", "b")

#: Parser of each field of the JSON form of :class:`ExactSchemeData`.
_EXACT_FIELDS = {
    "n": lambda value: _integer(value, "support size", 1),
    **dict.fromkeys(_ROWS, _number_array),
}


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Minimal constraint violation plus the symbolic inconsistency proof.

    ``min_violation`` is the unweighted sum of squared residuals at the
    least-squares minimizer; it is strictly positive whenever the object
    basis genuinely mixes the two charges.  The witness is derived from
    the recursion itself and does not depend on the numerical minimizer.
    """

    n: int
    min_violation: float
    minimizer: ExactSchemeData
    witness: tuple
    #: Mixing parameters ``(m, delta)`` of the analyzed basis; ``(0.25, 0.0)``
    #: for the standard superposition pair.  Not part of the JSON form.
    mix: tuple = field(default=(0.25, 0.0), compare=False)

    def to_dict(self):
        return {
            "n": self.n,
            "min_violation": self.min_violation,
            "minimizer": self.minimizer.to_dict(),
            "witness": list(self.witness),
        }

    def to_json(self, indent=None):
        """``json.dumps(self.to_dict(), indent=indent)``, written from the minimizer's arrays."""
        minimizer = {k: getattr(self.minimizer, k) for k in ("n", *_ROWS)}
        tree = {"n": self.n, "min_violation": self.min_violation, "minimizer": minimizer}
        return "".join(text_pieces(tree | {"witness": list(self.witness)}, indent))


def _unitarity_rows(w, m, delta):
    """Signed unitarity rows of every sector ``nu = 1..n+1``, shape ``(..., 4, n + 1)``.

    ``w`` holds ``(x, s, t, a, b)`` on axis ``-2`` and sectors ``1..n`` on
    the last axis.  Per sector: the norm balances of the images of
    ``psi0 xi_nu`` and ``psi1 xi_{nu-1}``, then the real and imaginary
    parts of their orthogonality.
    """
    pad = np.zeros(w.shape[:-1] + (w.shape[-1] + 2,))
    pad[..., 1:-1] = w
    x, s, t, a, b = np.moveaxis(pad[..., 1:], -2, 0)  # at nu
    xb, sb, tb, ab, bb = np.moveaxis(pad[..., :-1], -2, 0)  # at nu - 1
    g, c = 2.0 * np.sqrt(m), 0.5 * (1.0 - 4.0 * m)
    return np.stack(
        [
            x - 0.5 * s - c * t - delta * a - 2.0 * m * tb,
            xb - 2.0 * m * t - 0.5 * sb - c * tb + delta * ab,
            g * a + g * ab + g * delta * t - g * delta * tb,
            g * b - g * bb,
        ],
        axis=-2,
    )


def exact_constraint_residual(data):
    """Named residuals of the exact-measurement system for ``data``.

    Per sector (window ``1..n+1``): the four unitarity rows of the
    standard basis (``m = 1/4``, ``delta = 0``), the two norm balances
    and the two orthogonality parts.  Globally: the normalization sums of
    ``x``, ``s``, ``t`` against 1 and of ``a``, ``b`` against 0.
    """
    for name in ("x", "s", "t"):
        arr = getattr(data, name)
        if np.any(arr < 0):
            nu = int(np.argmin(arr)) + 1
            raise ValueError(
                f"{name}[{nu}] = {float(arr[nu - 1])!r} is negative; squared norms "
                f"must be nonnegative"
            )
    w = np.stack([data.x, data.s, data.t, data.a, data.b])
    # a non-finite entry gives NaN rows (0 * inf) and sums, which report FAIL without warning
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.abs(_unitarity_rows(w, 0.25, 0.0))
        sums = [abs(float(np.sum(getattr(data, k))) - t) for k, t in zip(_ROWS, _SUM_TARGETS)]
    kinds = ("unitary-norm0", "unitary-norm1", "unitary-ortho-re", "unitary-ortho-im")
    runs = ((kinds, np.arange(1, data.n + 2)), *(f"sum-{k}" for k in _ROWS))
    return ConstraintReport._from_runs(runs, np.concatenate([rows.T.ravel(), sums]))


#: Sectors per block of the rotated solve, and its damping of ``t`` in ``n`` float epsilons.
_BLOCK, _DAMPING = 16, 16.0


def _support_size(n):
    """``n`` as an int; refused before any allocation unless ``5 x n`` data fit the window limit."""
    n = _integer(n, "support size 'n'", 1)
    _require_entries(5 * n, "support size n = {} needs 5 x {} data,", n, n)
    return n


def _block_minimizer(n, m, delta):
    """Least-squares data ``(5, n)`` of the system at mixing ``(m, delta)``, in O(n).

    The block solve of the module docstring, for the sum targets in
    ``_SUM_TARGETS`` (that of ``b`` is zero); at ``m = 0`` the closed form
    for the targets ``(1, 1, 1, 0, 0)``.
    """
    n = _support_size(n)
    if m == 0.0:
        return np.concatenate([np.full((3, n), 1.0 / n), np.zeros((2, n))])
    x_sum, s_sum, t_sum, a_sum, _ = _SUM_TARGETS
    r = np.sqrt(0.8)  # y = (r u, t, a) as data (x, s, t, a, b) at v = 0
    unit = np.array([[r, -0.5 * r, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    stencil = _unitarity_rows(unit[:, :, None], m, delta)[:, :3]
    here, before = stencil[..., 0].T, stencil[..., 1].T
    lam = _DAMPING * n * np.finfo(float).eps
    # rows into a block on its first sector, the sum of y after it and the target
    carry = np.zeros((6, 7))
    carry[:3, :3], carry[3:, :3], carry[3:, 3:6] = here, np.eye(3), np.eye(3)
    carry[3:, 6] = r * (x_sum - 0.5 * s_sum), t_sum, a_sum
    # per sector its 3 edge rows out and its damped t, on the columns of the
    # block, the next sector, the sum of y after that and the target
    size = min(n, _BLOCK)
    own, i = np.zeros((4 * size, 3 * size + 7)), np.arange(size)
    per = own[:, : 3 * size + 3].reshape(size, 4, size + 1, 3)
    per[i, :3, i], per[i, :3, i + 1], per[i, 3, i, 1] = before, here, lam

    def factor(carry, k):
        top = np.zeros((6, k + 7))
        top[:, :3], top[:, -1] = carry[:, :3], carry[:, 6]
        top[:, 3 : k + 6].reshape(6, -1, 3)[:] = carry[:, None, 3:6]
        # rows 0..k-1 of R do not depend on the later columns, dead at the window's end
        return np.linalg.qr(np.concatenate([top, own[: 4 * k // 3, : k + 7]]), mode="r")

    # keep only the rows carried into each block; its R is factored again on the way back
    full, carries = 3 * _BLOCK, [carry]
    for _ in range((n - 1) // _BLOCK):  # the full blocks before the last
        carries.append(factor(carries[-1], full)[full : full + 6, full:].copy())
    y = np.empty((n, 3))
    later = np.zeros(6)  # y of the next sector, then the sum of y over the sectors after it
    for j in reversed(range(len(carries))):
        k = 3 * min(_BLOCK, n - j * _BLOCK)
        rows = factor(carries[j], k)[:k]
        block = np.linalg.solve(rows[:, :k], rows[:, -1] - rows[:, k:-1] @ later).reshape(-1, 3)
        y[j * _BLOCK : j * _BLOCK + len(block)] = block
        later = np.concatenate([block[0], later[:3] + later[3:] + block[1:].sum(axis=0)])
    u, v = y[:, 0] / r, (x_sum + 2.0 * s_sum) / n
    return np.stack([(4.0 * u + v) / 5.0, 2.0 * (v - u) / 5.0, y[:, 1], y[:, 2], np.zeros(n)])


def _parity_chain_minimizer(n):
    """Minimum-norm least-squares data ``(5, n)`` of the standard system, in O(n).

    The parity-chain solve of the module docstring, for the sum targets
    of ``x, s, t`` in ``_SUM_TARGETS`` (those of ``a, b`` are zero).
    """
    n = _support_size(n)
    x_sum, s_sum, t_sum = _SUM_TARGETS[:3]
    k = np.arange(1.0, n + 1.0)
    f = np.stack([k % 2, 1.0 - k % 2])  # parity indicators, odd k first
    # tridiag(-1, 2, -1)^-1 f: (n+1-k) sum_{j<=k} j f_j + k sum_{j>k} (n+1-j) f_j, over n+1
    left = np.cumsum(k * f, axis=1)
    right = np.zeros_like(f)
    right[:, :-1] = np.cumsum(((n + 1 - k) * f)[:, :0:-1], axis=1)[:, ::-1]
    solved = ((n + 1 - k) * left + k * right) / (n + 1)
    # tridiag(1, 2, 1)^-1 on the indicator of k's own parity and of the other one, signs removed
    same, other = np.sum(f * solved, axis=0), np.sum(f[::-1] * solved, axis=0)
    # K^-1 1_u = (u: same, t: 2 other), K^-1 1_t = (u: 2 other, t: 4 same); C^-1 + W^T K^-1 W
    total_same, total_other = same.sum(), other.sum()
    gram = np.array(
        [[1.25 + total_same, 2.0 * total_other], [2.0 * total_other, 1.0 + 4.0 * total_same]]
    )
    lam_u, lam_t = np.linalg.solve(gram, [x_sum - 0.5 * s_sum, t_sum])
    u = lam_u * same + 2.0 * lam_t * other
    t = 2.0 * lam_u * other + 4.0 * lam_t * same
    v = (x_sum + 2.0 * s_sum) / n
    return np.stack([(4.0 * u + v) / 5.0, 2.0 * (v - u) / 5.0, t, np.zeros(n), np.zeros(n)])


def _certificate(w, m, delta):
    """Certificate of the least-squares data ``w`` at mixing ``(m, delta)``, valued by its own rows.

    Its value is the minimum over nonnegative squared norms exactly when
    the check below passes (module docstring).
    """
    n = w.shape[1]
    data = ExactSchemeData(n, *w)
    if np.any(w[:3] < 0):
        raise OptimizationError(
            f"minimum-norm solution for n={n} has a negative squared norm "
            f"(min {float(np.min(w[:3]))!r}), so its value need not be "
            f"the bounded minimum",
            best=data,
        )
    sums = w.sum(axis=1) - _SUM_TARGETS
    return InfeasibilityCertificate(
        n=n,
        min_violation=float(np.sum(_unitarity_rows(w, m, delta) ** 2) + sums @ sums),
        minimizer=data,
        witness=derive_witness(n, m=m),
        mix=(m, delta),
    )


def derive_witness(n, m=0.25):
    """Symbolic inconsistency derivation for window size ``n``.

    Walks the constraint recursions literally (no numerics) and reports
    the forced conclusions step by step.  The steps depend on the basis
    only through whether the mixing weight ``m`` is zero: for the
    degenerate basis ``m = 0`` the orthogonality rows vanish and no
    contradiction arises.
    """
    n = _integer(n, "support size 'n'", 1)
    if m == 0.0:
        return (
            "the object basis is an eigenbasis of the conserved quantity "
            "(mixing weight m = 0): the orthogonality chains are vacuous and "
            "the trivial scheme chi_nu = sqrt(x_nu) e0, chi'_nu = sqrt(x_nu) e1 "
            "satisfies every constraint exactly",
        )
    classes = (range(1, n + 1, 2), range(2, n + 1, 2))
    # one %-template per class; its chain is the same text with "] = t[" between entries
    lists = ["[" + ", ".join(["%d"] * len(c)) % tuple(c) + "]" for c in classes]
    chains = "; ".join(
        "t[" + text[1:-1].replace(", ", "] = t[") + f"] = t[{c[-1] + 2}] = 0"
        for c, text in zip(classes, lists)
        if c
    )
    return (
        "overlap chains: a[nu] + a[nu-1] = 0 with a[0] = 0 outside the window "
        f"forces a[nu] = 0 for nu = 1..{n}; b[nu] - b[nu-1] = 0 with b[0] = 0 "
        f"forces b[nu] = 0 for nu = 1..{n}",
        "with the overlaps gone, the two norm balances combine to "
        "x[nu+1] - s[nu+1]/2 = t[nu]/2 = x[nu-1] - s[nu-1]/2, so t is constant "
        f"on each parity class: {lists[0]} and {lists[1]}",
        "the recursion extends past the window where t vanishes, pinning each "
        "parity constant to zero: " + chains,
        "normalization requires sum(t) = 1 while the recursion forces "
        "sum(t) = 0: the exact separation of the two superposition states is "
        "impossible at any finite apparatus size",
    )


def infeasibility_certificate(n):
    """Minimal violation certificate of the exact system at size ``n``.

    The returned violation is strictly positive, non-increasing in ``n`` (an
    ``n``-window minimizer embeds into the ``n+1`` window), and achieved
    by the returned minimizer.  Solved in O(n) along the two parity chains
    (module docstring); sizes whose ``5 x n`` data would pass the graded
    window limit are refused before anything is allocated.
    """
    return _certificate(_parity_chain_minimizer(n), 0.25, 0.0)


def rotated_basis_residual(n, obj):
    """Minimal violation for an arbitrary rotated object basis.

    ``obj`` holds ``(alpha, beta)``; the analyzed pair is
    ``alpha psi0 + beta psi1`` and ``-conj(beta) psi0 + conj(alpha) psi1``.
    Only ``m = |alpha beta|^2`` and ``delta = |alpha|^2 - |beta|^2``
    enter, so the result is phase covariant, reduces to
    :func:`infeasibility_certificate` at ``|alpha| = |beta|``, and is
    zero to rounding for an eigenbasis of the conserved quantity.  Solved
    in O(n) by the block QR of the module docstring; sizes whose ``5 x n``
    data would pass the graded window limit are refused before anything
    is allocated.
    """
    if not isinstance(obj, ObjectState):
        obj = ObjectState(*obj)
    obj.require_normalized()
    m = (abs(obj.amp0) * abs(obj.amp1)) ** 2
    delta = abs(obj.amp0) ** 2 - abs(obj.amp1) ** 2
    return _certificate(_block_minimizer(n, m, delta), m, delta)
