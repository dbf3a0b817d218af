"""Independent brute-force oracles used to freeze expected test values.

The feasibility-violation oracle re-implements the exact-measurement
constraint residuals with literal per-equation loops (no shared code
with the production matrix assembly) and minimizes by coarse enumeration
plus quasi-Newton polish from many seeded starts.  The production path
uses one minimum-norm least-squares solve; the oracle deliberately does
not.  ``build_system_by_rows`` is the exact system's matrix as it was
assembled before ``waylab.nogo`` read it from one row function: one row
at a time from per-row coefficient dicts.  ``bounded_min_violation`` is
the float cross-check of the production solve: it builds its own matrix
with ``build_system_by_rows`` and solves the bounded linear least-squares
problem with the nonnegativity bounds imposed instead of checked
afterwards, so it shares no code with the solve it checks.
``constraint_entries_by_loops`` is the exact-system residual report as it
was before it was evaluated with array expressions.  The standard
certificate is solved in O(n) along two parity chains; two references
check it: ``dense_min_norm_solution``, the dense minimum-norm ``lstsq``
of ``build_system_by_rows`` that it replaced, and
``rational_min_violation``, the exact minimum as a rational function of
``n``.  Every basis is solved in O(n) by a block QR; it is checked
against ``dense_min_norm_solution`` and, where float ``lstsq`` cannot
resolve the minimizer (mixing weights ``m <= 1e-6``), against
``mp_min_norm_solution``, the same minimum-norm solution in 80-digit
arithmetic.

The scheme local-optimality oracle writes the approximate-scheme
constraints out equation by equation (no shared code with
``waylab.scheme``) and minimizes the error over every amplitude by a
quadratic-penalty search from seeded starts.  The production optimizer
builds its scheme in closed form; the oracle checks that no local search
finds a lower feasible error.

``DictGraded`` is the dict-of-arrays layout that ``GradedVector`` used
before it stored one window, and ``LoopBlockMap`` the dict of per-block
arrays, looped over sector by sector, that ``BlockMap`` used before it
stored stacked groups; property tests compare each pair.
``reference_classify`` is the product-branch classifier as it was before
it computed each part's finite sectors once per call.

``TupleConstraintReport`` is ``ConstraintReport`` as it was before it held
one residual array: a tuple of ``(id, residual)`` pairs, reduced by loops
over the pairs.  ``project_to_unitarity`` is the closed-form projection
onto the unitarity rows that criterion 3 checks the parity argument on.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.optimize import least_squares, lsq_linear, minimize


def violation_by_loops(n, x, s, t, a, b):
    """Sum of squared residuals of the exact system, written out longhand."""

    def win(seq, nu):
        return seq[nu - 1] if 1 <= nu <= n else 0.0

    total = 0.0
    for nu in range(1, n + 2):
        total += (win(x, nu) - 0.5 * win(s, nu) - 0.5 * win(t, nu - 1)) ** 2
        total += (win(x, nu - 1) - 0.5 * win(t, nu) - 0.5 * win(s, nu - 1)) ** 2
        total += (win(a, nu) + win(a, nu - 1)) ** 2
        total += (win(b, nu) - win(b, nu - 1)) ** 2
    total += (sum(x) - 1.0) ** 2
    total += (sum(s) - 1.0) ** 2
    total += (sum(t) - 1.0) ** 2
    total += sum(a) ** 2
    total += sum(b) ** 2
    return total


def constraint_entries_by_loops(data):
    """``(id, residual)`` entries of ``exact_constraint_residual``, one at a time."""

    def w(name, nu):
        return float(getattr(data, name)[nu - 1]) if 1 <= nu <= data.n else 0.0

    entries = []
    for nu in range(1, data.n + 2):
        entries.append(
            (
                f"unitary-norm0[{nu}]",
                abs(w("x", nu) - 0.5 * w("s", nu) - 0.5 * w("t", nu - 1)),
            )
        )
        entries.append(
            (
                f"unitary-norm1[{nu}]",
                abs(w("x", nu - 1) - 0.5 * w("t", nu) - 0.5 * w("s", nu - 1)),
            )
        )
        entries.append((f"unitary-ortho-re[{nu}]", abs(w("a", nu) + w("a", nu - 1))))
        entries.append((f"unitary-ortho-im[{nu}]", abs(w("b", nu) - w("b", nu - 1))))
    entries.append(("sum-x", abs(float(np.sum(data.x)) - 1.0)))
    entries.append(("sum-s", abs(float(np.sum(data.s)) - 1.0)))
    entries.append(("sum-t", abs(float(np.sum(data.t)) - 1.0)))
    entries.append(("sum-a", abs(float(np.sum(data.a)))))
    entries.append(("sum-b", abs(float(np.sum(data.b)))))
    return tuple(entries)


#: Targets of the five normalization sums of ``(x, s, t, a, b)``.
SUM_TARGETS = (1.0, 1.0, 1.0, 0.0, 0.0)


def build_system_by_rows(n, m, delta, targets=SUM_TARGETS):
    """Linear system ``A w = rhs`` of the (rotated) exact constraints.

    Variable layout: ``w = [x(1..n), s(1..n), t(1..n), a(1..n), b(1..n)]``;
    the per-sector unitarity rows come first, four per ``nu = 1..n+1``,
    then the five normalization sums against ``targets``.
    """
    def ix(k, nu):
        return k * n + (nu - 1)

    rows, rhs = [], []

    def row(coeffs, target):
        r = np.zeros(5 * n)
        for (k, nu), v in coeffs.items():
            if 1 <= nu <= n:
                r[ix(k, nu)] += v
        rows.append(r)
        rhs.append(target)

    g = 2.0 * np.sqrt(m)
    for nu in range(1, n + 2):
        # |image(psi0 xi_nu)|^2 = x_nu
        row(
            {
                (0, nu): 1.0,
                (1, nu): -0.5,
                (2, nu): -0.5 * (1.0 - 4.0 * m),
                (3, nu): -delta,
                (2, nu - 1): -2.0 * m,
            },
            0.0,
        )
        # |image(psi1 xi_{nu-1})|^2 = x_{nu-1}
        row(
            {
                (0, nu - 1): 1.0,
                (2, nu): -2.0 * m,
                (1, nu - 1): -0.5,
                (2, nu - 1): -0.5 * (1.0 - 4.0 * m),
                (3, nu - 1): delta,
            },
            0.0,
        )
        # orthogonality of the two images, real and imaginary parts
        row({(3, nu): g, (3, nu - 1): g, (2, nu): g * delta, (2, nu - 1): -g * delta}, 0.0)
        row({(4, nu): g, (4, nu - 1): -g}, 0.0)

    for k, target in enumerate(targets):
        row({(k, nu): 1.0 for nu in range(1, n + 1)}, target)

    return np.vstack(rows), np.asarray(rhs)


def bounded_min_violation(n, m=0.25, delta=0.0):
    """Minimal violation of ``build_system_by_rows(n, m, delta)`` with ``x, s, t >= 0`` imposed.

    Uses the bounded-variable active-set method: the default trust-region
    method stops short when the minimum is near rounding level (at
    ``|beta|^2 = 1e-12``, ``n = 64`` it returns 1.1e-15 where the minimum
    is 1.75e-16).
    """
    a_mat, rhs = build_system_by_rows(n, m, delta)
    lower = np.concatenate([np.zeros(3 * n), np.full(2 * n, -np.inf)])
    res = lsq_linear(
        a_mat, rhs, bounds=(lower, np.full(5 * n, np.inf)), method="bvls", tol=1e-14
    )
    assert res.status > 0, res.message
    r = a_mat @ res.x - rhs
    return float(r @ r)


def dense_min_norm_solution(n, m=0.25, delta=0.0, targets=SUM_TARGETS):
    """Minimum-norm least-squares data ``(5, n)`` of ``build_system_by_rows`` and its violation."""
    a_mat, rhs = build_system_by_rows(n, m, delta, targets)
    w = np.linalg.lstsq(a_mat, rhs, rcond=None)[0]
    r = a_mat @ w - rhs
    return w.reshape(5, n), float(r @ r)


def mp_min_norm_solution(n, m, delta, dps=80):
    """``dense_min_norm_solution`` in ``dps``-digit arithmetic, where float ``lstsq`` is off.

    Near ``m = 0`` the data fix the float minimizer only to about
    ``eps/sqrt(m)``: at ``m = 1e-12``, ``n = 512`` the ``lstsq`` value is
    4.5e-10 off in relative terms, and at ``m = 1e-6`` its minimizer is
    1.7e-11 off.  This solves the damped normal equations
    ``(A^T A + mu I) w = A^T rhs`` of ``build_system_by_rows`` with
    ``mu = 10^(-dps/2)``, which tend to the minimum-norm solution as
    ``mu -> 0``: the unitarity rows give a block-tridiagonal matrix over
    the sectors (5 x 5 blocks, eliminated by block Thomas sweeps), and the
    five sum rows enter by Woodbury.  The violation is evaluated at the
    high-precision point.
    """
    a_mat, rhs = build_system_by_rows(n, m, delta)
    sector_major = np.arange(5 * n).reshape(5, n).T.ravel()
    with mpmath.workdps(dps):
        mu = mpmath.mpf(10) ** (-(dps // 2))
        diag = [mpmath.eye(5) * mu for _ in range(n)]
        sub = [mpmath.zeros(5, 5) for _ in range(n)]  # sub[i] couples sector i to i - 1
        for row in a_mat[: 4 * n + 4, sector_major]:
            cols = np.flatnonzero(row)
            vals = [mpmath.mpf(float(v)) for v in row[cols]]
            for ci, vi in zip(cols, vals):
                for cj, vj in zip(cols, vals):
                    if ci // 5 == cj // 5:
                        diag[ci // 5][ci % 5, cj % 5] += vi * vj
                    elif ci // 5 == cj // 5 + 1:
                        sub[ci // 5][ci % 5, cj % 5] += vi * vj
        # K^-1 W^T, where row k of W sums variable k over the sectors
        inv, rhs_fwd = [mpmath.inverse(diag[0])], [mpmath.eye(5)]
        for i in range(1, n):
            step = sub[i] * inv[-1]
            inv.append(mpmath.inverse(diag[i] - step * sub[i].T))
            rhs_fwd.append(mpmath.eye(5) - step * rhs_fwd[-1])
        kw = [inv[-1] * rhs_fwd[-1]]
        for i in range(n - 2, -1, -1):
            kw.insert(0, inv[i] * (rhs_fwd[i] - sub[i + 1].T * kw[0]))
        gram = mpmath.eye(5)
        for block in kw:
            gram += block
        lam = mpmath.lu_solve(gram, mpmath.matrix([float(v) for v in rhs[4 * n + 4 :]]))
        z = [block * lam for block in kw]
        flat = [z[nu][k] for k in range(5) for nu in range(n)]
        total = mpmath.mpf(0)
        for row, target in zip(a_mat, rhs):
            cols = np.flatnonzero(row)
            r = mpmath.fsum(mpmath.mpf(float(row[c])) * flat[c] for c in cols) - float(target)
            total += r * r
        return np.array([float(v) for v in flat]).reshape(5, n), float(total)


def rational_min_violation(n):
    """Exact minimal violation of the standard system, one rational function of ``n`` per parity.

    Fitted to the exact rational least-squares minima at ``n = 1..24``
    (twelve values per parity, six free coefficients per formula); it
    gives ``10/21`` at ``n = 1`` and falls like ``6/n^3``.
    """
    if n % 2:
        return Fraction(6 * (n + 4), n**4 + 7 * n**3 + 14 * n**2 + 17 * n + 24)
    return Fraction(
        6 * (n**2 + 5 * n + 3), n**5 + 8 * n**4 + 20 * n**3 + 28 * n**2 + 39 * n + 15
    )


def brute_force_min_violation(n, seed=20240601, random_starts=48):
    """Grid + polish minimization of the exact-system violation.

    Starts on a coarse lattice over the nonnegative weights (overlaps at
    zero) plus seeded random points, polishes each with bound-constrained
    quasi-Newton descent, and returns the best value found.  The problem
    is a convex quadratic over a box, so any polished start reaches the
    global minimum; the enumeration guards the claim independently.
    """

    def objective(z):
        x, s, t = z[0:n], z[n : 2 * n], z[2 * n : 3 * n]
        a, b = z[3 * n : 4 * n], z[4 * n : 5 * n]
        return violation_by_loops(n, x, s, t, a, b)

    bounds = [(0.0, None)] * (3 * n) + [(None, None)] * (2 * n)

    # Coarse enumeration: score every lattice point, keep the best few as
    # polish starts.  The lattice covers the nonnegative weights with the
    # overlaps at zero; random starts cover everything else.
    lattice = [0.0, 0.5, 1.0]
    max_lattice = 3**9
    grid_points = []
    if 3 ** (3 * n) <= max_lattice:
        for combo in itertools.product(lattice, repeat=3 * n):
            grid_points.append(np.concatenate([np.array(combo), np.zeros(2 * n)]))
    else:
        rng_lat = np.random.default_rng(seed + 1)
        for _ in range(max_lattice):
            xst = rng_lat.choice(lattice, size=3 * n)
            grid_points.append(np.concatenate([xst, np.zeros(2 * n)]))
    scored = sorted(grid_points, key=objective)
    starts = scored[:20]
    rng = np.random.default_rng(seed)
    for _ in range(random_starts):
        starts.append(
            np.concatenate(
                [rng.uniform(0.0, 1.2, 3 * n), rng.uniform(-0.4, 0.4, 2 * n)]
            )
        )

    best = np.inf
    for z0 in starts:
        res = minimize(
            objective,
            z0,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 500, "ftol": 1e-15},
        )
        if res.fun < best:
            best = float(res.fun)
    return best


def _scheme_amplitudes(z, n, d):
    """Zero-padded ``sigma, rho, tau`` over sectors ``0..n+2``, one row per vector in ``z``.

    A real vector packs the real and imaginary parts of ``sigma`` (sectors
    ``1..n``), ``rho`` (``0..n-1``) and ``tau`` (``2..n+1``); the apparatus
    weights are eliminated by ``|xi_nu|^2 = |sigma_nu|^2 + |rho_{nu-1}|^2``.
    """
    b = z.shape[0]
    c = z.reshape(b, 6, n, d)
    amp = c[:, 0::2] + 1j * c[:, 1::2]
    sig = np.zeros((b, n + 3, d), dtype=complex)
    rho = np.zeros_like(sig)
    tau = np.zeros_like(sig)
    sig[:, 1 : n + 1] = amp[:, 0]
    rho[:, 0:n] = amp[:, 1]
    tau[:, 2 : n + 2] = amp[:, 2]
    return sig, rho, tau


def scheme_constraints(z, n, d):
    """Admissibility residuals of a scheme, one constraint family per line."""

    def dot(u, v):  # per-sector inner product, conjugate-linear in u
        return np.sum(u.conj() * v, axis=-1)

    sig, rho, tau = _scheme_amplitudes(z, n, d)
    s2, r2, t2 = dot(sig, sig).real, dot(rho, rho).real, dot(tau, tau).real
    # images of psi0 xi_nu and psi1 xi_{nu-1} are orthogonal, nu = 1..n+2
    ortho = dot(sig[:, 1:], tau[:, 1:]) + dot(rho[:, :-1], sig[:, :-1])
    # |xi_nu|^2 read from the rho split equals the one from the tau split
    split = r2[:, 0:n] - t2[:, 2 : n + 2]
    norm = s2.sum(axis=1) + r2.sum(axis=1) - 1.0
    pointer = 4.0 * s2.sum(axis=1) - dot(rho + tau, rho + tau).real.sum(axis=1)
    eta_sigma = dot(sig, tau - rho).sum(axis=1)
    eta_pointer = dot(rho + tau, tau - rho).sum(axis=1)
    return np.column_stack(
        [ortho.real, ortho.imag, split, norm, pointer,
         eta_sigma.real, eta_sigma.imag, eta_pointer.real, eta_pointer.imag]
    )


def scheme_error_residuals(z, n, d):
    """Real residuals whose squares sum to the error ``|(tau - rho)/2|^2``."""
    _, rho, tau = _scheme_amplitudes(z, n, d)
    half = 0.5 * (tau - rho).reshape(z.shape[0], -1)
    return np.concatenate([half.real, half.imag], axis=1)


def _quadratic_jacobian(fun, z, n, d):
    # central differences with unit step are exact for quadratic maps
    eye = np.eye(z.size)
    return 0.5 * (fun(z + eye, n, d) - fun(z - eye, n, d)).T


def local_min_scheme_errors(n, d=2, starts=8, seed=20261017):
    """``(error, max |constraint|)`` of a local search from each seeded start.

    Every start puts a two-parity transfer profile (independent random
    amplitudes on the even and the odd sectors) along ``e1`` and a flat
    ``sigma`` along ``e0``, then perturbs all amplitudes; half the starts
    are perturbed strongly.  Each is driven through increasing quadratic
    penalties and then projected onto the constraint set.
    """
    rng = np.random.default_rng([seed, n])
    p = 6 * n * d
    error_jac = _quadratic_jacobian(scheme_error_residuals, np.zeros(p), n, d)

    def penalized(weight):
        sw = np.sqrt(weight)

        def fun(v):
            return np.concatenate(
                [scheme_error_residuals(v[None], n, d)[0],
                 sw * scheme_constraints(v[None], n, d)[0]]
            )

        def jac(v):
            return np.vstack(
                [error_jac, sw * _quadratic_jacobian(scheme_constraints, v, n, d)]
            )

        return fun, jac

    def constraints_only(v):
        return scheme_constraints(v[None], n, d)[0]

    tight = {"method": "trf", "xtol": 1e-15, "ftol": 1e-15, "gtol": 1e-15,
             "max_nfev": 200}
    results = []
    for k in range(starts):
        even, odd = rng.uniform(-1.0, 1.0, 2)
        nu = np.arange(n)
        profile = np.where(nu % 2 == 0, even, odd) * np.sin(np.pi * (nu + 1) / (n + 1))
        c = (0.3 if k % 2 == 0 else 0.03) * rng.standard_normal((6, n, d))
        c[0, :, 0] += np.sqrt(0.5 / n)
        c[2, :, 1] += profile
        c[4, :, 1] += profile
        z = c.ravel()
        for weight in (1e2, 1e5, 1e8):
            fun, jac = penalized(weight)
            z = least_squares(fun, z, jac=jac, **tight).x
        z = least_squares(
            constraints_only, z,
            jac=lambda v: _quadratic_jacobian(scheme_constraints, v, n, d), **tight,
        ).x
        error = float(np.sum(scheme_error_residuals(z[None], n, d) ** 2))
        results.append((error, float(np.max(np.abs(constraints_only(z))))))
    return results


def ols_loglog_slope(ns, errors):
    """Closed-form least-squares slope of log(error) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    xc = x - x.mean()
    return float((xc @ (y - y.mean())) / (xc @ xc))


class DictGraded:
    """Reference graded vector: a dict of per-sector ``(d,)`` arrays."""

    def __init__(self, d, sectors):
        self.d = d
        self.sectors = {}
        for nu, amp in sectors.items():
            amp = np.asarray(amp, dtype=np.complex128)
            if np.any(amp != 0):
                self.sectors[nu] = amp

    def get(self, nu):
        return self.sectors.get(nu, np.zeros(self.d, dtype=np.complex128))

    def __add__(self, other):
        labels = set(self.sectors) | set(other.sectors)
        return DictGraded(self.d, {nu: self.get(nu) + other.get(nu) for nu in labels})

    def scale(self, a):
        return DictGraded(self.d, {nu: a * amp for nu, amp in self.sectors.items()})

    def inner(self, other):
        common = set(self.sectors) & set(other.sectors)
        return complex(sum(np.vdot(self.sectors[nu], other.sectors[nu]) for nu in common))

    def norm2(self):
        return float(sum(np.vdot(a, a).real for a in self.sectors.values()))

    def tensor(self, amp0, amp1):
        d, joint = self.d, {}
        for nu, amp in self.sectors.items():
            for total, half, c in ((nu, 0, amp0), (nu + 1, 1, amp1)):
                if c != 0:
                    block = joint.setdefault(total, np.zeros(2 * d, dtype=np.complex128))
                    block[half * d : (half + 1) * d] += c * amp
        return DictGraded(2 * d, joint)

    def split(self):
        d = self.d // 2
        return (
            DictGraded(d, {nu: b[:d] for nu, b in self.sectors.items()}),
            DictGraded(d, {nu - 1: b[d:] for nu, b in self.sectors.items()}),
        )

    def to_dict(self):
        return {
            "d": self.d,
            "sectors": [
                {"nu": nu, "amp": [[float(z.real), float(z.imag)] for z in self.sectors[nu]]}
                for nu in sorted(self.sectors)
            ],
        }


class LoopBlockMap:
    """Reference block map: a dict of per-sector ``(domain, image)`` arrays, one loop pass each."""

    def __init__(self, d, blocks):
        self.d = d
        self.blocks = {
            int(n): (np.asarray(dom, dtype=np.complex128), np.asarray(img, dtype=np.complex128))
            for n, (dom, img) in blocks.items()
        }

    def isometry_defects(self):
        """``{N: max |G_image - G_domain|}`` in label order."""
        defects = {}
        for n in sorted(self.blocks):
            dom, img = self.blocks[n]
            g_dom = dom.conj().T @ dom
            g_img = img.conj().T @ img
            defects[n] = float(np.max(np.abs(g_img - g_dom))) if dom.shape[1] else 0.0
        return defects

    def apply(self, v, tol=1e-10):
        """Per-sector ``lstsq`` against the block's domain, then its image."""
        from waylab.graded import GradedVector

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

    def completed(self):
        """Per block: SVD basis of the domain span, its image, QR completion of both."""

        def extend(q):
            full, _ = np.linalg.qr(np.hstack([q, np.eye(q.shape[0])]))
            return np.hstack([q, full[:, q.shape[1] :]])

        blocks = {}
        for n, (dom, img) in self.blocks.items():
            u, sv, vh = np.linalg.svd(dom, full_matrices=False)
            rank = int(np.count_nonzero(sv > 1e-12))
            q_img = img @ (vh[:rank].conj().T / sv[:rank])
            blocks[n] = (extend(u[:, :rank]), extend(q_img))
        return LoopBlockMap(self.d, blocks)

    def gram_matrices(self, inputs, tol=1e-10):
        """Gram matrices of ``inputs`` and their images, one sector sum per pair."""

        def dot(u, v):
            return complex(sum(np.vdot(amp, v.sector(nu)) for nu, amp in u.items()))

        images = [self.apply(v, tol) for v in inputs]
        k = len(inputs)
        g_pre = np.zeros((k, k), dtype=np.complex128)
        g_post = np.zeros((k, k), dtype=np.complex128)
        for i in range(k):
            for j in range(k):
                g_pre[i, j] = dot(inputs[i], inputs[j])
                g_post[i, j] = dot(images[i], images[j])
        return g_pre, g_post


def loop_interaction_blocks(s):
    """``{N: (domain, image)}`` of a scheme's interaction, built one total charge at a time."""
    xi, sg, tu, rh = s.xi, s.sigma, s.tau, s.rho
    xi_supp, zero, blocks = set(xi.support()), np.zeros(s.d), {}
    for total in range(min(xi_supp, default=1), max(xi_supp, default=0) + 2):
        cols = []
        if total in xi_supp:
            cols.append((np.concatenate([xi.sector(total), zero]),
                         np.concatenate([sg.sector(total), rh.sector(total - 1)])))
        if total - 1 in xi_supp:
            cols.append((np.concatenate([zero, xi.sector(total - 1)]),
                         np.concatenate([tu.sector(total), sg.sector(total - 1)])))
        if cols:
            blocks[total] = tuple(np.column_stack(c) for c in zip(*cols))
    return blocks


def _reference_finite_sectors(vec, tol):
    support = vec.support() or (0,)
    amps = vec.window(support[0], support[-1])
    weights = np.einsum("ij,ij->i", amps.conj(), amps).real
    return [support[0] + int(i) for i in np.flatnonzero(weights > tol)]


def _reference_support_check(plus_branch, minus_branch, tol):
    pairs = set()
    for branch in (plus_branch, minus_branch):
        app_supp = _reference_finite_sectors(branch.apparatus_part, tol)
        for mu in _reference_finite_sectors(branch.object_part, tol):
            pairs.update((mu + lam, mu) for lam in app_supp if mu + lam not in (0, 1))
    return sorted(pairs)


def _reference_pattern(branch, tol):
    obj_raised = any(nu != 0 for nu in _reference_finite_sectors(branch.object_part, tol))
    app_raised = any(nu != 0 for nu in _reference_finite_sectors(branch.apparatus_part, tol))
    if obj_raised and not app_raised:
        return "Case1"
    if app_raised and not obj_raised:
        return "Case2"
    return None


def _reference_outer(obj_vec, app_vec, mu, lam):
    return np.outer(obj_vec.sector(mu), app_vec.sector(lam))


def _reference_charge_one_products(branch, tol):
    app_supp = set(_reference_finite_sectors(branch.apparatus_part, tol))
    return [
        _reference_outer(branch.object_part, branch.apparatus_part, mu, 1 - mu)
        for mu in _reference_finite_sectors(branch.object_part, tol)
        if 1 - mu in app_supp
    ]


def reference_classify(plus_branch, minus_branch, tol=1e-9):
    """``waylab.generalized.classify``, recomputing finite sectors per question."""
    from waylab.generalized import CaseVerdict

    for name, branch in (("plus", plus_branch), ("minus", minus_branch)):
        if not branch.is_normalized(1e-8):
            raise ValueError(f"{name} branch is not normalized: |.| = {branch.norm()!r}")

    violations = tuple(_reference_support_check(plus_branch, minus_branch, tol))
    labels = tuple(
        f"{name}:{part_name}:{nu}"
        for name, branch in (("plus", plus_branch), ("minus", minus_branch))
        for part_name, part in (
            ("object", branch.object_part), ("apparatus", branch.apparatus_part)
        )
        for nu in _reference_finite_sectors(part, tol)
    )
    overlap = abs(plus_branch.overlap(minus_branch))
    if violations:
        return CaseVerdict("Infeasible", labels, 0.0, violations, overlap)

    pat_plus = _reference_pattern(plus_branch, tol)
    pat_minus = _reference_pattern(minus_branch, tol)
    if pat_plus is None or pat_minus is None or pat_plus != pat_minus:
        residual = sum(
            float(np.vdot(m, m).real)
            for branch in (plus_branch, minus_branch)
            for m in _reference_charge_one_products(branch, tol)
        )
        residual = float(np.sqrt(residual)) if residual > 0 else 1.0
        return CaseVerdict("Infeasible", labels, residual, (), overlap)

    mu, lam = (1, 0) if pat_plus == "Case1" else (0, 1)
    cross = sum(
        _reference_outer(b.object_part, b.apparatus_part, mu, lam)
        for b in (plus_branch, minus_branch)
    )
    residual = float(np.linalg.norm(cross))
    kind = pat_plus if residual <= np.sqrt(tol) else "Infeasible"
    return CaseVerdict(kind, labels, residual, (), overlap)


@dataclass(frozen=True)
class TupleConstraintReport:
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

    def passed(self, tol=1e-10):
        return self.max_residual < tol

    def entry(self, constraint_id):
        """Residual of a single named entry."""
        for cid, r in self.entries:
            if cid == constraint_id:
                return r
        raise KeyError(constraint_id)

    def filter(self, prefix):
        """Sub-report of entries whose id starts with ``prefix``."""
        return TupleConstraintReport(
            tuple((cid, r) for cid, r in self.entries if cid.startswith(prefix))
        )

    def to_dict(self):
        return {
            "entries": [[cid, float(r)] for cid, r in self.entries],
            "max_residual": float(self.max_residual),
        }


def project_to_unitarity(data):
    """Nearest nonnegative data with every unitarity row of the standard system zero.

    The norm-balance and orthogonality chains alone (the normalization
    sums released) force ``a = b = t = 0`` and ``s = 2x``, as in the
    witness derivation.  The nearest such point to ``data`` therefore
    solves, sector by sector, ``min (x - x0)^2 + (2x - s0)^2`` over
    ``x >= 0``: ``x = max(0, (x0 + 2 s0) / 5)`` and ``s = 2x``.  On the
    result the overlaps vanish and ``t`` is identically zero, so it is
    constant on each parity class, which is what makes the conflict with
    ``sum t = 1`` checkable.
    """
    from waylab.nogo import ExactSchemeData

    x = np.maximum(0.0, (data.x + 2.0 * data.s) / 5.0)
    return ExactSchemeData(data.n, x, 2.0 * x, *np.zeros((3, data.n)))
