"""Independent brute-force oracles used to freeze expected test values.

The feasibility-violation oracle re-implements the exact-measurement
constraint residuals with literal per-equation loops (no shared code
with the production matrix assembly) and minimizes by coarse enumeration
plus quasi-Newton polish from many seeded starts.  The production path
uses bounded linear least squares; the oracle deliberately does not.

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
"""

import itertools

import numpy as np
from scipy.optimize import least_squares, minimize


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
