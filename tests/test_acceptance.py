"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here and nowhere else; each criterion times its own
heavy computation (certificate scan, optimizer sweep) against the stated
runtime budget.
"""

import time
from fractions import Fraction

import numpy as np

import waylab as w
from oracles import brute_force_min_violation, project_to_unitarity

from test_generalized import exchange_branches, random_clean_instance


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    return ok


def test_criterion_1_headline_error_law():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3, 10, 100, 1000, 10000):
        c, cp = w.canonical_weights(n)
        ok &= cp == Fraction(1, 2 * n - 1)
        ok &= n * (c + cp) == 1
        err = w.scheme_error(w.build_canonical_scheme(n))
        ok &= abs(err - 1.0 / (2 * n - 1)) < 1e-12
    elapsed = time.time() - t0
    assert _report(
        1,
        ok and elapsed < 1.0,
        f"scheme error equals 1/(2n-1) symbolically and to 1e-12 in float "
        f"for n in {{1,2,3,10,100,1000,10000}} ({elapsed:.2f}s)",
    )


def test_criterion_2_constraint_suite():
    t0 = time.time()
    worst = 0.0
    for n in (2, 3, 4, 5, 10, 32, 100, 1000, 10000):
        report = w.validate_scheme(w.build_canonical_scheme(n))
        worst = max(worst, report.max_residual)
    elapsed = time.time() - t0
    assert _report(
        2,
        worst < 1e-10 and elapsed < 10.0,
        f"all per-sector and global residuals (which cover the isometry "
        f"defects) below 1e-10 up to n=10^4 (worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_3_no_go():
    t0 = time.time()
    certificate_scan = {n: w.infeasibility_certificate(n) for n in range(1, 65)}
    values = [certificate_scan[n].min_violation for n in range(1, 65)]
    ok = all(v > 0 for v in values)
    ok &= all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    for n in (1, 2, 3, 4):
        oracle = brute_force_min_violation(n)
        ok &= abs(certificate_scan[n].min_violation - oracle) <= 1e-4 * oracle
    for n in (1, 2, 3, 4):
        data = certificate_scan[n].minimizer
        ok &= float(np.max(np.abs(data.a))) < 1e-8
        ok &= float(np.max(np.abs(data.b))) < 1e-8
        proj = project_to_unitarity(data)
        rep = w.exact_constraint_residual(proj)
        ok &= max(r for cid, r in rep.entries if cid.startswith("unitary")) < 1e-8
        for parity in (0, 1):
            vals = [proj.t[i] for i in range(n) if (i + 1) % 2 == parity]
            if len(vals) > 1:
                ok &= max(vals) - min(vals) < 1e-6
    elapsed = time.time() - t0
    assert _report(
        3,
        ok and elapsed < 120.0,
        f"min violation positive and non-increasing for n <= 64, matches the "
        f"grid+polish oracle at n=1..4 within 1e-4 relative, overlaps vanish "
        f"at 1e-8 and t is parity-constant at 1e-6 once the unitarity rows "
        f"are below 1e-8 ({elapsed:.1f}s)",
    )


def test_criterion_4_scaling_claim():
    t0 = time.time()
    table = w.sweep([4, 8, 16, 32, 64])
    elapsed = time.time() - t0
    ok = all(r.error_optimized <= r.error_wigner + 1e-10 for r in table.rows)
    ok &= all(not r.note for r in table.rows)
    slope, _, _ = w.fit_scaling(table)
    ok &= slope <= -1.7
    assert _report(
        4,
        ok and elapsed < 600.0,
        f"optimized error never exceeds 1/(2n-1) over n in {{4,8,16,32,64}} "
        f"and the log-log slope is {slope:.4f} <= -1.7 ({elapsed:.0f}s)",
    )


def test_criterion_5_three_outcome_statistics():
    t0 = time.time()
    s = w.build_canonical_scheme(3)
    amp = 2**-0.5
    plus = w.three_outcome_stats(s, w.ObjectState(amp, amp))
    minus = w.three_outcome_stats(s, w.ObjectState(amp, -amp))
    ok = np.allclose(plus.probabilities(), (0.8, 0.0, 0.2), atol=1e-10)
    ok &= np.allclose(minus.probabilities(), (0.0, 0.8, 0.2), atol=1e-10)
    shots = 10**5
    for dist, seed in ((plus, 1203), (minus, 3021)):
        counts = w.sample_outcomes(dist, shots, seed=seed)
        for label, prob in zip(dist.labels(), dist.probabilities()):
            band = 4.0 * np.sqrt(prob * (1.0 - prob) * shots)
            ok &= abs(counts[label] - prob * shots) <= max(band, 1.0)
    elapsed = time.time() - t0
    assert _report(
        5,
        ok and elapsed < 5.0,
        f"n=3 distributions are exactly (0.8, 0, 0.2) / (0, 0.8, 0.2) to "
        f"1e-10 and 10^5 seeded shots stay within 4-sigma bands ({elapsed:.1f}s)",
    )


def test_criterion_6_product_branch_classifier():
    t0 = time.time()
    plus, minus, chi0, chi1 = exchange_branches()
    verdict = w.classify(plus, minus)
    ok = verdict.kind == "Case2"
    ok &= verdict.cross_condition_residual < 1e-10
    got0, got1 = w.exchange_form(verdict, plus, minus)
    ok &= got0.allclose(chi0, atol=1e-10) and got1.allclose(chi1, atol=1e-10)

    spread = w.GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
    bad = w.BranchSpec(spread, spread)
    bad_verdict = w.classify(bad, bad)
    ok &= bad_verdict.kind == "Infeasible"
    ok &= bad_verdict.violations == ((2, 1),)

    rng = np.random.default_rng(20200613)
    for _ in range(1000):
        p, m, case = random_clean_instance(rng)
        v = w.classify(p, m)
        ok &= v.kind == f"Case{case}"
    elapsed = time.time() - t0
    assert _report(
        6,
        ok and elapsed < 30.0,
        f"exchange instance classifies Case2 with residual < 1e-10 and exact "
        f"pointer recovery, support violators report the exact (nu, mu) "
        f"pairs, and 1000 random clean instances stay within the two-case "
        f"dichotomy ({elapsed:.1f}s)",
    )


def test_criterion_7_postulate_layer():
    def basis(dim, k):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        return v

    obs = w.Observable(
        eigenvalues=[1.0, 2.0],
        eigenspaces=[np.column_stack([basis(3, 0), basis(3, 1)]), basis(3, 2)],
    )
    phi = (basis(3, 0) + basis(3, 1) + np.sqrt(2) * basis(3, 2)) / 2.0
    dist = w.born_distribution(obs, phi)
    ok = abs(dist.probability("1") - 0.5) < 1e-12
    expected_post = (basis(3, 0) + basis(3, 1)) / np.sqrt(2)
    ok &= bool(np.allclose(dist.outcomes[0].post_state, expected_post, atol=1e-12))

    rng = np.random.default_rng(7171)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        q = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )[0]
        n_fam = int(rng.integers(1, dim))
        splits = sorted(rng.choice(range(1, dim), size=n_fam, replace=False))
        families = np.split(q, splits, axis=1)
        obs_k = w.Observable(
            eigenvalues=list(range(len(families))), eigenspaces=families
        )
        phi_k = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi_k /= np.linalg.norm(phi_k)
        total = sum(w.born_distribution(obs_k, phi_k).probabilities())
        ok &= abs(total - 1.0) < 1e-12
    assert _report(
        7,
        ok,
        "degenerate three-level collapse reproduced to 1e-12 and "
        "probabilities sum to 1 within 1e-12 over 1000 random observables",
    )


def test_criterion_8_orthogonality_transfer():
    from test_graded import random_isometry_blocks

    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        sectors = sorted(rng.choice(range(-4, 8), size=3, replace=False).tolist())
        m = random_isometry_blocks(rng, d, sectors, 2)
        inputs = []
        for _ in range(2):
            sec = {}
            for n in sectors:
                dom = m.blocks[n][0]
                coeff = rng.standard_normal(dom.shape[1]) + 1j * rng.standard_normal(
                    dom.shape[1]
                )
                sec[n] = dom @ coeff
            inputs.append(w.GradedVector(d, sec))
        pre, post = w.orthogonality_transfer_check(m, inputs)
        worst = max(worst, float(np.max(np.abs(pre - post))))
    assert _report(
        8,
        worst < 1e-10,
        f"Gram matrices before and after 1000 random conservation-respecting "
        f"isometries agree to 1e-10 (worst {worst:.2e})",
    )
