"""Tests for the exact-measurement infeasibility analysis."""

import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waylab
from waylab import graded, nogo
from waylab.graded import ObjectState
from waylab.nogo import (
    ExactSchemeData,
    derive_witness,
    exact_constraint_residual,
    infeasibility_certificate,
    rotated_basis_residual,
)
from waylab.optimize import OptimizationError

from oracles import (
    bounded_min_violation,
    brute_force_min_violation,
    build_system_by_rows,
    constraint_entries_by_loops,
    dense_min_norm_solution,
    mp_min_norm_solution,
    project_to_unitarity,
    rational_min_violation,
    violation_by_loops,
)

# Frozen grid+polish oracle values (see oracles.brute_force_min_violation;
# n=1 also has the closed form 10/21 by separating the decoupled blocks).
ORACLE_MIN_VIOLATION = {
    1: 0.476190476190476,
    2: 0.194285714285715,
    3: 0.089171974522294,
    4: 0.047073023537042,
}


# Rotated bases checked against the bounded oracle, with the tolerance of
# that check; at the eigenbasis (beta = 0) the minimum is rounding level.
ROTATED_BASES = [
    (0.8, 0.6, {"rel": 1e-12}),
    (0.6, -0.8j, {"rel": 1e-12}),
    (np.sqrt(1 - 1e-12), 1e-6, {"rel": 1e-12}),
    (1.0, 0.0, {"abs": 1e-12}),
]


EPS = np.finfo(float).eps


def zero_data(n):
    z = np.zeros(n)
    return ExactSchemeData(n=n, x=z, s=z.copy(), t=z.copy(), a=z.copy(), b=z.copy())


def mixing(alpha, beta):
    """``(m, delta)`` of the rotated basis ``(alpha, beta)``."""
    return (abs(alpha) * abs(beta)) ** 2, abs(alpha) ** 2 - abs(beta) ** 2


def violation_of_own_rows(cert):
    """Squared unitarity rows of ``cert.mix`` plus the five squared sums, at its minimizer."""
    d = cert.minimizer
    w = np.stack([d.x, d.s, d.t, d.a, d.b])
    rows = nogo._unitarity_rows(w, *cert.mix)
    sums = w.sum(axis=1) - np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    return float(np.sum(rows**2) + np.sum(sums**2))


class TestExactConstraintResidual:
    def test_all_zero_sequences(self):
        report = exact_constraint_residual(zero_data(3))
        for cid, r in report.entries:
            if cid.startswith("unitary"):
                assert r == 0.0
        assert report.entry("sum-x") == 1.0
        assert report.entry("sum-s") == 1.0
        assert report.entry("sum-t") == 1.0
        assert report.entry("sum-a") == 0.0
        assert report.entry("sum-b") == 0.0

    def test_uniform_x_s_no_t(self):
        n = 5
        u = np.full(n, 1.0 / n)
        data = ExactSchemeData(
            n=n, x=u, s=u.copy(), t=np.zeros(n), a=np.zeros(n), b=np.zeros(n)
        )
        report = exact_constraint_residual(data)
        assert report.entry("sum-t") == pytest.approx(1.0)
        for nu in range(1, n + 1):
            assert report.entry(f"unitary-norm0[{nu}]") == pytest.approx(1 / (2 * n))
            assert report.entry(f"unitary-norm1[{nu + 1}]") == pytest.approx(1 / (2 * n))

    def test_negative_weight_rejected(self):
        n = 2
        data = ExactSchemeData(
            n=n, x=np.array([0.5, -0.1]), s=np.zeros(n), t=np.zeros(n),
            a=np.zeros(n), b=np.zeros(n),
        )
        message = "x[2] = -0.1 is negative; squared norms must be nonnegative"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exact_constraint_residual(data)

    def test_matches_independent_loop_evaluation(self):
        for seed, n in itertools.product((8, 9, 10), (1, 4, 17)):
            rng = np.random.default_rng(seed)
            data = ExactSchemeData(
                n=n,
                x=rng.uniform(0, 1, n), s=rng.uniform(0, 1, n), t=rng.uniform(0, 1, n),
                a=rng.uniform(-0.5, 0.5, n), b=rng.uniform(-0.5, 0.5, n),
            )
            report = exact_constraint_residual(data)
            assert report.sum_squares == pytest.approx(
                violation_by_loops(n, data.x, data.s, data.t, data.a, data.b), abs=1e-12
            )
            expected = constraint_entries_by_loops(data)
            assert [cid for cid, _ in report.entries] == [cid for cid, _ in expected]
            for (cid, got), (_, want) in zip(report.entries, expected):
                assert type(got) is float
                assert got.hex() == want.hex(), (seed, n, cid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_unitarity_rows_for_genuine_isometry_data(self, seed):
        # A genuine graded isometry of the exact form on a finite window
        # necessarily has a vanishing transfer component (the content of
        # the no-go): data with s = 2x, t = 0 realizes one for any
        # nonnegative weights, and every unitarity row vanishes exactly,
        # leaving only the normalization sums in conflict.
        rng = np.random.default_rng(seed)
        n = 6
        x = rng.uniform(0.0, 1.0, n)
        x /= x.sum()
        data = ExactSchemeData(
            n=n, x=x, s=2.0 * x, t=np.zeros(n), a=np.zeros(n), b=np.zeros(n)
        )
        report = exact_constraint_residual(data)
        for cid, r in report.entries:
            if cid.startswith("unitary"):
                assert r == pytest.approx(0.0, abs=1e-14)
        assert report.entry("sum-t") == 1.0

    @pytest.mark.parametrize("name", ["x", "t", "a"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_fails(self, name, value):
        n = 3
        u = np.full(n, 1.0 / n)
        fields = dict(x=u, s=2.0 * u, t=np.zeros(n), a=np.zeros(n), b=np.zeros(n))
        fields[name] = fields[name].copy()
        fields[name][1] = value
        report = exact_constraint_residual(ExactSchemeData(n=n, **fields))
        assert not report.passed(1e-6)


class TestInfeasibilityCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_frozen_oracle(self, n):
        cert = infeasibility_certificate(n)
        expected = ORACLE_MIN_VIOLATION[n]
        assert cert.min_violation == pytest.approx(expected, rel=1e-4)

    def test_matches_live_oracle_n2(self):
        cert = infeasibility_certificate(2)
        assert cert.min_violation == pytest.approx(
            brute_force_min_violation(2), rel=1e-4
        )

    def test_strictly_positive_and_monotone_small(self):
        values = [infeasibility_certificate(n).min_violation for n in range(1, 9)]
        assert all(v > 0 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_minimizer_consistency_with_report(self):
        cert = infeasibility_certificate(2)
        report = exact_constraint_residual(cert.minimizer)
        assert report.sum_squares == pytest.approx(cert.min_violation, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_overlaps_forced_to_zero(self, n):
        cert = infeasibility_certificate(n)
        assert np.max(np.abs(cert.minimizer.a)) < 1e-8
        assert np.max(np.abs(cert.minimizer.b)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_parity_constancy_after_unitarity_projection(self, n):
        # The norm-balance recursion makes t parity-constant; checking it
        # literally requires driving those residuals below 1e-8 first.
        cert = infeasibility_certificate(n)
        proj = project_to_unitarity(cert.minimizer)
        report = exact_constraint_residual(proj)
        unitary = max(r for cid, r in report.entries if cid.startswith("unitary"))
        assert unitary < 1e-8
        for parity in (0, 1):
            vals = [proj.t[i] for i in range(n) if (i + 1) % 2 == parity]
            if len(vals) > 1:
                assert max(vals) - min(vals) < 1e-6

    def test_witness_structure(self):
        w = derive_witness(5)
        assert len(w) == 4
        assert "a[nu] = 0" in w[0]
        assert "parity" in w[1]
        assert "zero" in w[2]
        assert "sum(t) = 1" in w[3]

    def test_json_round_trip(self):
        cert = infeasibility_certificate(2)
        payload = json.loads(cert.to_json())
        assert set(payload) == {"n", "min_violation", "minimizer", "witness"}
        rebuilt = ExactSchemeData.from_dict(payload["minimizer"])
        assert np.allclose(rebuilt.x, cert.minimizer.x)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            infeasibility_certificate(0)

    def test_equality_compares_the_arrays(self):
        cert = infeasibility_certificate(3)
        assert cert == infeasibility_certificate(3)
        assert cert.minimizer == ExactSchemeData.from_dict(cert.minimizer.to_dict())
        assert cert != infeasibility_certificate(4)
        assert cert != rotated_basis_residual(3, ObjectState(0.8, 0.6))
        moved = cert.minimizer.to_dict()
        moved["t"][0] += 1e-3
        assert cert.minimizer != ExactSchemeData.from_dict(moved)
        assert cert.minimizer != zero_data(3) and zero_data(3) != zero_data(4)
        assert cert.minimizer != "data"
        for value in (cert, cert.minimizer):
            with pytest.raises(TypeError):
                hash(value)

    def test_system_size_limit_counts_entries(self, monkeypatch):
        # both solves hold 5n data entries: 170 at n = 34, 175 at n = 35
        monkeypatch.setattr(graded, "_MAX_WINDOW_ENTRIES", 170)
        assert infeasibility_certificate(34).min_violation > 0
        assert rotated_basis_residual(34, ObjectState(0.8, 0.6)).min_violation > 0
        monkeypatch.setattr(nogo, "_unitarity_rows", None)  # refused before any allocation
        for solve in (infeasibility_certificate, lambda n: rotated_basis_residual(n, (0.8, 0.6))):
            with pytest.raises(ValueError, match="5 x 35 data, more than 170 entries"):
                solve(35)


#: The indents certificates are written at; the writer must not read ``" %s"`` as a slot.
_JSON_INDENTS = [None, 0, 2, "\t", " %s"]


class TestCertificateJson:
    """``to_json`` writes its text directly; ``json.dumps(to_dict())`` is the oracle."""

    @pytest.mark.parametrize("indent", _JSON_INDENTS)
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 64, 1000])
    def test_standard_matches_json_dumps(self, n, indent):
        cert = infeasibility_certificate(n)
        assert cert.to_json(indent=indent) == json.dumps(cert.to_dict(), indent=indent)

    @pytest.mark.parametrize("indent", _JSON_INDENTS)
    @pytest.mark.parametrize("alpha, beta", [(a, b) for a, b, _ in ROTATED_BASES])
    def test_rotated_matches_json_dumps(self, alpha, beta, indent):
        # the eigenbasis minimizer holds rounding-level values near 1e-31
        cert = rotated_basis_residual(5, ObjectState(alpha, beta))
        assert cert.to_json(indent=indent) == json.dumps(cert.to_dict(), indent=indent)

    @pytest.mark.parametrize("indent", _JSON_INDENTS)
    def test_signed_zeros_and_non_finite_values(self, indent):
        # -0.0 and 0.0 are written apart although they compare equal
        data = ExactSchemeData(
            n=4,
            x=[0.0, -0.0, 0.0, -0.0],
            s=[math.nan, math.inf, -math.inf, 5e-324],
            t=[0.1, 1e16, 1e-5, 0.1],
            a=[-1.0, 2.5, -1.0, 1e300],
            b=[0.0, 0.0, 0.0, 0.0],
        )
        cert = nogo.InfeasibilityCertificate(4, math.nan, data, ("quote \" and \u00e9", "x"))
        assert cert.to_json(indent=indent) == json.dumps(cert.to_dict(), indent=indent)


class TestBoundedOracle:
    """The minimum-norm solve against the bounded solve it replaced."""

    def test_certificates_match(self):
        for n in range(1, 65):
            cert = infeasibility_certificate(n)
            expected = bounded_min_violation(n)
            assert cert.min_violation == pytest.approx(expected, rel=1e-12), n
            residual = exact_constraint_residual(cert.minimizer).sum_squares
            assert residual == pytest.approx(cert.min_violation, rel=1e-9), n

    @pytest.mark.parametrize("alpha,beta,tol", ROTATED_BASES)
    def test_rotated_bases_match(self, alpha, beta, tol):
        row_tol = {"abs": 1e-20} if beta == 0 else {"rel": 1e-9}
        for n in (4, 16, 64):
            cert = rotated_basis_residual(n, ObjectState(alpha, beta))
            expected = bounded_min_violation(n, *cert.mix)
            assert cert.min_violation == pytest.approx(expected, **tol), n
            own = violation_of_own_rows(cert)
            assert own == pytest.approx(cert.min_violation, **row_tol), n

    @pytest.mark.parametrize(
        "mix", [(0.25, 0.0)] + [mixing(alpha, beta) for alpha, beta, _ in ROTATED_BASES]
    )
    def test_system_matches_row_by_row_builder(self, mix):
        # the block solve's rows as the module docstring states them, in p = u - t/2, a
        # and e[nu] = t[nu] - t[nu-1], on data with any v and b = 0; against the rows
        # as stated once and as the row-by-row builder writes them
        m, delta = mix
        g = 2.0 * np.sqrt(m)
        rng = np.random.default_rng(13)
        for n in (1, 2, 7, 64):
            u, v, t, a = rng.uniform(-1.0, 1.0, (4, n))
            w = np.stack([(4.0 * u + v) / 5.0, 2.0 * (v - u) / 5.0, t, a, np.zeros(n)])
            p, a, t = (np.pad(q, 1) for q in (u - t / 2.0, a, t))
            e = t[1:] - t[:-1]
            reduced = np.stack([
                p[1:] - delta * a[1:] + 2.0 * m * e,
                p[:-1] + delta * a[:-1] - 2.0 * m * e,
                g * (a[1:] + a[:-1] + delta * e),
                np.zeros(n + 1),
            ])
            assert np.max(np.abs(nogo._unitarity_rows(w, m, delta) - reduced)) <= 4 * EPS, n
            a_mat, _ = build_system_by_rows(n, m, delta)
            by_rows = (a_mat[: 4 * n + 4] @ w.ravel()).reshape(n + 1, 4).T
            assert np.max(np.abs(by_rows - reduced)) <= 8 * EPS, n

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_minimizer_is_minimum_norm(self, n):
        # the optimal set is the minimizer plus {s = 2x, t = a = b = 0,
        # sum x = 0}; the minimum-norm point is orthogonal to it
        data = infeasibility_certificate(n).minimizer
        assert np.ptp(data.x + 2.0 * data.s) <= 1e-12

    def test_negative_solution_raises(self, monkeypatch):
        # a sum-x target of -1 drives x negative in the chain and the dense solve
        monkeypatch.setattr(nogo, "_SUM_TARGETS", (-1.0, 1.0, 1.0, 0.0, 0.0))
        for solve in (
            infeasibility_certificate,
            lambda n: rotated_basis_residual(n, ObjectState(0.8, 0.6)),
        ):
            with pytest.raises(OptimizationError, match="negative") as info:
                solve(3)
            assert np.min(info.value.best.x) < 0


class TestParityChainSolve:
    """The O(n) standard solve against the dense solve it replaced and the exact minimum."""

    @staticmethod
    def assert_matches_dense(n):
        cert = infeasibility_certificate(n)
        w, value = cached_dense(n, 0.25, 0.0)
        d = cert.minimizer
        got = np.stack([d.x, d.s, d.t, d.a, d.b])
        assert cert.min_violation == pytest.approx(value, rel=1e-12), n
        assert np.max(np.abs(got - w)) <= 1e-12, n

    def test_matches_dense_oracle(self):
        for n in range(1, 65):
            self.assert_matches_dense(n)

    @pytest.mark.parametrize("n", [128, 512, 914])
    def test_matches_dense_oracle_large(self, n):
        self.assert_matches_dense(n)

    def test_matches_rational_formula(self):
        for n in range(1, 65):
            exact = rational_min_violation(n)
            assert infeasibility_certificate(n).min_violation == pytest.approx(
                float(exact), rel=1e-12
            ), n

    @pytest.mark.parametrize("n", [10**3, 10**4])
    def test_matches_rational_formula_large(self, n):
        cert = infeasibility_certificate(n)
        assert cert.min_violation == pytest.approx(float(rational_min_violation(n)), rel=1e-12)
        assert np.ptp(cert.minimizer.x + 2.0 * cert.minimizer.s) <= 1e-15

    @pytest.mark.parametrize("targets", [(2.0, 0.5, 3.0), (0.3, 1.0, -1.0)])
    def test_other_sum_targets_match_dense(self, monkeypatch, targets):
        # both solves read their targets; the dense lstsq of the same system agrees
        targets = (*targets, 0.0, 0.0)
        monkeypatch.setattr(nogo, "_SUM_TARGETS", targets)
        for n in (1, 2, 7, 16):
            dense, _ = dense_min_norm_solution(n, targets=targets)
            assert np.max(np.abs(nogo._parity_chain_minimizer(n) - dense)) <= 1e-13, n
            for mix in ((0.25, 0.0), mixing(0.8, 0.6)):
                dense, _ = dense_min_norm_solution(n, *mix, targets)
                assert np.max(np.abs(nogo._block_minimizer(n, *mix) - dense)) <= 1e-13, n


#: Bases of the block-solve accuracy checks: ``(alpha, beta, value tolerance)``; the
#: standard mixing ``(1/4, 0)`` is checked beside them.
BLOCK_BASES = ROTATED_BASES + [
    (2**-0.5, 2**-0.5, {"rel": 1e-12}),
    (0.6, 0.8, {"rel": 1e-12}),
    (np.sqrt(1 - 1e-6), 1e-3, {"rel": 1e-12}),
]

#: ``|beta|`` of the grid towards the eigenbasis; ``1e-170`` gives ``m = 0`` exactly.
NEAR_EIGENBASIS = [1e-4, 1e-8, 1e-10, 1e-11, 1e-13, 1e-15, 1e-20, 1e-160, 1e-170]


@functools.lru_cache(maxsize=None)
def cached_dense(n, m, delta):
    return dense_min_norm_solution(n, m, delta)


def block_certificate(n, mix):
    return nogo._certificate(nogo._block_minimizer(n, *mix), *mix)


class TestBlockSolve:
    """The O(n) solve of every basis against the dense ``lstsq`` and the 80-digit oracle."""

    @pytest.mark.parametrize(
        "mix, tol",
        [((0.25, 0.0), {"rel": 1e-12})] + [(mixing(a, b), tol) for a, b, tol in BLOCK_BASES],
    )
    def test_matches_dense_oracle(self, mix, tol):
        for n in range(1, 65):
            cert = block_certificate(n, mix)
            w, value = cached_dense(n, *mix)
            assert cert.min_violation == pytest.approx(value, **tol), n
            if mix[0] > 1e-7:  # m of beta = 1e-3 is 1e-6 (1 - 1e-6); below it, see the mp oracle
                d = cert.minimizer
                got = np.stack([d.x, d.s, d.t, d.a, d.b])
                assert np.max(np.abs(got - w)) <= 1e-12, n

    # every basis with m >= 1e-6 but that of beta = 1e-3 (below); (0.6, -0.8j) mixes as (0.6, 0.8)
    @pytest.mark.parametrize(
        "mix", [(0.25, 0.0), mixing(2**-0.5, 2**-0.5), mixing(0.8, 0.6), mixing(0.6, 0.8)]
    )
    def test_matches_dense_oracle_large(self, mix):
        cert = block_certificate(512, mix)
        assert cert.min_violation == pytest.approx(cached_dense(512, *mix)[1], rel=1e-12)

    @pytest.mark.parametrize("beta, n", [(1e-6, 16), (1e-6, 512), (1e-3, 512)])
    def test_matches_mp_oracle(self, beta, n):
        # where lstsq is off: its value at n = 512, its minimizer at m = 1e-12, which
        # the data fix only to about eps/sqrt(m)
        m, delta = mix = mixing(np.sqrt(1 - beta**2), beta)
        cert = block_certificate(n, mix)
        w, value = mp_min_norm_solution(n, m, delta)
        assert cert.min_violation == pytest.approx(value, rel=1e-12)
        if n <= 64:
            d = cert.minimizer
            got = np.stack([d.x, d.s, d.t, d.a, d.b])
            assert np.max(np.abs(got - w)) <= EPS / np.sqrt(m)

    @pytest.mark.parametrize("n", [10**3, 10**4])
    def test_standard_mixing_matches_rational_formula(self, n):
        cert = block_certificate(n, (0.25, 0.0))
        assert cert.min_violation == pytest.approx(float(rational_min_violation(n)), rel=1e-12)

    @pytest.mark.parametrize("beta", NEAR_EIGENBASIS)
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_towards_the_eigenbasis(self, beta, n):
        # as m -> 0 the shape of t sinks below rounding; the damped solve stays
        # finite, nonnegative and at the minimum to within 1e-20
        cert = rotated_basis_residual(n, ObjectState(np.sqrt(1 - beta**2), beta))
        d = cert.minimizer
        got = np.stack([d.x, d.s, d.t, d.a, d.b])
        assert np.all(np.isfinite(got)) and np.min(got[:3]) >= 0
        assert violation_of_own_rows(cert) == pytest.approx(cert.min_violation, rel=1e-15)
        _, value = dense_min_norm_solution(n, *cert.mix)
        assert abs(cert.min_violation - value) <= 1e-12 * value + 1e-20


def test_import_does_not_load_scipy():
    src = Path(waylab.__file__).resolve().parents[1]
    probe = (
        "import sys, waylab; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


class TestRotatedBasis:
    def test_eigenbasis_is_exactly_measurable(self):
        cert = rotated_basis_residual(3, ObjectState(1.0, 0.0))
        assert cert.min_violation == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_standard_certificate(self):
        amp = 2**-0.5
        rot = rotated_basis_residual(2, ObjectState(amp, amp))
        std = infeasibility_certificate(2)
        assert rot.min_violation == pytest.approx(std.min_violation, abs=1e-12)

    def test_phase_covariance(self):
        amp = 2**-0.5
        real_rot = rotated_basis_residual(2, ObjectState(amp, amp))
        imag_rot = rotated_basis_residual(2, ObjectState(amp, 1j * amp))
        assert imag_rot.min_violation == pytest.approx(
            real_rot.min_violation, abs=1e-12
        )

    @pytest.mark.parametrize("alpha,beta", [(0.8, 0.6), (0.6, -0.8j)])
    def test_general_rotation_strictly_positive(self, alpha, beta):
        cert = rotated_basis_residual(3, ObjectState(alpha, beta))
        assert cert.min_violation > 1e-6

    def test_requires_normalized_object(self):
        for obj in (ObjectState(1.0, 1.0), ObjectState(1e200, 1e200)):  # the second squares to inf
            with pytest.raises(ValueError, match="not normalized"):
                rotated_basis_residual(2, obj)
