"""Tests for the product-branch classifier and exchange form."""

import numpy as np
import pytest

from oracles import reference_classify
from waylab.generalized import FINITE_TOL, BranchSpec, classify, exchange_form, support_check
from waylab.graded import GradedVector, inner


def gv(d, sectors):
    return GradedVector(d, sectors)


def sharp(d, nu, k=0, scale=1.0):
    amp = np.zeros(d, dtype=complex)
    amp[k] = scale
    return GradedVector(d, {nu: amp})


def exchange_branches(d=2, theta=0.0):
    """Canonical exchanged-quantum instance with orthonormal chi halves.

    ``theta`` applies a common global phase to both branch outputs.
    """
    psi = sharp(d, 0)
    amp0 = np.zeros(d, dtype=complex)
    amp0[0] = 2**-0.5
    amp1 = np.zeros(d, dtype=complex)
    amp1[1] = 2**-0.5
    chi0 = GradedVector(d, {0: amp0})
    chi1 = GradedVector(d, {1: amp1})
    phase = np.exp(1j * theta)
    plus = BranchSpec(object_part=psi, apparatus_part=phase * (chi0 + chi1))
    minus = BranchSpec(object_part=psi, apparatus_part=phase * (chi0 - chi1))
    return plus, minus, chi0, chi1


class TestSupportCheck:
    def test_case1_pattern_clean(self):
        obj = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        app = sharp(2, 0)
        branch = BranchSpec(obj, app)
        assert support_check(branch, branch) == []

    def test_case2_pattern_clean(self):
        obj = sharp(2, 0)
        app = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        branch = BranchSpec(obj, app)
        assert support_check(branch, branch) == []

    def test_double_spread_violates_at_charge_two(self):
        obj = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        app = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        branch = BranchSpec(obj, app)
        violations = support_check(branch, branch)
        assert (2, 1) in violations

    def test_exhaustive_over_product_support(self):
        rng = np.random.default_rng(6)
        obj = gv(2, {0: rng.standard_normal(2), 2: rng.standard_normal(2)})
        app = gv(2, {0: rng.standard_normal(2), 1: rng.standard_normal(2)})
        branch = BranchSpec(obj, app)
        got = set(support_check(branch, branch))
        expected = set()
        for mu in obj.support():
            for lam in app.support():
                if mu + lam not in (0, 1):
                    expected.add((mu + lam, mu))
        assert got == expected


class TestClassify:
    def test_exchange_instance_is_case2(self):
        plus, minus, _, _ = exchange_branches()
        verdict = classify(plus, minus)
        assert verdict.kind == "Case2"
        assert verdict.cross_condition_residual < 1e-10
        assert verdict.violations == ()
        assert "plus:apparatus:1" in verdict.finite_components

    def test_object_superposition_is_case1(self):
        # The object keeps both charges, the pointer stays sharp but flips
        # direction between branches; the charge-1 parts cancel exactly.
        obj_plus = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        obj_minus = GradedVector(2, {0: [2**-0.5, 0], 1: [-(2**-0.5), 0]})
        app_plus = sharp(2, 0, k=0)
        app_minus = sharp(2, 0, k=0)
        verdict = classify(BranchSpec(obj_plus, app_plus), BranchSpec(obj_minus, app_minus))
        assert verdict.kind == "Case1"
        assert verdict.cross_condition_residual < 1e-10

    def test_support_violation_is_infeasible(self):
        obj = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        app = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        branch = BranchSpec(obj, app)
        verdict = classify(branch, branch)
        assert verdict.kind == "Infeasible"
        assert (2, 1) in verdict.violations

    def test_unbalanced_cross_condition_is_infeasible(self):
        # Clean supports but the charge-1 products do not cancel.
        obj_plus = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        obj_minus = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        verdict = classify(
            BranchSpec(obj_plus, sharp(2, 0)), BranchSpec(obj_minus, sharp(2, 0))
        )
        assert verdict.kind == "Infeasible"
        assert verdict.cross_condition_residual > 0.5

    def test_mixed_patterns_are_infeasible(self):
        case1_branch = BranchSpec(
            GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]}), sharp(2, 0)
        )
        case2_branch = BranchSpec(
            sharp(2, 0), GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        )
        verdict = classify(case1_branch, case2_branch)
        assert verdict.kind == "Infeasible"

    def test_branches_must_be_normalized(self):
        bad = BranchSpec(sharp(2, 0, scale=2.0), sharp(2, 0))
        with pytest.raises(ValueError, match="not normalized"):
            classify(bad, bad)

    def test_verdict_json_contract(self):
        import json

        plus, minus, _, _ = exchange_branches()
        payload = json.loads(classify(plus, minus).to_json())
        assert set(payload) == {
            "kind",
            "finite_components",
            "cross_condition_residual",
            "violations",
        }


def random_clean_instance(rng):
    """Random branch pair as a genuine sharp-apparatus interaction yields.

    One side carries the superposition on charges {0, 1}, the other side
    stays sharp at charge 0; the charge-1 components of the two branches
    cancel exactly and the rotated charge-0 component is arranged so the
    two branch outputs are orthogonal, as unitarity demands.
    """
    d = int(rng.integers(2, 4))

    def rand_vec(scale=1.0):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return scale * v / np.linalg.norm(v)

    def partner(v0, w):
        # vector of squared norm w whose overlap with v0 is exactly 1 - w,
        # making the two branches orthogonal after the sign flip
        unit0 = v0 / np.linalg.norm(v0)
        perp = rand_vec()
        perp -= np.vdot(unit0, perp) * unit0
        perp /= np.linalg.norm(perp)
        along = (1.0 - w) / np.sqrt(w)
        across = np.sqrt(w - along**2)
        return along * unit0 + across * perp

    case = int(rng.integers(1, 3))
    w = rng.uniform(0.55, 0.85)  # dominant charge-0 weight keeps partner real
    if case == 1:
        chi = rand_vec()
        psi0 = rand_vec(np.sqrt(w))
        psi1 = rand_vec(np.sqrt(1 - w))
        plus = BranchSpec(GradedVector(d, {0: psi0, 1: psi1}), GradedVector(d, {0: chi}))
        minus = BranchSpec(
            GradedVector(d, {0: partner(psi0, w), 1: -psi1}), GradedVector(d, {0: chi})
        )
    else:
        psi = rand_vec()
        chi0 = rand_vec(np.sqrt(w))
        chi1 = rand_vec(np.sqrt(1 - w))
        plus = BranchSpec(GradedVector(d, {0: psi}), GradedVector(d, {0: chi0, 1: chi1}))
        minus = BranchSpec(
            GradedVector(d, {0: psi}), GradedVector(d, {0: partner(chi0, w), 1: -chi1})
        )
    return plus, minus, case


class TestDichotomyProperty:
    def test_random_clean_instances_classify_into_two_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            plus, minus, case = random_clean_instance(rng)
            verdict = classify(plus, minus)
            assert verdict.kind == f"Case{case}"
            assert verdict.branch_overlap < 1e-10


def random_branch_pair(rng, tol=FINITE_TOL):
    """Seeded branch pair of a random kind, and that kind's name.

    Kinds: a clean Case 1 or Case 2 instance; one whose charge-1 parts do
    not cancel; a Case 1 branch paired with a Case 2 branch; one part
    spread over random labels in -3..4 with some exactly zero and some
    near the finite-sector cutoff ``tol`` (support violations, zero
    interior rows).
    """
    kind = ["clean", "uncancelled", "mismatched", "scattered"][int(rng.integers(4))]
    plus, minus, case = random_clean_instance(rng)
    if kind == "uncancelled":
        part = "object_part" if case == 1 else "apparatus_part"
        flipped = getattr(minus, part)
        flipped = GradedVector(flipped.d, {0: flipped.sector(0), 1: -flipped.sector(1)})
        minus = BranchSpec(**{**vars(minus), part: flipped})
    elif kind == "mismatched":
        while True:
            other_plus, other_minus, other_case = random_clean_instance(rng)
            if other_case != case and other_plus.object_part.d == plus.object_part.d:
                break
        minus = other_minus
    elif kind == "scattered":
        d = plus.object_part.d
        sectors = {}
        for nu in rng.choice(np.arange(-3, 5), size=int(rng.integers(1, 5)), replace=False):
            scale = [0.0, 1e-5, 3e-5, 1.0][int(rng.integers(4))]
            if scale < 1.0:
                scale *= np.sqrt(tol / FINITE_TOL)
            sectors[int(nu)] = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        vec = GradedVector(d, sectors)
        if vec.is_zero():
            vec = GradedVector(d, {0: np.eye(d)[0]})
        part = ["object_part", "apparatus_part"][int(rng.integers(2))]
        branch = [plus, minus][int(rng.integers(2))]
        replaced = BranchSpec(**{**vars(branch), part: (1.0 / vec.norm()) * vec})
        plus, minus = (replaced, minus) if branch is plus else (plus, replaced)
    return plus, minus, kind


TOLS = [1e-12, 1e-9, 1e-6, 1e-3]


class TestReferenceClassify:
    def test_verdicts_match_reference(self):
        # classify computes each part's finite sectors once; the reference
        # recomputes them for every question it asks
        self.check_against_reference(np.random.default_rng(20261018), {})

    @pytest.mark.parametrize("tol", TOLS)
    def test_verdicts_match_reference_at_tol(self, tol):
        # the finite-sector cutoff and the sqrt(tol) threshold away from the default
        self.check_against_reference(np.random.default_rng(20261019), {"tol": tol})

    @staticmethod
    def check_against_reference(rng, kw):
        seen = set()
        for _ in range(600):
            plus, minus, kind = random_branch_pair(rng, **kw)
            verdict = classify(plus, minus, **kw)
            assert verdict == reference_classify(plus, minus, **kw)
            assert support_check(plus, minus, **kw) == list(verdict.violations)
            if verdict.violations:
                seen.add("violation")
            elif verdict.kind == "Infeasible":
                seen.add(f"infeasible-{kind}")
            else:
                seen.add(verdict.kind)
        assert seen >= {
            "Case1", "Case2", "violation", "infeasible-uncancelled", "infeasible-mismatched",
        }

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_cross_condition_threshold(self, tol, factor):
        # the charge-1 parts miss cancelling by eps = factor * sqrt(tol), at right
        # angles to what they cancel, so renormalizing moves the residual by eps**2
        rng = np.random.default_rng(20261020)
        for _ in range(20):
            plus, minus, case = random_clean_instance(rng)
            part = "object_part" if case == 1 else "apparatus_part"
            vec = getattr(minus, part)
            one = vec.sector(1)
            miss = factor * np.sqrt(tol) * 1j * one / np.linalg.norm(one)
            nudged = GradedVector(vec.d, {0: vec.sector(0), 1: one + miss})
            minus = BranchSpec(**{**vars(minus), part: (1.0 / nudged.norm()) * nudged})
            verdict = classify(plus, minus, tol)
            assert verdict == reference_classify(plus, minus, tol)
            assert verdict.cross_condition_residual == pytest.approx(
                factor * np.sqrt(tol), rel=factor**2 * tol
            )
            assert verdict.kind == (f"Case{case}" if factor < 1 else "Infeasible")


class TestExchangeForm:
    def test_recovers_original_pair(self):
        plus, minus, chi0, chi1 = exchange_branches()
        verdict = classify(plus, minus)
        got0, got1 = exchange_form(verdict, plus, minus)
        assert got0.allclose(chi0, atol=1e-12)
        assert got1.allclose(chi1, atol=1e-12)

    def test_common_phase_covariance(self):
        theta = 0.7
        plus, minus, chi0, chi1 = exchange_branches(theta=theta)
        verdict = classify(plus, minus)
        assert verdict.kind == "Case2"
        got0, got1 = exchange_form(verdict, plus, minus)
        phase = np.exp(1j * theta)
        assert got0.allclose(phase * chi0, atol=1e-12)
        assert got1.allclose(phase * chi1, atol=1e-12)
        assert (got0 + got1).allclose(plus.apparatus_part, atol=1e-10)
        assert (got0 - got1).allclose(minus.apparatus_part, atol=1e-10)

    def test_non_orthogonal_halves_still_reproduce(self):
        # chi0 and chi1 overlap with a purely imaginary inner product, so
        # the branches stay mutually orthogonal (clean Case2 verdict) but
        # the extracted pair is genuinely non-orthogonal; extraction is
        # linear algebra and reproduces the branches regardless, with
        # orthogonality reported separately via the overlap field.
        d = 2
        psi = sharp(d, 0)
        u = np.array([0.6, 0.0], dtype=complex)
        chi0 = GradedVector(d, {0: u})
        chi1 = GradedVector(d, {0: 0.5j * u, 1: [0.5, 0.2]})
        assert abs(inner(chi0, chi1)) > 0.1  # genuinely non-orthogonal
        a_plus = chi0 + chi1
        a_minus = chi0 - chi1
        assert a_plus.norm() == pytest.approx(a_minus.norm(), abs=1e-12)
        scale = 1.0 / a_plus.norm()
        norm_p = BranchSpec(psi, scale * a_plus)
        norm_m = BranchSpec(psi, scale * a_minus)
        verdict = classify(norm_p, norm_m)
        assert verdict.kind == "Case2"
        assert verdict.branch_overlap > 1e-3  # non-unitarity visible separately
        got0, got1 = exchange_form(verdict, norm_p, norm_m)
        assert (got0 + got1).allclose(norm_p.apparatus_part, atol=1e-10)
        assert (got0 - got1).allclose(norm_m.apparatus_part, atol=1e-10)
        assert got0.allclose(scale * chi0, atol=1e-12)

    def test_refuses_a_zero_plus_object_part(self):
        # the phase divides by |p|^2, which raised ZeroDivisionError
        plus, minus, _, _ = exchange_branches()
        verdict = classify(plus, minus)
        assert verdict.kind == "Case2"
        zero = BranchSpec(GradedVector(2), plus.apparatus_part)
        with pytest.raises(ValueError, match="^plus branch has a zero object part"):
            exchange_form(verdict, zero, minus)

    def test_requires_case2(self):
        obj = GradedVector(2, {0: [2**-0.5, 0], 1: [2**-0.5, 0]})
        obj_m = GradedVector(2, {0: [2**-0.5, 0], 1: [-(2**-0.5), 0]})
        plus = BranchSpec(obj, sharp(2, 0))
        minus = BranchSpec(obj_m, sharp(2, 0))
        verdict = classify(plus, minus)
        with pytest.raises(ValueError, match="Case2"):
            exchange_form(verdict, plus, minus)
