"""Tests for the charge-graded vector algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab.graded import (
    BlockMap,
    ConstraintReport,
    GradedVector,
    ObjectState,
    charge_expectation,
    check_conserving,
    inner,
    orthogonality_transfer_check,
    split_object_components,
    tensor,
)


def unit(d, nu, k=0):
    amp = np.zeros(d)
    amp[k] = 1.0
    return GradedVector(d, {nu: amp})


def random_graded(rng, d, sectors):
    return GradedVector(
        d,
        {nu: rng.standard_normal(d) + 1j * rng.standard_normal(d) for nu in sectors},
    )


class TestGradedVector:
    def test_norm2_is_sum_of_sector_norms(self):
        rng = np.random.default_rng(3)
        v = random_graded(rng, 3, [0, 2, 5])
        direct = sum(
            float(np.vdot(v.sector(nu), v.sector(nu)).real) for nu in (0, 2, 5)
        )
        assert v.norm2() == pytest.approx(direct, abs=1e-14)

    def test_zero_sectors_dropped(self):
        v = GradedVector(2, {0: [1, 0], 3: [0, 0]})
        assert v.support() == (0,)
        assert v == GradedVector(2, {0: [1, 0]})

    def test_sector_shape_checked(self):
        with pytest.raises(ValueError, match="sector 1"):
            GradedVector(2, {1: [1.0, 0.0, 0.0]})

    def test_arithmetic(self):
        u = unit(2, 1)
        v = unit(2, 2)
        w = 2.0 * u + v - u
        assert w.sector(1)[0] == pytest.approx(1.0)
        assert w.sector(2)[0] == pytest.approx(1.0)

    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        v = random_graded(rng, 2, [-1, 0, 4])
        again = GradedVector.from_dict(v.to_dict())
        assert again == v


class TestInner:
    def test_unit_vector_normalization(self):
        u = unit(2, 3)
        assert inner(u, u) == 1 + 0j

    def test_disjoint_sectors_orthogonal(self):
        assert inner(unit(2, 2), unit(2, 5)) == 0j

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner(unit(2, 0), unit(3, 0))

    def test_conjugate_linear_in_first_argument(self):
        u = unit(2, 1)
        v = unit(2, 1)
        assert inner((2j) * u, v) == pytest.approx(-2j)
        assert inner(u, (2j) * v) == pytest.approx(2j)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry_linearity_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        u = random_graded(rng, 2, [0, 1, 3])
        v = random_graded(rng, 2, [1, 2, 3])
        w = random_graded(rng, 2, [0, 3])
        a = complex(rng.standard_normal(), rng.standard_normal())
        assert inner(u, v) == pytest.approx(np.conj(inner(v, u)))
        assert inner(u, a * v + w) == pytest.approx(a * inner(u, v) + inner(u, w))
        assert abs(inner(u, v)) <= u.norm() * v.norm() + 1e-12


class TestTensor:
    def test_charge_zero_object_keeps_sector(self):
        joint = tensor(ObjectState(1, 0), unit(2, 4))
        assert joint.support() == (4,)
        assert joint.norm2() == pytest.approx(1.0)
        assert joint.sector(4)[0] == pytest.approx(1.0)

    def test_charge_one_object_raises_sector(self):
        joint = tensor(ObjectState(0, 1), unit(2, 4))
        assert joint.support() == (5,)
        # object-charge-1 block occupies the second half of the slot
        assert joint.sector(5)[2] == pytest.approx(1.0)

    def test_uniform_two_sector_apparatus(self):
        amp = 2**-0.5
        app = GradedVector(2, {1: [amp, 0], 2: [amp, 0]})
        joint = tensor(ObjectState(2**-0.5, 2**-0.5), app)
        assert joint.support() == (1, 2, 3)
        assert joint.norm() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_grading_adds_exhaustively(self, seed):
        rng = np.random.default_rng(seed)
        app = random_graded(rng, 2, [-2, 0, 3])
        obj = ObjectState(complex(rng.standard_normal()), complex(rng.standard_normal()))
        joint = tensor(obj, app)
        a0, a1 = split_object_components(joint, 2)
        for nu in joint.support():
            head = joint.sector(nu)[:2]
            tail = joint.sector(nu)[2:]
            if np.any(head != 0):
                np.testing.assert_allclose(head, obj.amp0 * app.sector(nu))
            if np.any(tail != 0):
                np.testing.assert_allclose(tail, obj.amp1 * app.sector(nu - 1))
        assert a0.allclose(obj.amp0 * app)
        assert a1.allclose(obj.amp1 * app)
        assert joint.norm() == pytest.approx(
            np.sqrt(obj.norm2()) * app.norm(), abs=1e-12
        )


class TestChargeExpectation:
    def test_sharp_sector(self):
        assert charge_expectation(unit(2, 7)) == pytest.approx(7.0)

    def test_uniform_weights_give_midpoint(self):
        n = 6
        v = GradedVector(2, {nu: [n**-0.5, 0] for nu in range(1, n + 1)})
        assert charge_expectation(v) == pytest.approx((n + 1) / 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            charge_expectation(GradedVector(2, {}))

    def test_object_charge_shifts_expectation_by_one(self):
        rng = np.random.default_rng(5)
        app = random_graded(rng, 2, [1, 2, 3])
        up = tensor(ObjectState(0, 1), app)
        down = tensor(ObjectState(1, 0), app)
        assert charge_expectation(up) - charge_expectation(down) == pytest.approx(1.0)


def random_isometry_blocks(rng, d, sectors, cols):
    """Conservation-respecting isometry with orthonormal domain columns."""
    blocks = {}
    for n in sectors:
        m = min(cols, d)
        dom = np.linalg.qr(
            rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        )[0]
        img = np.linalg.qr(
            rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        )[0]
        blocks[n] = (dom, img)
    return BlockMap(d, blocks)


class TestBlockMap:
    def test_identity_blocks_have_zero_residuals(self):
        eye = np.eye(3, dtype=complex)
        m = BlockMap(3, {0: (eye, eye), 1: (eye, eye)})
        assert check_conserving(m).max_residual == 0.0

    def test_scaled_column_isometry_defect(self):
        eye = np.eye(2, dtype=complex)
        img = eye.copy()
        img[:, 0] *= 1.1
        m = BlockMap(2, {0: (eye, img)})
        defect = check_conserving(m).entry("isometry[0]")
        assert defect == pytest.approx(1.1**2 - 1.0, abs=1e-12)

    def test_apply_outside_domain_rejected(self):
        dom = np.array([[1.0], [0.0]], dtype=complex)
        m = BlockMap(2, {0: (dom, dom)})
        with pytest.raises(ValueError, match="outside the declared domain"):
            m.apply(unit(2, 0, k=1))
        with pytest.raises(ValueError, match="outside the declared domain"):
            m.apply(unit(2, 5))

    def test_phase_invariance_of_residuals(self):
        rng = np.random.default_rng(9)
        m = random_isometry_blocks(rng, 3, [0, 1], 2)
        base = check_conserving(m).max_residual
        phase = np.exp(0.7j)
        rotated = {}
        for n, (dom, img) in m.blocks.items():
            dom2, img2 = dom.copy(), img.copy()
            dom2[:, 0] *= phase
            img2[:, 0] *= phase
            rotated[n] = (dom2, img2)
        assert check_conserving(BlockMap(3, rotated)).max_residual == pytest.approx(
            base, abs=1e-12
        )

    def test_completed_blocks_are_unitary(self):
        rng = np.random.default_rng(21)
        m = random_isometry_blocks(rng, 3, [0, 2], 2)
        full = m.completed()
        for n, (dom, img) in full.blocks.items():
            np.testing.assert_allclose(
                dom.conj().T @ dom, np.eye(3), atol=1e-10
            )
            np.testing.assert_allclose(
                img.conj().T @ img, np.eye(3), atol=1e-10
            )
        # the completion still maps the original domain the same way
        v = GradedVector(3, {0: m.blocks[0][0][:, 0]})
        assert full.apply(v).allclose(m.apply(v))


class TestConstraintReport:
    def test_nan_residual_never_passes(self):
        # a NaN after the first entry: built-in max() would skip it
        report = ConstraintReport((("a", 1e-16), ("b", float("nan")), ("c", 0.0)))
        assert np.isnan(report.max_residual)
        assert not report.passed()
        assert not report.passed(np.inf)
        assert ConstraintReport((("a", 0.0), ("b", np.inf))).max_residual == np.inf
        assert ConstraintReport(()).passed()


class TestOrthogonalityTransfer:
    def test_orthonormal_inputs_stay_orthonormal(self):
        rng = np.random.default_rng(2)
        m = random_isometry_blocks(rng, 4, [0, 1, 2], 2)
        u = GradedVector(4, {0: m.blocks[0][0][:, 0]})
        v = GradedVector(4, {1: m.blocks[1][0][:, 1]})
        pre, post = orthogonality_transfer_check(m, [u, v])
        np.testing.assert_allclose(pre, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(post, np.eye(2), atol=1e-10)

    def test_overlapping_inputs_keep_overlap(self):
        rng = np.random.default_rng(4)
        m = random_isometry_blocks(rng, 2, [0], 2)
        dom = m.blocks[0][0]
        u = GradedVector(2, {0: dom[:, 0]})
        v = GradedVector(2, {0: 0.3 * dom[:, 0] + np.sqrt(1 - 0.09) * dom[:, 1]})
        pre, post = orthogonality_transfer_check(m, [u, v])
        assert pre[0, 1] == pytest.approx(0.3, abs=1e-12)
        assert post[0, 1] == pytest.approx(0.3, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gram_matrices_agree_for_random_isometries(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        sectors = sorted(rng.choice(range(-3, 6), size=3, replace=False).tolist())
        m = random_isometry_blocks(rng, d, sectors, 2)
        inputs = []
        for _ in range(3):
            sec = {}
            for n in sectors:
                dom = m.blocks[n][0]
                coeff = rng.standard_normal(dom.shape[1]) + 1j * rng.standard_normal(
                    dom.shape[1]
                )
                sec[n] = dom @ coeff
            inputs.append(GradedVector(d, sec))
        pre, post = orthogonality_transfer_check(m, inputs)
        np.testing.assert_allclose(pre, post, atol=1e-10)
