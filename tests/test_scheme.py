"""Tests for the canonical approximate measurement scheme."""

from fractions import Fraction

import gc
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_interaction_blocks
from waylab import graded, scheme
from waylab.graded import GradedVector, ObjectState, check_conserving, inner, tensor
from waylab.scheme import (
    ApproxScheme,
    apply_interaction,
    build_canonical_scheme,
    canonical_weights,
    derived_pointers,
    interaction_blocks,
    scheme_error,
    validate_scheme,
)


class TestCanonicalWeights:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 10000])
    def test_exact_error_law(self, n):
        c, cp = canonical_weights(n)
        assert cp == Fraction(1, 2 * n - 1)
        assert n * (c + cp) == 1

    def test_n3_values(self):
        c, cp = canonical_weights(3)
        assert cp == Fraction(1, 5)
        assert c == Fraction(2, 15)


class TestBuild:
    def test_n3_constants(self):
        s = build_canonical_scheme(3)
        assert s.cprime == pytest.approx(0.2, abs=1e-15)
        assert s.c == pytest.approx(2 / 15, abs=1e-15)
        assert scheme_error(s) == pytest.approx(0.2, abs=1e-12)

    def test_n1_degenerate_limit(self):
        s = build_canonical_scheme(1)
        assert s.cprime == 1.0
        assert s.c == 0.0
        assert scheme_error(s) == pytest.approx(1.0, abs=1e-12)

    def test_n1000_error(self):
        s = build_canonical_scheme(1000)
        assert scheme_error(s) == pytest.approx(1 / 1999, abs=1e-12)

    def test_support_windows(self):
        n = 5
        s = build_canonical_scheme(n)
        assert s.xi.support() == tuple(range(1, n + 1))
        assert s.sigma.support() == tuple(range(1, n + 1))
        assert s.rho.support() == tuple(range(0, n))
        assert s.tau.support() == tuple(range(2, n + 2))

    def test_small_d_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            build_canonical_scheme(3, d=1)

    def test_apparatus_state_normalized(self):
        s = build_canonical_scheme(3)
        assert inner(s.xi, s.xi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7])
    def test_json_round_trip_bit_exact(self, n):
        s = build_canonical_scheme(n)
        again = ApproxScheme.from_json(s.to_json())
        assert again == s

    @pytest.mark.parametrize("n", [2, 3, 5, 17])
    def test_error_law_all_n(self, n):
        s = build_canonical_scheme(n)
        assert scheme_error(s) == pytest.approx(1 / (2 * n - 1), abs=1e-12)


class TestValidate:
    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    def test_canonical_scheme_validates(self, n):
        report = validate_scheme(build_canonical_scheme(n))
        assert report.max_residual < 1e-12

    def test_scaled_sigma_breaks_pointer_overlap(self):
        s = build_canonical_scheme(4)
        sectors = {nu: s.sigma.sector(nu) for nu in s.sigma.support()}
        sectors[1] = 2.0 * sectors[1]
        bad = ApproxScheme(
            n=s.n, d=s.d, xi=s.xi, sigma=GradedVector(s.d, sectors),
            tau=s.tau, rho=s.rho, c=s.c, cprime=s.cprime,
        )
        report = validate_scheme(bad)
        # scaling sigma_1 by 2 adds 3c to the sigma total, 12c to the overlap
        assert report.entry("overlap-pointers") == pytest.approx(12 * s.c, abs=1e-12)

    def test_dropped_rho_breaks_weight_split(self):
        s = build_canonical_scheme(4)
        bad = ApproxScheme(
            n=s.n, d=s.d, xi=s.xi, sigma=s.sigma, tau=s.tau,
            rho=GradedVector(s.d, {}), c=s.c, cprime=s.cprime,
        )
        report = validate_scheme(bad)
        rho_side = report.filter("weights-rho")
        tau_side = report.filter("weights-tau")
        assert rho_side.max_residual > 0.1 * s.cprime
        assert tau_side.max_residual < 1e-12

    def test_global_residuals_do_not_drift_at_large_n(self):
        report = validate_scheme(build_canonical_scheme(100_000))
        for cid in ("norm-xi", "overlap-pointers", "overlap-eta-sigma", "overlap-eta-pointer"):
            assert report.entry(cid) <= 1e-14, cid

    def test_residuals_do_not_drift_at_a_million_sectors(self):
        # 3 * 10^6 residuals held as one float array: about 1 s and 0.5 GB peak
        assert validate_scheme(build_canonical_scheme(10**6)).max_residual <= 1e-14

    @pytest.mark.parametrize("value", [np.inf, 1e300])
    def test_overflowing_amplitude_reports_fail(self, value):
        # inf - inf inside a global sum makes math.fsum raise; the report
        # must still come back, and fail
        s = build_canonical_scheme(4)
        sectors = dict(s.sigma.items())
        sectors[2] = np.array([value, 0.0])
        bad = ApproxScheme(
            n=s.n, d=s.d, xi=s.xi, sigma=GradedVector(s.d, sectors),
            tau=s.tau, rho=s.rho, c=s.c, cprime=s.cprime,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not validate_scheme(bad).passed()

    def test_span_wider_than_one_window_rejected(self):
        s = build_canonical_scheme(3)
        far = GradedVector(s.d, {2**40: [1.0, 0.0]})
        with pytest.raises(ValueError, match="span"):
            validate_scheme(ApproxScheme(
                n=s.n, d=s.d, xi=s.xi, sigma=s.sigma, tau=far, rho=s.rho,
                c=s.c, cprime=s.cprime,
            ))

    def test_oversized_n_refused_before_building(self, monkeypatch):
        # validation reads sectors -2..n+3: 2 (n + 6) = 20 entries at n = 4, d = 2
        monkeypatch.setattr(graded, "_MAX_WINDOW_ENTRIES", 20)
        assert validate_scheme(build_canonical_scheme(4)).passed()
        monkeypatch.setattr(scheme, "canonical_weights", None)  # the first step of a build
        with pytest.raises(ValueError, match="n = 5 at dimension 2 .* 20 entries"):
            build_canonical_scheme(5)
        with pytest.raises(ValueError, match="n = 2 at dimension 3 .* 20 entries"):
            build_canonical_scheme(2, d=3)

    def test_n1_fails_structurally(self):
        # No charge-respecting isometry realizes the degenerate limit.
        report = validate_scheme(build_canonical_scheme(1))
        assert report.max_residual > 0.5


class TestDerivedPointers:
    def test_n3_norms_and_orthogonality(self):
        p = derived_pointers(build_canonical_scheme(3))
        assert p.chi.norm2() == pytest.approx(0.8, abs=1e-12)
        assert p.eta.norm2() == pytest.approx(0.2, abs=1e-12)
        assert abs(inner(p.chi, p.chiprime)) < 1e-12
        assert abs(inner(p.chi, p.eta)) < 1e-12
        assert abs(inner(p.chiprime, p.eta)) < 1e-12

    def test_n2_chi_norm(self):
        p = derived_pointers(build_canonical_scheme(2))
        assert p.chi.norm2() == pytest.approx(2 / 3, abs=1e-12)

    def test_equal_transfer_amplitudes_kill_eta(self):
        s = build_canonical_scheme(4)
        merged = ApproxScheme(
            n=s.n, d=s.d, xi=s.xi, sigma=s.sigma, tau=s.rho, rho=s.rho,
            c=s.c, cprime=s.cprime,
        )
        p = derived_pointers(merged)
        assert p.eta.is_zero()
        assert (p.chi - p.chiprime).allclose(s.rho + s.rho)
        assert scheme_error(merged) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_completeness(self, n):
        p = derived_pointers(build_canonical_scheme(n))
        assert p.chi.norm2() + p.eta.norm2() == pytest.approx(1.0, abs=1e-12)


class TestApplyInteraction:
    def test_charge_zero_object(self):
        s = build_canonical_scheme(3)
        out = apply_interaction(s, ObjectState(1, 0))
        expected = tensor(ObjectState(1, 0), s.sigma) + tensor(ObjectState(0, 1), s.rho)
        assert out.allclose(expected, atol=1e-12)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_overlap_with_chi(self):
        s = build_canonical_scheme(3)
        p = derived_pointers(s)
        amp = 2**-0.5
        out = apply_interaction(s, ObjectState(amp, amp))
        chi_hat = (1.0 / p.chi.norm()) * p.chi
        branch = tensor(ObjectState(amp, amp), chi_hat)
        assert abs(inner(branch, out)) ** 2 == pytest.approx(0.8, abs=1e-12)

    def test_minus_state_orthogonal_to_chi(self):
        s = build_canonical_scheme(3)
        p = derived_pointers(s)
        amp = 2**-0.5
        out = apply_interaction(s, ObjectState(amp, -amp))
        chi_hat = (1.0 / p.chi.norm()) * p.chi
        branch = tensor(ObjectState(amp, amp), chi_hat)
        assert abs(inner(branch, out)) ** 2 < 1e-12

    @pytest.mark.parametrize("name", ["xi", "sigma", "tau", "rho"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_amplitude_refused(self, name, value):
        s = build_canonical_scheme(3)
        vec = getattr(s, name)
        sectors = dict(vec.items())
        nu = vec.support()[-1]
        sectors[nu] = sectors[nu] + value
        bad = ApproxScheme(**{**s.__dict__, name: GradedVector(s.d, sectors)})
        with pytest.raises(ValueError, match=f"scheme vector {name} has non-finite"):
            apply_interaction(bad, ObjectState(1, 0))

    def test_requires_normalized_object(self):
        s = build_canonical_scheme(2)
        with pytest.raises(ValueError, match="not normalized"):
            apply_interaction(s, ObjectState(1.0, 0.5))

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pointer_decomposition(self, n, sign):
        # The output at (psi0 +/- psi1)/sqrt(2) splits exactly into the
        # matching pointer branch plus the error branch with sign flip.
        s = build_canonical_scheme(n)
        p = derived_pointers(s)
        amp = 2**-0.5
        out = apply_interaction(s, ObjectState(amp, sign * amp))
        pointer = p.chi if sign > 0 else p.chiprime
        expected = tensor(ObjectState(amp, sign * amp), pointer) + tensor(
            ObjectState(amp, -sign * amp), sign * p.eta
        )
        assert out.allclose(expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5])
    def test_norm_and_grading_preserved(self, n):
        rng = np.random.default_rng(n)
        s = build_canonical_scheme(n)
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        out = apply_interaction(s, ObjectState(raw[0], raw[1]))
        assert out.norm() == pytest.approx(1.0, abs=1e-10)
        # joint support lies within the input's total-charge range 1..n+1
        assert set(out.support()) <= set(range(1, n + 2))

    def test_charge_bookkeeping_difference_of_one(self):
        from waylab.graded import charge_expectation

        s = build_canonical_scheme(4)
        up_in = tensor(ObjectState(0, 1), s.xi)
        down_in = tensor(ObjectState(1, 0), s.xi)
        up_out = apply_interaction(s, ObjectState(0, 1))
        down_out = apply_interaction(s, ObjectState(1, 0))
        assert charge_expectation(up_in) - charge_expectation(down_in) == pytest.approx(1.0)
        assert charge_expectation(up_out) - charge_expectation(down_out) == pytest.approx(
            1.0, abs=1e-10
        )


class TestInteractionBlocks:
    @pytest.mark.parametrize("n", [2, 5])
    def test_blocks_are_isometric(self, n):
        from waylab.graded import check_conserving

        m = interaction_blocks(build_canonical_scheme(n))
        assert check_conserving(m).max_residual < 1e-12

    def test_block_action_matches_interaction(self):
        s = build_canonical_scheme(3)
        m = interaction_blocks(s)
        joint_in = tensor(ObjectState(1, 0), s.xi)
        out = m.apply(joint_in)
        assert out.allclose(apply_interaction(s, ObjectState(1, 0)), atol=1e-10)

    def test_unitarity_transfers_pointer_orthogonality(self):
        from waylab.graded import orthogonality_transfer_check

        s = build_canonical_scheme(4)
        m = interaction_blocks(s)
        inputs = [tensor(ObjectState(1, 0), s.xi), tensor(ObjectState(0, 1), s.xi)]
        pre, post = orthogonality_transfer_check(m, inputs)
        np.testing.assert_allclose(pre, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(post, np.eye(2), atol=1e-10)

    def test_stacked_blocks_equal_per_charge_loop(self):
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            s = random_complex_scheme(rng, int(rng.integers(1, 12)), int(rng.integers(2, 4)))
            blocks = interaction_blocks(s).blocks
            ref = loop_interaction_blocks(s)
            assert list(blocks) == list(ref)
            for total, (dom, img) in ref.items():
                np.testing.assert_array_equal(blocks[total][0], dom)
                np.testing.assert_array_equal(blocks[total][1], img)


def random_complex_scheme(rng, n, d, zero_fraction=0.2):
    """Scheme-shaped data with random complex sectors, some exactly zero."""

    def vector(lo):
        amps = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        amps[rng.random(n) < zero_fraction] = 0.0
        return GradedVector.from_window(lo, amps)

    return ApproxScheme(
        n=n, d=d, xi=vector(1), sigma=vector(1), tau=vector(2), rho=vector(0),
        c=0.0, cprime=0.0,
    )


class TestIsometryCoverage:
    def test_block_defects_are_maxima_of_report_entries(self):
        # validate_scheme has no isometry pass of its own: block N's defect
        # must be the largest report entry among those its columns touch.
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            s = random_complex_scheme(rng, int(rng.integers(1, 12)), int(rng.integers(2, 4)))
            report = validate_scheme(s)
            xi = set(s.xi.support())
            blocks = check_conserving(interaction_blocks(s))
            assert blocks.entry("grading") == 0.0
            for cid, defect in blocks.filter("isometry").entries:
                total = int(cid[len("isometry["):-1])
                cover = []
                if total in xi:
                    cover.append(report.entry(f"weights-rho[{total}]"))
                if total - 1 in xi:
                    cover.append(report.entry(f"weights-tau[{total - 1}]"))
                if total in xi and total - 1 in xi:
                    cover.append(report.entry(f"orthogonality[{total}]"))
                assert defect == pytest.approx(max(cover), rel=1e-12, abs=1e-15)


_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324]),
)


@st.composite
def json_schemes(draw):
    """Schemes of any sector dimension, with empty vectors and non-finite amplitudes."""
    d = draw(st.integers(1, 4))

    def vector():
        lo = draw(st.integers(-50, 50) | st.integers(-(2**40), 2**40))
        k = draw(st.integers(0, 4))
        values = draw(st.lists(_JSON_FLOATS, min_size=2 * k * d, max_size=2 * k * d))
        amps = np.array(values, dtype=np.float64).reshape(k, 2 * d).view(np.complex128)
        return GradedVector.from_window(lo, amps)

    return ApproxScheme(
        n=draw(st.integers(-5, 10**6)), d=d, xi=vector(), sigma=vector(), tau=vector(),
        rho=vector(), c=draw(_JSON_FLOATS), cprime=draw(_JSON_FLOATS),
    )


#: sha256 of ``build_canonical_scheme(n).to_json(indent)`` as ``json.dumps`` wrote it.
_CANONICAL_JSON_SHA256 = {
    (1, None): "4a8ed13fe1cd0a9a3ef226d8390093ead73c1e6b5db3cead6f7ba6204e17fe12",
    (1, 2): "90a59d82e219aebb153e1220b808db1a3c7158f5c49176015b2f5ba9e3e41367",
    (2, None): "67483b99f63aec625e7ab142d39b4a8273f6cafc5cc06a7ba61661cc9d2e3028",
    (2, 2): "36e2b1c9e10365db450dc0dd36f11f7304afd5e79bd34c0b4f785eab13a5f48c",
    (3, None): "c0b8745af7d315b950e736ebc9c30321d4d04677f79e14a5f5d99963365286ba",
    (3, 2): "21f1de1d01e08d8634ad1ac90ff46e180c8ee1e09d72943cded5b4727fc0463d",
    (7, None): "80dd9c7fc8bb3a0cb7d26546a93c96c146b42c52960b43413f8e9501d9bb4b6f",
    (7, 2): "fa9a397ad35b12f0a80636f966ae83bbd09b326d5e44785381e3290193d56fb6",
    (64, None): "36a83eea78aaf81ab583ca652485715e29f10a9494b85fd65b96ad663cdb309f",
    (64, 2): "ccd7c355f736e39cbcbf0390bfbe19f6491dd15dcc0586000627c144ff07e4eb",
    (1000, None): "e09347d36ec61b47ddea8570c0f02543b65bffcc2a9e852c835f5cac8d9e856d",
    (1000, 2): "51a148cb7547b75a14eba53db66c22117e440c5ccdf4e7f6dbacdd944040340a",
}


class TestJson:
    @settings(max_examples=150, deadline=None)
    @given(json_schemes(), st.sampled_from([None, 0, 2, 4, "\t", " %s"]))
    def test_writer_matches_json_dumps(self, s, indent):
        assert s.to_json(indent=indent) == json.dumps(s.to_dict(), indent=indent)

    @pytest.mark.parametrize("n, indent", sorted(_CANONICAL_JSON_SHA256, key=str))
    def test_canonical_bytes_pinned(self, n, indent):
        text = build_canonical_scheme(n).to_json(indent=indent)
        assert hashlib.sha256(text.encode()).hexdigest() == _CANONICAL_JSON_SHA256[n, indent]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 3))
    def test_random_schemes_round_trip_byte_identical(self, seed, n, d):
        s = random_complex_scheme(np.random.default_rng(seed), n, d)
        for indent in (None, 2):
            text = s.to_json(indent=indent)
            again = ApproxScheme.from_json(text)
            assert again == s
            assert again.to_json(indent=indent) == text

    def test_from_json_pauses_and_restores_gc(self, monkeypatch):
        s = build_canonical_scheme(3)
        text = s.to_json()
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda t: seen.append(gc.isenabled()) or loads(t))
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                assert ApproxScheme.from_json(text) == s
                assert gc.isenabled() is enabled
                for malformed in (text[:-1], json.dumps([1])):  # bad JSON, bad scheme
                    with pytest.raises(ValueError):
                        ApproxScheme.from_json(malformed)
                    assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()
        assert seen == [False] * 6

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.update(xi=[]), "'xi'"),
            (lambda p: p["sigma"]["sectors"][0].update(amp=5), "'sigma': sector 1"),
            (lambda p: p.pop("n"), "'n' is missing"),
            (lambda p: p.update(c=None), "'c'"),
            (lambda p: p.update(d=1e400), "'d'"),
            (
                lambda p: p.update(rho=GradedVector(3, {0: [0, 1, 0]}).to_dict()),
                "'rho': sector dimension 3 != scheme d 2",
            ),
        ],
    )
    def test_malformed_field_named(self, edit, match):
        payload = build_canonical_scheme(3).to_dict()
        edit(payload)
        with pytest.raises(ValueError, match=match):
            ApproxScheme.from_dict(payload)
        with pytest.raises(ValueError, match="JSON object"):
            ApproxScheme.from_json(json.dumps([payload]))
