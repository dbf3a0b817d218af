"""Tests for the canonical approximate measurement scheme."""

from fractions import Fraction

import dataclasses
import gc
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_interaction_blocks
from waylab import graded, jsonio, scheme
from waylab.nogo import infeasibility_certificate
from waylab.optimize import optimize_scheme
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
        for obj in (ObjectState(1.0, 0.5), ObjectState(1e200, 0.0)):  # the second squares to inf
            with pytest.raises(ValueError, match="not normalized"):
                apply_interaction(s, obj)

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


_FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 0.5, -1.0]),
)


@st.composite
def json_schemes(draw, finite=False):
    """Schemes of any sector dimension, with empty vectors and non-finite amplitudes unless ``finite``.

    Each vector's rows are drawn from a pool of at most three rows, one of
    which may be another row with the sign of each zero flipped, so rows
    repeat next to each other and apart, ``0.0``/``-0.0`` twins sit side by
    side, and a row holding NaN can repeat.
    """
    d = draw(st.integers(1, 4))
    floats = _FINITE_FLOATS if finite else _JSON_FLOATS

    def vector():
        lo = draw(st.integers(-50, 50) | st.integers(-(2**40), 2**40))
        k = draw(st.integers(0, 4))
        pool = draw(st.lists(st.lists(floats, min_size=2 * d, max_size=2 * d), min_size=1, max_size=3))
        if draw(st.booleans()):  # the twin of the first row: every zero with its sign flipped
            pool.append([-x if x == 0 else x for x in pool[0]])
        rows = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        amps = np.array(rows, dtype=np.float64).reshape(k, 2 * d).view(np.complex128)
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


#: Texts a mutation puts in place of one number: not JSON numbers, and JSON numbers
#: that ``to_json`` does not write (integers, ``-0``, exponents, huge integers).
_NUMBER_EDITS = ["01", "1.", "+1", ".5", "1e", "-0", "NaN", "1", "-7", "1E+2", "2e-400", "1" * 25]

#: A JSON number, ``NaN`` or an infinity as ``json.dumps`` writes them.
_NUMBER = re.compile(r"-?Infinity|NaN|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _respelled(number):
    """Another JSON spelling of a number text: an integer as a float, a float without its point.

    ``1`` becomes ``1.0``, and ``-0.25`` becomes ``-25e-2``: the digits
    without the point and leading zeros, the exponent moved to match, so
    the value is the same decimal and parses to the same bits.
    """
    mantissa, _, exponent = number.lower().partition("e")
    if "." not in mantissa and not exponent:
        return number + ".0"
    sign = "-" if mantissa.startswith("-") else ""
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = (whole + fraction).lstrip("0") or "0"
    return f"{sign}{digits}e{int(exponent or 0) - len(fraction)}"


@st.composite
def mutated_texts(draw, text, indent):
    """``text`` (a scheme's ``to_json(indent)``) as written, or with one edit."""
    kind = draw(st.sampled_from(
        ["none", "delete", "duplicate", "swap", "reorder", "space", "number", "respell", "newline"]
    ))
    if kind == "delete":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + text[i + 1 :]
    if kind == "space":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from([" ", "\n", "\t", "\r", "  "])) + text[i:]
    if kind == "number":
        spots = list(_NUMBER.finditer(text))
        if not spots:
            return text
        m = draw(st.sampled_from(spots))
        return text[: m.start()] + draw(st.sampled_from(_NUMBER_EDITS)) + text[m.end() :]
    if kind == "respell":  # one number in another spelling of the same value
        spots = [m for m in _NUMBER.finditer(text) if m.group()[-1].isdigit()]
        if not spots:
            return text
        m = draw(st.sampled_from(spots))
        return text[: m.start()] + _respelled(m.group()) + text[m.end() :]
    if kind == "newline":
        return text + "\n"
    if kind == "swap":  # every occurrence of two keys, traded
        a, b = draw(st.sampled_from(
            [("nu", "amp"), ("c", "cprime"), ("xi", "sigma"), ("n", "d"), ("d", "sectors")]
        ))
        return text.replace(f'"{a}"', "\0").replace(f'"{b}"', f'"{a}"').replace("\0", f'"{b}"')
    try:
        payload = json.loads(text)
    except ValueError:  # an indent that is not JSON whitespace
        return text
    if kind == "duplicate":  # a repeated label, not in order: its last row wins
        sectors = payload[draw(st.sampled_from(scheme._VECTORS))]["sectors"]
        if sectors:
            sectors.insert(draw(st.integers(0, len(sectors))), draw(st.sampled_from(sectors)))
    elif kind == "reorder":  # the same members in another order
        if draw(st.booleans()):
            payload = dict(reversed(payload.items()))
        else:
            for sector in payload[draw(st.sampled_from(scheme._VECTORS))]["sectors"]:
                sector["nu"] = sector.pop("nu")
    return json.dumps(payload, indent=indent)


def _assert_same_reading(text):
    """``from_json(text)`` reads as ``from_dict(json.loads(text))``, bit for bit or by ValueError."""
    try:
        expected = ApproxScheme.from_dict(json.loads(text))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ApproxScheme.from_json(text)
        assert str(got.value) == str(exc)
    else:
        assert _bits(ApproxScheme.from_json(text)) == _bits(expected)


def _assert_read_strictly(s, indent):
    """``s`` written at ``indent``, then no or some spaces and newlines, reads strictly as ``s``."""
    written = s.to_json(indent=indent)
    for text in (written, written + "\n", written + " \n\n  \n"):
        fields = scheme._strict_fields(text)
        assert fields is not None
        assert _bits(ApproxScheme(**fields)) == _bits(s)
        assert _bits(ApproxScheme.from_json(text)) == _bits(s)


def _alternating_scheme(n, period=1):
    """The canonical scheme's supports and weights, each vector's rows alternating between two.

    Each row is written ``period`` times before the other.
    """
    s = build_canonical_scheme(n)
    rows = np.array([[0.5, -0.25j], [-0.0, 0.75 + 0.5j]])[np.arange(n + 1) // period % 2]
    vectors = {k: GradedVector.from_window(getattr(s, k)._lo, rows[: len(getattr(s, k)._amps)])
               for k in scheme._VECTORS}
    return ApproxScheme(n=n, d=2, c=s.c, cprime=s.cprime, **vectors)


def _distinct_scheme(n):
    """The canonical scheme's supports and weights, every amplitude a different seeded value."""
    s = build_canonical_scheme(n)
    rng = np.random.default_rng(n)
    vectors = {}
    for k in scheme._VECTORS:
        v = getattr(s, k)
        shape = (len(v._amps), s.d)
        amps = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        vectors[k] = GradedVector.from_window(v._lo, amps)
    return dataclasses.replace(s, **vectors)


def _first_row_apart(n):
    """The canonical scheme with the first sector of each vector scaled by ``1 + 1e-3``."""
    s = build_canonical_scheme(n)
    vectors = {}
    for k in scheme._VECTORS:
        v = getattr(s, k)
        amps = v._amps.copy()
        amps[0] *= 1 + 1e-3
        vectors[k] = GradedVector.from_window(v._lo, amps)
    return dataclasses.replace(s, **vectors)


def _zero_flipped(n):
    """The canonical scheme with the sign of one zero flipped in the middle row of each vector."""
    s = build_canonical_scheme(n)
    vectors = {}
    for k in scheme._VECTORS:
        v = getattr(s, k)
        amps = v._amps.copy()
        row = amps[len(amps) // 2].view(np.float64)
        row[np.flatnonzero(row == 0)[0]] = -0.0
        vectors[k] = GradedVector.from_window(v._lo, amps)
    return dataclasses.replace(s, **vectors)


#: Quiet NaNs with different payloads, one of them negative, as ``int64`` bits.
_NAN_BITS = [0x7FF8000000000000, 0x7FF8000000000001, 0x7FF80000DEADBEEF, -0x0008000000000000]


def _nan_runs_scheme():
    """A scheme whose ``xi`` holds runs of NaN rows, each run with another payload.

    ``sigma`` has one sector, ``tau`` none, and ``rho`` is a run broken
    only by the payload of one NaN.
    """
    nans = np.array(_NAN_BITS, dtype=np.int64).view(np.float64)
    xi = np.zeros((12, 4))
    xi[:, 0], xi[:, 3] = np.repeat(nans, 3), 0.5
    rho = np.full((9, 4), nans[0])
    rho[4, 1] = nans[1]
    return ApproxScheme(
        n=12, d=2, xi=GradedVector.from_window(-3, xi.view(np.complex128)),
        sigma=GradedVector(2, {7: [0.25, -0.0]}), tau=GradedVector(2),
        rho=GradedVector.from_window(4, rho.view(np.complex128)), c=0.5, cprime=float("nan"),
    )


#: The indents :class:`TestJson` writes fixed inputs at; the writer must not read ``" %s"`` as a slot.
_INDENTS = [None, 0, 2, "\t", " %s"]


def _bits(s):
    """Every field of a scheme as exact bits: NaN equals NaN, -0.0 differs from 0.0."""
    vectors = [(v.d, v._lo, v._amps.tobytes()) for v in (getattr(s, k) for k in scheme._VECTORS)]
    return s.n, s.d, np.float64(s.c).tobytes(), np.float64(s.cprime).tobytes(), vectors


class TestJson:
    @settings(max_examples=150, deadline=None)
    @given(json_schemes(), st.sampled_from([None, 0, 2, 4, "\t", " %s"]))
    def test_writer_matches_json_dumps(self, s, indent):
        assert s.to_json(indent=indent) == json.dumps(s.to_dict(), indent=indent)

    @pytest.mark.parametrize("indent", _INDENTS)
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_canonical_scheme(1000),
            lambda: _zero_flipped(1000),
            _nan_runs_scheme,
            lambda: _alternating_scheme(64),
            lambda: _alternating_scheme(64, period=2),
            lambda: build_canonical_scheme(1),
        ],
        ids=["canonical", "zero-flipped", "nan-runs", "alternating", "pairs", "one-sector"],
    )
    def test_writer_matches_json_dumps_on_runs(self, make, indent):
        # json_schemes draws at most four rows per vector; these reach long runs, runs
        # broken by the sign of a zero or a NaN payload, no runs, one sector and none
        s = make()
        assert s.to_json(indent=indent) == json.dumps(s.to_dict(), indent=indent)

    def test_runs_are_neighbours_equal_in_bits(self):
        # a run's row text is written once, after each of its labels; a zero of the other
        # sign or another NaN payload starts a run, and runs of one row are one template
        def runs(v):
            """Runs of ``v``'s rows: a piece each between the array's open and its last label."""
            pieces = jsonio.text_pieces(v)[4:-1]  # the sectors array
            return None if len(pieces) == 1 else len(pieces) - 2

        assert [runs(getattr(build_canonical_scheme(1000), k)) for k in scheme._VECTORS] == [1] * 4
        assert [runs(getattr(_zero_flipped(1000), k)) for k in scheme._VECTORS] == [3] * 4
        nan = _nan_runs_scheme()
        assert nan.xi._amps.view(np.int64)[::3, 0].tolist() == _NAN_BITS  # payloads kept
        assert [runs(nan.xi), runs(nan.rho), runs(nan.sigma)] == [4, 3, None]
        assert runs(_alternating_scheme(64).xi) is None
        pairs = _alternating_scheme(64, period=2).xi
        assert runs(pairs) == 32
        assert runs(GradedVector.from_window(0, pairs._amps[:5])) is None  # runs of 2, 2, 1

    @pytest.mark.parametrize("indent", _INDENTS)
    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_certificate_writer_matches_json_dumps(self, n, indent):
        cert = infeasibility_certificate(n)
        assert cert.to_json(indent=indent) == json.dumps(cert.to_dict(), indent=indent)

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
        # every json.loads inside from_json runs with gc paused, and gc comes back as it
        # was, on the strict path (the layout to_json writes) and on the full parse
        s = build_canonical_scheme(3)
        text = s.to_json()
        assert scheme._strict_fields(text) is not None
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda t: seen.append(gc.isenabled()) or loads(t))
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                for good in (text, " " + text, text.encode()):  # strict, then two full parses
                    seen.clear()
                    assert ApproxScheme.from_json(good) == s
                    assert seen and not any(seen)
                    assert gc.isenabled() is enabled
                # bad JSON, a bad scheme, a bad scheme in the layout, JSON too deep
                bad = text.replace('"n": 3', '"n": 0')
                for malformed in (text[:-1], json.dumps([1]), bad, "[" * 100000):
                    seen.clear()
                    with pytest.raises(ValueError):
                        ApproxScheme.from_json(malformed)
                    assert seen and not any(seen)
                    assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    @settings(max_examples=400, deadline=None)
    @given(
        st.data(),
        json_schemes() | json_schemes(finite=True),
        st.sampled_from([None, 0, 1, 2, 4, "\t", " %s"]),
    )
    def test_strict_path_reads_as_json_loads_does(self, data, s, indent):
        text = s.to_json(indent=indent)
        finite = all(np.isfinite(getattr(s, k)._amps).all() for k in scheme._VECTORS)
        if indent in (None, 0, 1, 2, 4) and finite and s.n >= 1:
            assert scheme._strict_fields(text) is not None  # the layout is read strictly
        _assert_same_reading(data.draw(mutated_texts(text, indent)))

    @pytest.mark.parametrize(
        "indent, old, new",
        [
            # the bytes left after deleting number bytes are as written in each of these
            (None, '"nu": 1, ', '"n1u": , '),  # a number moved into a key
            (None, "[[0.7071067811865476, ", "[0.7071067811865476[, "),  # between brackets
            (None, '"nu": 1, ', '"nu": 1 , '),  # a space out of place
            (None, "0.7071067811865476, 0.0]", "0.7071067811865476, 0.0 ]"),
            # an indent space moved into a number, into a key, after a number
            (2, "            0.7071067811865476,", "           0.70710 67811865476,"),
            (2, '        "nu": 1,', '       " nu": 1,'),
            (2, '        "nu": 1,', '        "nu":1 ,'),
            (2, '        "nu": 1,', '        "nu": 1 ,'),
            (2, "            0.7071067811865476,", "           0.7071067811865476 ,"),
            (2, "            0.7071067811865476,", "\t           0.7071067811865476,"),
            # a separator between two pairs of a row inside a label slot
            (None, '"nu": 1, ', '"nu": 1], [, '),
            (2, '"nu": 1,', '"nu": 1\n          ],\n          [,'),
            # one copy of a repeated row with a number added, and with one removed
            (None, "[[0.7071067811865476, 0.0], ", "[[0.7071067811865476, 0.0, 0.0], "),
            (None, "[[0.7071067811865476, 0.0], ", "[[0.7071067811865476], "),
            (2, "0.7071067811865476,\n            0.0\n",
             "0.7071067811865476,\n            0.0,\n            0.0\n"),
            (2, "0.7071067811865476,\n            0.0\n", "0.7071067811865476\n"),
            # numbers out of place: one moved between the pairs of a row, one across the
            # bracket of a pair, one from a row into a label slot, two labels in one slot
            (None, "0.0], [0.0, ", "0.0, 0.0], ["),
            (None, "], [0.0, 0.0]]}", "], 0.0[, 0.0]]}"),
            (None, '"nu": 1, "amp": [[0.7071067811865476, ', '"nu": 1, 0.7071067811865476, "amp": [['),
            (None, '"nu": 1, ', '"nu": 1, 2, '),
            (2, '"nu": 1,', '"nu": 1,\n        2,'),
            (2, "0.0\n          ],\n          [\n            0.0,",
             "0.0,\n            0.0\n          ],\n          ["),
            (2, "],\n          [\n            0.0,", "],\n          0.0[\n            ,"),
        ],
    )
    def test_edits_that_keep_the_skeleton(self, indent, old, new):
        text = build_canonical_scheme(2).to_json(indent=indent)
        assert old in text
        _assert_same_reading(text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "indent, old, new",
        [
            # a key of an array's head, and the last close of its tail
            (None, '"sectors": [{"nu": ', '"sectors": [{"n1": '),
            (None, ']]}]}, "sigma"', ']]}5}, "sigma"'),
            (2, '[\n      {\n        "nu": ', '[\n      {\n        "n1": '),
            (2, '      }\n    ]\n  },\n  "sigma"', '      }\n    5\n  },\n  "sigma"'),
            # a key without its space, of the first array and of the last
            (None, '"sectors": [{"nu": ', '"sectors":[{"nu": '),
            (None, '"rho": {"d": 2, "sectors": [', '"rho": {"d": 2, "sectors":['),
            (2, '"sectors": [\n', '"sectors":[\n'),
            (2, '"rho": {\n    "d": 2,\n    "sectors": [', '"rho": {\n    "d": 2,\n    "sectors":['),
            # spaces and newlines between the last array and the closes after it
            (None, "]]}]}}", "]]}] }}"),
            (None, "]]}]}}", "]]}]\n}}"),
            (2, "      }\n    ]\n  }\n}", "      }\n    ] \n  }\n}"),
            (2, "      }\n    ]\n  }\n}", "      }\n    ]\n\n  }\n}"),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_edits_of_head_and_tail(self, n, indent, old, new):
        # at n = 1 each array holds one sector, at n = 2 two equal ones, parsed once
        text = build_canonical_scheme(n).to_json(indent=indent)
        assert old in text
        _assert_same_reading(text.replace(old, new, 1))

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("vector", [0, 1, 2])
    def test_empty_label_of_a_one_sector_vector(self, vector, indent):
        # the label of a one-sector vector deleted: with no other label in its array, only
        # the count of numbers, or the separator after the slot, tells that one is missing
        text = build_canonical_scheme(1).to_json(indent=indent)
        at = [m.end() for m in re.finditer('"nu": ', text)][vector]
        assert text[at : at + 2] in ("1,", "1\n")
        with pytest.raises(ValueError):
            json.loads(text[:at] + text[at + 1 :])
        _assert_same_reading(text[:at] + text[at + 1 :])

    @pytest.mark.parametrize("indent", [None, 2])
    def test_each_text_is_checked_on_its_own(self, indent):
        # one label text and one row text, each handed over alone as the texts of a
        # one-sector array are: an empty label, and a number ahead of a row's first
        # bracket, must each be refused by the unit of its own text
        label, row = jsonio._sector_layout(2, indent and " " * indent)[3:]
        text = build_canonical_scheme(2).to_json(indent=indent)
        nu = text.split('"nu":')[1].split('"amp"')[0].encode() + b'"amp"'
        amp = text.split('"amp":')[1].split('"nu"')[0].encode() + b'"nu"'
        assert len(jsonio._numbers([nu], label, 1, indent)) == 1
        assert jsonio._numbers([nu.translate(None, b"0123456789")], label, 1, indent) is None
        assert len(jsonio._numbers([amp], row, 4, indent)) == 4
        assert jsonio._numbers([amp[:1] + b"5" + amp[1:]], row, 4, indent) is None

    @pytest.mark.parametrize(
        "old, new",
        [
            # an indent space moved into the second number of a row, into the first number
            # of a row after the first, and into a label
            ("            0.0\n          ]", "           0 .0\n          ]"),
            ('"nu": 10,\n        "amp": [\n          [\n            0.2886',
             '"nu": 10,\n        "amp": [\n          [\n           0.28 86'),
            ('        "nu": 10,', '        "nu":1 0,'),
        ],
        ids=["second-number", "later-row", "label"],
    )
    def test_a_space_moved_into_a_number_is_not_read_strictly(self, old, new):
        # with the number bytes deleted the text still repeats the written layout, spaces
        # included; an indented text is read without its spaces, which would join the two
        # parts into one number, so a space must follow a newline, a colon or a space
        text = build_canonical_scheme(12).to_json(indent=2)
        assert old in text
        edited = text.replace(old, new, 1)
        with pytest.raises(ValueError):
            json.loads(edited)
        assert scheme._strict_fields(edited) is None
        _assert_same_reading(edited)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("            0.0\n          ]", "             0.0\n          ]"),  # one indent space more
            ('        "nu": 10,', '        "nu":  10,'),  # two spaces after a colon
            ("          ],\n          [", "          ],\n            ["),
        ],
        ids=["indent", "colon", "bracket"],
    )
    def test_spaces_after_newlines_and_colons_are_read_strictly(self, old, new):
        # valid JSON off the written layout: each space follows a newline, a colon or a space,
        # so the text reads strictly without its spaces, as json.loads reads it
        text = build_canonical_scheme(12).to_json(indent=2)
        assert old in text
        edited = text.replace(old, new, 1)
        assert scheme._strict_fields(edited) is not None
        _assert_same_reading(edited)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    @pytest.mark.parametrize("indent", [None, 0, 1, 2, 4])
    def test_written_layouts_are_read_strictly(self, n, indent):
        _assert_read_strictly(build_canonical_scheme(n), indent)

    @pytest.mark.parametrize("n", [2, 7, 1000])
    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("make", [optimize_scheme, _alternating_scheme, _distinct_scheme])
    def test_rows_apart_and_distinct_are_read_strictly(self, make, n, indent):
        # the optimized scheme repeats rows only apart (its profiles are symmetric), the
        # alternating one only apart, and the distinct one not at all; none may fall back
        # to json.loads
        _assert_read_strictly(make(n), indent)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_first_row_apart_parses_each_distinct_row_once(self, indent, monkeypatch):
        # the first sector differs and every other one repeats a row: each vector's rows
        # parse as their two distinct texts, not as one text per sector
        text = _first_row_apart(1000).to_json(indent=indent)
        assert scheme._strict_fields(text) is not None
        expected = ApproxScheme.from_dict(json.loads(text))
        numbers, rows = jsonio._numbers, []

        def counted(texts, unit, width, indent):
            if width > 1:  # a row, not a label
                rows.append(len(texts))
            return numbers(texts, unit, width, indent)

        monkeypatch.setattr(jsonio, "_numbers", counted)
        assert _bits(ApproxScheme.from_json(text)) == _bits(expected)
        assert rows == [2] * 4

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("name", ["xi", "rho"])
    def test_a_bracketed_member_after_an_array(self, name, indent):
        # "sectors": [...], "x": [1]: the last "]" before the next key, or of the text,
        # is the member's, so the array cut there is refused
        payload = build_canonical_scheme(3).to_dict()
        payload[name]["x"] = [1]
        text = json.dumps(payload, indent=indent)
        assert scheme._strict_fields(text) is None
        _assert_same_reading(text)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_vectors_in_another_order(self, indent):
        # each array is cut at its key, not its name: vectors written out of order, or
        # not last, must not be read as the ones in their places
        payload = build_canonical_scheme(3).to_dict()
        payload["rho"] = GradedVector(2, {0: [0.5, 0.25j]}).to_dict()
        swapped = {k: payload[k] for k in ["n", "d", "c", "cprime", "rho", "sigma", "tau", "xi"]}
        last = {k: payload[k] for k in ["d", "c", "cprime", *scheme._VECTORS, "n"]}
        for text in (json.dumps(swapped, indent=indent), json.dumps(last, indent=indent)):
            assert scheme._strict_fields(text) is None
            _assert_same_reading(text)

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("name", ["xi", "rho"])
    def test_a_huge_vector_dimension(self, name, indent):
        # d comes from the file: an array too short for one sector of d is refused
        # before a template of d pairs is built
        payload = build_canonical_scheme(3).to_dict()
        payload[name]["d"] = 10**12
        text = json.dumps(payload, indent=indent)
        assert scheme._strict_fields(text) is None
        _assert_same_reading(text)

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
