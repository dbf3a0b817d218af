"""Tests for the charge-graded vector algebra."""

import hashlib
import json
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import DictGraded, LoopBlockMap, TupleConstraintReport
from waylab import graded
from waylab.born import Observable, born_distribution
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
from waylab.nogo import (
    ExactSchemeData,
    derive_witness,
    exact_constraint_residual,
    infeasibility_certificate,
    rotated_basis_residual,
)
from waylab.optimize import optimize_scheme, sweep
from waylab.scheme import (
    ApproxScheme,
    build_canonical_scheme,
    canonical_weights,
    scheme_error,
    validate_scheme,
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


class TestWindow:
    def test_window_is_zero_padded_copy(self):
        v = GradedVector(2, {-1: [1, 2j], 2: [0, 3]})
        win = v.window(-2, 3)
        assert win.shape == (6, 2)
        np.testing.assert_array_equal(win[1], [1, 2j])
        np.testing.assert_array_equal(win[4], [0, 3])
        assert not np.any(win[[0, 2, 3, 5]])
        win[1, 0] = 7.0
        assert v.sector(-1)[0] == 1.0
        assert v.window(5, 4).shape == (0, 2)
        assert GradedVector(2, {}).window(0, 1).shape == (2, 2)

    def test_from_window_trims_and_copies(self):
        amps = np.array([[0, 0], [1, 0], [0, 0], [0, 1j], [0, 0]], dtype=complex)
        v = GradedVector.from_window(-3, amps)
        amps[1, 0] = 5.0
        assert v.support() == (-2, 0)
        assert v == GradedVector(2, {-2: [1, 0], 0: [0, 1j]})
        assert GradedVector.from_window(4, np.zeros((3, 2))) == GradedVector(2, {})
        with pytest.raises(ValueError, match="shape"):
            GradedVector.from_window(0, [1.0, 2.0])

    def test_values_are_read_only(self):
        v = GradedVector.from_window(0, [[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        for nu in (0, 1, 2):
            with pytest.raises(ValueError):
                v.sector(nu)[0] = 3.0

    def test_wide_label_span_rejected_before_allocation(self):
        with pytest.raises(ValueError, match="span"):
            GradedVector(2, {0: [1, 0], 2**40: [0, 1]})
        with pytest.raises(ValueError, match="span"):
            unit(2, 0).window(0, 2**40)
        with pytest.raises(ValueError, match="span"):
            unit(2, 0) + unit(2, 2**40)

    def test_span_limit_counts_entries(self, monkeypatch):
        monkeypatch.setattr(graded, "_MAX_WINDOW_ENTRIES", 16)
        assert GradedVector(2, {0: [1, 0], 7: [0, 1]}).support() == (0, 7)
        with pytest.raises(ValueError, match="span"):
            GradedVector(2, {0: [1, 0], 8: [0, 1]})
        assert GradedVector(4, {-2: [1, 0, 0, 0], 1: [1, 0, 0, 0]}).support() == (-2, 1)
        with pytest.raises(ValueError, match="span"):
            GradedVector(4, {-2: [1, 0, 0, 0], 2: [1, 0, 0, 0]})


def _amplitudes(d):
    entry = st.one_of(
        st.just(0j),
        st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    )
    return st.lists(entry, min_size=d, max_size=d)


def _sector_maps(d):
    """Supports over negative labels, with explicit zero sectors and empty maps."""
    zero = st.just([0j] * d)
    return st.dictionaries(st.integers(-6, 6), st.one_of(zero, _amplitudes(d)), max_size=6)


_graded_pairs = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), _sector_maps(d), _sector_maps(d))
)
_scalars = st.one_of(
    st.just(0j), st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
)


class TestDictReference:
    @settings(max_examples=150, deadline=None)
    @given(_graded_pairs, _scalars, _scalars)
    def test_window_layout_matches_dict_of_arrays(self, pair, a, b):
        d, su, sv = pair
        u, v = GradedVector(d, su), GradedVector(d, sv)
        ru, rv = DictGraded(d, su), DictGraded(d, sv)
        assert u.to_dict() == ru.to_dict()
        assert (u + v).to_dict() == (ru + rv).to_dict()
        assert (u - v).to_dict() == (ru + rv.scale(-1.0)).to_dict()
        assert (a * u).to_dict() == ru.scale(a).to_dict()
        assert (u == v) == (ru.to_dict() == rv.to_dict())
        assert u == GradedVector(d, dict(u.items()))
        assert (u - u).is_zero()
        assert inner(u, v) == pytest.approx(ru.inner(rv), rel=1e-12, abs=1e-12)
        assert u.norm2() == pytest.approx(ru.norm2(), rel=1e-12, abs=1e-12)
        joint = tensor(ObjectState(a, b), u)
        ref_joint = ru.tensor(a, b)
        assert joint.to_dict() == ref_joint.to_dict()
        for part, ref_part in zip(split_object_components(joint, d), ref_joint.split()):
            assert part.to_dict() == ref_part.to_dict()


_parts = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-4, 4),
)


def _special_windows(d):
    """``(lo, window)`` over amplitudes with signed zeros, infinities and NaN.

    Rows that are entirely zero are exact ``+0`` (``GradedVector(d, {...})``
    fills absent rows so, while ``from_window`` keeps a row's bits).
    """
    entries = st.lists(st.builds(complex, _parts, _parts), min_size=d, max_size=d)
    row = st.one_of(st.just([0j] * d), entries)
    return st.tuples(st.integers(-4, 4), st.lists(row, max_size=5)).map(
        lambda case: (case[0], _plus_zero_rows(np.array(case[1], dtype=np.complex128), d))
    )


def _plus_zero_rows(rows, d):
    window = rows.reshape(-1, d)
    window[~window.any(axis=1)] = 0
    return window


_special_pairs = st.integers(1, 3).flatmap(
    lambda d: st.tuples(_special_windows(d), _special_windows(d))
)


def _bits(v):
    return v._lo, v._amps.shape, v._amps.view(np.uint64).tolist()


class TestBitwise:
    """Raw bits, not values: signed zeros and NaN must come out as the reference writes them."""

    @settings(max_examples=150, deadline=None)
    @given(_special_pairs)
    def test_difference_keeps_the_float_ops_of_adding_minus_one_times(self, pair):
        u, v = (GradedVector.from_window(lo, w) for lo, w in pair)
        with np.errstate(all="ignore"):
            assert _bits(u - v) == _bits(u + (-1.0) * v)

    @settings(max_examples=150, deadline=None)
    @given(_special_pairs)
    @example(
        (
            (-1, np.array([[complex(-0.0, 0.0), complex(math.nan, -0.0)], [0, 0], [1, -0.0]])),
            (2, np.array([[complex(0.0, math.nan)], [complex(-0.0, 1.0)]])),
        )
    )
    def test_window_constructor_matches_dict_constructor(self, pair):
        for lo, w in pair:
            d = w.shape[1]
            window = GradedVector.from_window(lo, w)
            sectors = {lo + i: row for i, row in enumerate(w)}
            assert _bits(GradedVector(d, sectors)) == _bits(window)
            # numpy-integer labels read as the same labels
            numpy_keys = {np.int64(nu): row for nu, row in sectors.items()}
            assert _bits(GradedVector(d, numpy_keys)) == _bits(window)
            # exact-zero rows, here of -0.0 entries, are dropped wherever they stand
            negative_zero = np.full(d, complex(-0.0, -0.0))
            padded = {lo - 2: negative_zero, **sectors, lo + len(w) + 1: negative_zero}
            for nu, row in sectors.items():
                if not row.any():
                    padded[nu] = negative_zero
            assert _bits(GradedVector(d, padded)) == _bits(window)

    @settings(max_examples=150, deadline=None)
    @given(_special_pairs)
    def test_scheme_error_matches_the_difference_vector(self, pair):
        tau, rho = (GradedVector.from_window(lo, w) for lo, w in pair)
        s = ApproxScheme(n=3, d=tau.d, xi=tau, sigma=rho, tau=tau, rho=rho, c=0.0, cprime=0.0)
        with np.errstate(all="ignore"):
            expected = 0.25 * (s.tau + (-1.0) * s.rho).norm2()
            got = scheme_error(s)
        assert np.float64(got).view(np.uint64) == np.float64(expected).view(np.uint64)


def _legacy_from_dict(data):
    """The per-element parse that ``GradedVector.from_dict`` used before it read one array."""
    sectors = {
        int(e["nu"]): [complex(re, im) for re, im in e["amp"]] for e in data["sectors"]
    }
    return GradedVector(int(data["d"]), sectors)


_sector_entries = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.tuples(st.integers(-6, 6), st.one_of(st.just([0j] * d), _amplitudes(d))),
            max_size=8,
        ),
    )
)


class TestJson:
    @settings(max_examples=150, deadline=None)
    @given(_sector_entries)
    def test_round_trip_matches_per_element_parse(self, case):
        # repeated labels (the last one wins) and exact-zero sectors (dropped)
        d, entries = case
        data = {
            "d": d,
            "sectors": [
                {"nu": nu, "amp": [[z.real, z.imag] for z in amp]} for nu, amp in entries
            ],
        }
        v = GradedVector.from_dict(json.loads(json.dumps(data)))
        ref = _legacy_from_dict(data)
        assert v == ref
        assert json.dumps(v.to_dict()) == json.dumps(DictGraded(d, dict(ref.items())).to_dict())
        for indent in (None, 2):
            text = json.dumps(v.to_dict(), indent=indent)
            again = GradedVector.from_dict(json.loads(text))
            assert again == v
            assert json.dumps(again.to_dict(), indent=indent) == text

    @pytest.mark.parametrize(
        "data, match",
        [
            ([], "'sectors' list"),
            ({"d": 2, "sectors": 5}, "'sectors' list"),
            ({"sectors": []}, "'d'"),
            ({"d": "two", "sectors": []}, "'d'"),
            ({"d": 0, "sectors": []}, "dimension"),
            ({"d": 2, "sectors": [5]}, "'nu' and 'amp'"),
            ({"d": 2, "sectors": [{"amp": [[1, 0], [0, 0]]}]}, "'nu'"),
            ({"d": 2, "sectors": [{"nu": None, "amp": [[1, 0], [0, 0]]}]}, "'nu'"),
            ({"d": 2, "sectors": [{"nu": 2**70, "amp": [[1, 0], [0, 0]]}]}, "64-bit"),
            ({"d": 2, "sectors": [{"nu": 3, "amp": 5}]}, r"sector 3: expected amp shape \(2, 2\)"),
            ({"d": 2, "sectors": [{"nu": 1, "amp": [[1, 0], [0, 0]]},
                                  {"nu": 4, "amp": [[1, 0]]}]}, "sector 4"),
            ({"d": 1, "sectors": [{"nu": 0, "amp": [["x", 0]]}]}, "sector 0: amp is not"),
            ({"d": 1, "sectors": [{"nu": 0, "amp": [[{}, 0]]}]}, "sector 0: amp is not"),
            ({"d": 1, "sectors": [{"nu": 0, "amp": [[None, 0]]}]}, "sector 0: amp is not"),
            ({"d": 1, "sectors": [{"nu": 0, "amp": [["1.0", 0]]}]}, "sector 0: amp is not"),
            # JSON numbers that are not integers, and booleans, are no labels or sizes
            ({"d": 2.0, "sectors": []}, "'d' must be an integer"),
            ({"d": True, "sectors": []}, "'d' must be an integer"),
            ({"d": 1, "sectors": [{"nu": 1.5, "amp": [[1, 0]]}]}, "'nu' must be an integer"),
            ({"d": 1, "sectors": [{"nu": False, "amp": [[1, 0]]}]}, "'nu' must be an integer"),
            ({"d": 1, "sectors": [{"nu": "3", "amp": [[1, 0]]}]}, "'nu' must be an integer"),
        ],
    )
    def test_malformed_data_raise_value_error(self, data, match):
        with pytest.raises(ValueError, match=match):
            GradedVector.from_dict(data)


_PAIR = (np.eye(2), np.eye(2))
_EXACT = infeasibility_certificate(3).minimizer.to_dict()


def _edited(data, **changes):
    """Copy of ``data`` with ``changes`` applied; a value of ``None`` removes the key."""
    out = {**data, **changes}
    return {k: v for k, v in out.items() if v is not None}


_STRINGS = [["1", "0"], ["0", "1j"]]

# Every integer from outside (a label, d or n) is an int or a numpy integer: a
# float, bool or string is refused by name, never rounded or cast.
_REFUSALS = {
    "vector-d-float": (lambda: GradedVector(2.5), "'d'"),
    "vector-d-bool": (lambda: GradedVector(True), "'d'"),
    "vector-d-string": (lambda: GradedVector("2"), "'d'"),
    "vector-label-float": (lambda: GradedVector(2, {1.5: [1, 0]}), "'nu'"),
    "vector-label-bool": (lambda: GradedVector(2, {True: [1, 0]}), "'nu'"),
    "vector-label-string": (lambda: GradedVector(2, {"1": [1, 0]}), "'nu'"),
    "vector-label-float-bool": (lambda: GradedVector(2, {1.5: [1, 0], True: [0, 1]}), "'nu'"),
    "vector-sector-float": (lambda: unit(2, 1).sector(1.0), "'nu'"),
    "vector-window-start-float": (lambda: GradedVector.from_window(0.5, [[1, 0]]), "'lo'"),
    "vector-window-lo-float": (lambda: unit(2, 1).window(1.5, 3), "'lo'"),
    "vector-window-hi-float": (lambda: unit(2, 1).window(1, 3.0), "'hi'"),
    "vector-string-amps": (lambda: GradedVector(2, {0: ["1", "2j"]}), "sector 0"),
    "vector-object-amps": (lambda: GradedVector(2, {0: [1, None]}), "sector 0"),
    "canonical-weights-float": (lambda: canonical_weights(2.5), "'n'"),
    "witness-n-float": (lambda: derive_witness(3.0), "'n'"),
    "map-d-float": (lambda: BlockMap(2.0, {0: _PAIR}), "'d'"),
    "map-d-bool": (lambda: BlockMap(True, {}), "'d'"),
    "map-d-string": (lambda: BlockMap("2", {0: _PAIR}), "'d'"),
    "map-label-float": (lambda: BlockMap(2, {1.7: _PAIR, True: _PAIR}), "'N'"),
    "map-label-bool": (lambda: BlockMap(2, {True: _PAIR}), "'N'"),
    "map-label-string": (lambda: BlockMap(2, {"1": _PAIR}), "'N'"),
    "dict-d-float": (lambda: GradedVector.from_dict({"d": 2.0, "sectors": []}), "'d'"),
    "dict-d-bool": (lambda: GradedVector.from_dict({"d": True, "sectors": []}), "'d'"),
    "dict-d-string": (lambda: GradedVector.from_dict({"d": "2", "sectors": []}), "'d'"),
    "dict-label-float": (
        lambda: GradedVector.from_dict({"d": 1, "sectors": [{"nu": 1.5, "amp": [[1, 0]]}]}),
        "'nu'",
    ),
    "dict-label-bool": (
        lambda: GradedVector.from_dict({"d": 1, "sectors": [{"nu": True, "amp": [[1, 0]]}]}),
        "'nu'",
    ),
    "dict-label-string": (
        lambda: GradedVector.from_dict({"d": 1, "sectors": [{"nu": "1", "amp": [[1, 0]]}]}),
        "'nu'",
    ),
    "exact-n-float": (lambda: ExactSchemeData.from_dict(_edited(_EXACT, n=3.0)), "'n'"),
    "exact-n-bool": (lambda: ExactSchemeData.from_dict(_edited(_EXACT, n=True)), "'n'"),
    "exact-n-string": (lambda: ExactSchemeData.from_dict(_edited(_EXACT, n="3")), "'n'"),
    "exact-missing-key": (lambda: ExactSchemeData.from_dict(_edited(_EXACT, x=None)), "'x'"),
    "exact-wrong-length": (
        lambda: ExactSchemeData.from_dict(_edited(_EXACT, s=[0.5, 0.5])),
        r"s: expected shape \(3,\)",
    ),
    "exact-string-numbers": (
        lambda: ExactSchemeData.from_dict(_edited(_EXACT, x=["1", 2, 3])),
        "'x'",
    ),
    "exact-not-an-object": (lambda: ExactSchemeData.from_dict([_EXACT]), "JSON object"),
    "scheme-n-float": (lambda: build_canonical_scheme(3.0), "'n'"),
    "scheme-d-float": (lambda: build_canonical_scheme(3, 2.0), "'d'"),
    "optimize-n-float": (lambda: optimize_scheme(3.0), "'n'"),
    "sweep-n-float": (lambda: sweep([3, 4.0]), "'n'"),
    "nogo-n-float": (lambda: infeasibility_certificate(4.0), "'n'"),
    "nogo-rotated-n-float": (lambda: rotated_basis_residual(4.0, (0.8, 0.6)), "'n'"),
    "validate-n-float": (lambda: validate_scheme(replace(build_canonical_scheme(3), n=3.0)), "'n'"),
    "validate-n-zero": (lambda: validate_scheme(replace(build_canonical_scheme(3), n=0)), "'n'"),
    # arrays from outside follow the number rule of ``graded._number_array``: strings
    # and other objects are refused, never parsed or cast
    "map-string-domain": (lambda: BlockMap(2, {0: (_STRINGS, np.eye(2))}), "block 0"),
    "map-string-image": (lambda: BlockMap(2, {3: (np.eye(2), _STRINGS)}), "block 3"),
    "map-object-domain": (lambda: BlockMap(2, {0: ([[1, None], [0, 1]], np.eye(2))}), "block 0"),
    "window-string-amps": (lambda: GradedVector.from_window(0, [["1", "0"]]), "numbers"),
    "observable-string-family": (lambda: Observable([0, 1], [["1", "0"], ["0", "1"]]), "numbers"),
    "observable-string-value": (lambda: Observable(["0", "1"], [[1, 0], [0, 1]]), "numbers"),
    "born-string-state": (
        lambda: born_distribution(Observable([0, 1], [[1, 0], [0, 1]]), ["1", "0"]),
        "numbers",
    ),
    "exact-data-strings": (lambda: ExactSchemeData(2, ["1", "0"], *np.zeros((4, 2))), "x: "),
}


@pytest.mark.parametrize("call, match", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_lenient_input_is_refused_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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

    def test_blocks_are_views_into_one_stack(self):
        rng = np.random.default_rng(8)
        given = {4: 2, -1: 1, 2: 3, 0: 0}  # label: column count
        blocks = {n: _block(rng, 3, m, "isometry") for n, m in given.items()}
        m = BlockMap(3, blocks)
        assert list(m.blocks) == [4, -1, 2, 0]
        assert m.sectors() == (-1, 0, 2, 4)
        stacks = m.blocks[2][0].base, m.blocks[2][1].base
        assert stacks[0] is not None and stacks[0].shape == stacks[1].shape == (4, 3, 3)
        for n, (dom, img) in m.blocks.items():
            assert dom.base is stacks[0] and img.base is stacks[1]
            np.testing.assert_array_equal(dom, blocks[n][0])
            np.testing.assert_array_equal(img, blocks[n][1])
        with pytest.raises(TypeError):
            m.blocks[0] = m.blocks[4]

    def test_block_shapes_checked(self):
        with pytest.raises(ValueError, match="block 0: domain shape"):
            BlockMap(2, {0: (np.eye(3), np.eye(3))})
        with pytest.raises(ValueError, match="block 1: image shape"):
            BlockMap(2, {1: (np.eye(2), np.eye(2)[:, :1])})

    def test_nan_image_is_not_completed(self):
        eye = np.eye(2, dtype=complex)
        img = eye.copy()
        img[0, 1] = np.nan
        m = BlockMap(2, {0: (eye, eye), 1: (eye, img)})
        with pytest.raises(ValueError, match="non-isometric"):
            m.completed()


def _block(rng, d, m, kind):
    """``(domain, image)`` of ``m`` columns; ``kind`` repeats a column or stretches the image."""
    if m == 0:
        return np.zeros((d, 0)), np.zeros((d, 0))

    def orthonormal():
        return np.linalg.qr(rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)))[0]

    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    dom, img = orthonormal() @ r, orthonormal() @ r
    if kind == "repeated" and m >= 2:
        dom[:, 1], img[:, 1] = dom[:, 0], img[:, 0]
    if kind == "stretched":
        img *= 1.5
    return dom, img


def _input(rng, blocks, d, defect):
    """Vector inside the domain on a random subset of the blocks, plus an optional defect.

    ``defect`` is ``"perp"`` (a unit component orthogonal to a block's
    domain, where one is rank deficient) or ``"missing"`` (a sector no
    block covers).
    """
    sectors = {}
    for n, (dom, _) in blocks.items():
        if rng.random() < 0.7:
            m = dom.shape[1]
            sectors[n] = dom @ (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    deficient = [n for n, (dom, _) in blocks.items() if np.linalg.matrix_rank(dom) < d]
    if defect == "perp" and deficient:
        n = deficient[int(rng.integers(len(deficient)))]
        dom = blocks[n][0]
        perp = np.linalg.svd(dom)[0][:, -1] if dom.shape[1] else np.eye(d)[0]
        sectors[n] = sectors.get(n, np.zeros(d)) + perp
    elif defect is not None:
        free = sorted(set(range(-45, 46)) - set(blocks))
        sectors[free[int(rng.integers(len(free)))]] = np.ones(d)
    return GradedVector(d, sectors)


@st.composite
def _block_cases(draw):
    """Block maps with mixed column counts 0..d on scattered labels, and inputs to map."""
    d = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(-40, 40), unique=True, max_size=5))
    shapes = [
        (draw(st.integers(0, d)), draw(st.sampled_from(["isometry", "repeated", "stretched"])))
        for _ in labels
    ]
    defects = draw(st.lists(st.sampled_from([None, None, "perp", "missing"]), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = {n: _block(rng, d, m, kind) for n, (m, kind) in zip(labels, shapes)}
    return d, blocks, [_input(rng, blocks, d, defect) for defect in defects]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


class TestLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(_block_cases())
    def test_stacked_blocks_match_per_block_loops(self, case):
        d, blocks, inputs = case
        m, ref = BlockMap(d, blocks), LoopBlockMap(d, blocks)
        assert list(m.blocks) == list(ref.blocks)
        defects = ref.isometry_defects()
        report = check_conserving(m)
        assert [cid for cid, _ in report.entries] == ["grading"] + [
            f"isometry[{n}]" for n in defects
        ]
        np.testing.assert_allclose(
            [r for _, r in report.entries[1:]], list(defects.values()), rtol=1e-12, atol=1e-12
        )
        if max(defects.values(), default=0.0) <= 1e-8:
            full, ref_full = m.completed(), ref.completed()
            assert list(full.blocks) == list(ref_full.blocks)
            for n, (dom, img) in ref_full.blocks.items():
                np.testing.assert_allclose(full.blocks[n][0], dom, rtol=0, atol=1e-12)
                np.testing.assert_allclose(full.blocks[n][1], img, rtol=0, atol=1e-12)
        else:
            with pytest.raises(ValueError, match="non-isometric"):
                m.completed()
        for v in inputs:
            (kind, got), (ref_kind, want) = _outcome(m.apply, v), _outcome(ref.apply, v)
            assert kind == ref_kind
            assert got.allclose(want, atol=1e-9) if kind == "ok" else got == want
        (kind, got), (ref_kind, want) = (
            _outcome(orthogonality_transfer_check, m, inputs),
            _outcome(ref.gram_matrices, inputs),
        )
        assert kind == ref_kind
        if kind == "ok":
            for g, g_ref in zip(got, want):
                assert g.shape == (len(inputs), len(inputs))
                np.testing.assert_allclose(g, g_ref, rtol=1e-9, atol=1e-9)
        else:
            assert got == want


def _conserving_pin():
    rng = np.random.default_rng(3)

    def orth(m):
        return np.linalg.qr(rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m)))[0]

    m = BlockMap(4, {nu: (orth(k), orth(k)) for nu, k in zip((7, -4, 1), (2, 1, 2))})
    return check_conserving(m)


def _exact_pin(n):
    return exact_constraint_residual(infeasibility_certificate(n).minimizer)


#: sha256 of ``json.dumps(report.to_dict())`` as the tuple-based reports wrote it.
_PINNED_REPORTS = {
    "validate-1": (
        lambda: validate_scheme(build_canonical_scheme(1)),
        "ec685a65e92272dc44d75320f6181c8294ffd9ae594685eb0fe804063c1558dc",
    ),
    "validate-4": (
        lambda: validate_scheme(build_canonical_scheme(4)),
        "0f953ef6482ad9fcba8d45a37ed6c07dcc12819d4337800d58a7b1bce4550ab6",
    ),
    "validate-64": (
        lambda: validate_scheme(build_canonical_scheme(64)),
        "5bf87ce05c505231d902f42af6a5f1815d507667621bd6c8d0d7f439d9b7477d",
    ),
    "validate-1000": (
        lambda: validate_scheme(build_canonical_scheme(1000)),
        "8fe4da1a52933397bcc1370516ddc7ea4cc0c716160ec1d3c043d3cca6aa7d89",
    ),
    "exact-1": (
        lambda: _exact_pin(1),
        "d5bd4b4c865adb33e1b89e530be41c466874e9adc13950914faf2ad240a56179",
    ),
    "exact-4": (
        lambda: _exact_pin(4),
        "9e67614baaa2109bd683da067cb677237d303e89c08732b44542d1f1c283b147",
    ),
    "exact-64": (
        lambda: _exact_pin(64),
        "4192acd95a9171d8ebfab245bbc5eda770e5d9669b4d661a93157b7f4b2c7cb4",
    ),
    "conserving": (
        _conserving_pin,
        "d974ab633009e94e50ef0048d639c12b34f3f14b42c4e7dd76c2d6ad42bbbf0f",
    ),
}


class TestConstraintReport:
    def test_nan_residual_never_passes(self):
        # a NaN after the first entry: built-in max() would skip it
        report = ConstraintReport((("a", 1e-16), ("b", float("nan")), ("c", 0.0)))
        assert np.isnan(report.max_residual)
        assert not report.passed()
        assert not report.passed(np.inf)
        assert ConstraintReport((("a", 0.0), ("b", np.inf))).max_residual == np.inf
        assert ConstraintReport(()).passed()

    def test_residuals_are_one_read_only_array(self):
        report = validate_scheme(build_canonical_scheme(5))
        assert report._residuals.dtype == np.float64
        assert len(report._residuals) == len(report.entries)
        with pytest.raises(ValueError, match="read-only"):
            report._residuals[0] = 1.0

    @pytest.mark.parametrize("make, digest", _PINNED_REPORTS.values(), ids=_PINNED_REPORTS.keys())
    def test_report_bytes_pinned(self, make, digest):
        text = json.dumps(make().to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _float_bits(value):
    return struct.pack("<d", value)


def _entry_bits(report):
    return [(cid, _float_bits(r)) for cid, r in report.entries]


#: Tolerances at which ``passed`` is compared, from below the smallest residual to inf.
_TOLS = [0.0, 5e-324, 1e-300, 1e-12, graded.DEFAULT_TOL, 1e-3, 1.0, 1e300, math.inf]


def _assert_same_report(report, ref):
    """``report`` reads as the tuple reference ``ref`` in every public view, to the bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _entry_bits(report) == _entry_bits(ref)
        assert _float_bits(report.max_residual) == _float_bits(ref.max_residual)
        assert _float_bits(report.sum_squares) == _float_bits(ref.sum_squares)
        assert [report.passed(tol) for tol in _TOLS] == [ref.passed(tol) for tol in _TOLS]
        ids = list(dict.fromkeys(cid for cid, _ in ref.entries))
        for cid in ids:
            assert _float_bits(report.entry(cid)) == _float_bits(ref.entry(cid)), cid
        with pytest.raises(KeyError, match="absent"):
            report.entry("absent")
        for prefix in {"", "absent", *(cid[:k] for cid in ids[:4] for k in (1, 4, len(cid)))}:
            assert _entry_bits(report.filter(prefix)) == _entry_bits(ref.filter(prefix))
        assert json.dumps(report.to_dict()) == json.dumps(ref.to_dict())
    twin = ConstraintReport(ref.entries)
    assert report == twin and hash(report) == hash(twin)
    if ref.entries:
        changed = ConstraintReport(ref.entries[:-1] + ((ref.entries[-1][0], -1.0),))
        assert report != changed


_RESIDUALS = st.one_of(
    st.sampled_from([math.nan, math.inf, 0.0, 5e-324, 1e300]), st.floats(0.0, 1e3)
)
_IDS = st.sampled_from(["a", "ab", "a[1]", "norm-xi", "isometry[-3]", "weights-rho[10]"])
_DATA_VALUES = [0.0, 0.125, 0.5, 5e-324, 1e300, math.inf, math.nan]


@st.composite
def _scheme_reports(draw):
    """Validation of a canonical scheme, or of one with an amplitude scaled by ``1 + 1e-3``."""
    s = build_canonical_scheme(draw(st.integers(1, 40)))
    name = draw(st.sampled_from([None, "xi", "sigma", "tau", "rho"]))
    sectors = dict(getattr(s, name).items()) if name else {}
    if sectors:
        nu = draw(st.sampled_from(sorted(sectors)))
        sectors[nu] = sectors[nu] * (1 + 1e-3)
        s = replace(s, **{name: GradedVector(s.d, sectors)})
    return validate_scheme(s)


@st.composite
def _exact_reports(draw):
    """Exact-system residuals of data with NaN, inf, 5e-324 and 1e300 entries."""
    n = draw(st.integers(1, 8))
    squared = st.lists(st.sampled_from(_DATA_VALUES), min_size=n, max_size=n)
    signed = st.lists(
        st.sampled_from(_DATA_VALUES + [-v for v in _DATA_VALUES]), min_size=n, max_size=n
    )
    rows = [draw(squared) for _ in range(3)] + [draw(signed) for _ in range(2)]
    return exact_constraint_residual(ExactSchemeData(n, *rows))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTupleReference:
    """The array report against ``oracles.TupleConstraintReport``, the tuple form it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_IDS, _RESIDUALS), max_size=12))
    def test_plain_ids(self, pairs):
        pairs = tuple(pairs)
        _assert_same_report(ConstraintReport(pairs), TupleConstraintReport(pairs))

    @settings(max_examples=60, deadline=None)
    @given(_scheme_reports())
    def test_scheme_validation(self, report):
        _assert_same_report(report, TupleConstraintReport(report.entries))

    @settings(max_examples=100, deadline=None)
    @given(_exact_reports())
    def test_exact_system_on_non_finite_data(self, report):
        _assert_same_report(report, TupleConstraintReport(report.entries))

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_certificate_minimizer(self, n):
        report = exact_constraint_residual(infeasibility_certificate(n).minimizer)
        _assert_same_report(report, TupleConstraintReport(report.entries))

    @settings(max_examples=60, deadline=None)
    @given(_block_cases())
    def test_block_maps(self, case):
        d, blocks, _ = case
        report = check_conserving(BlockMap(d, blocks))
        _assert_same_report(report, TupleConstraintReport(report.entries))


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
