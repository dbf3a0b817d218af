"""Tests for the charge-graded vector algebra."""

import hashlib
import json
import math
import struct
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    DictGraded,
    LoopBlockMap,
    TupleConstraintReport,
    chunked_column_dots,
    chunked_vdot,
)
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
    interaction_blocks,
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

    def test_scalar_product_keeps_its_window_and_refuses_non_numbers(self):
        v = GradedVector.from_window(-1, [[0.0, 0.0], [1.0, -0.0], [2j, 0.0]])
        half = 0.5 * v
        assert _bits(half) == _bits(GradedVector.from_window(v._lo, 0.5 * v._amps))
        assert not half._amps.flags.writeable
        assert _bits(v * np.float32(3)) == _bits(GradedVector.from_window(v._lo, 3 * v._amps))
        # a broadcast factor keeps from_window's reading of the product
        assert (v * np.array([1.0, 2.0])).sector(v._lo + 1)[1] == 0.0
        assert (GradedVector(1, {0: [1.0]}) * np.ones(3)).d == 3
        with pytest.raises(ValueError, match="not an array of numbers"):
            Fraction(1, 2) * v
        with pytest.raises(ValueError, match="window shape"):
            v * np.ones((2, 1, 1))
        with pytest.raises(ValueError, match="window shape"):
            GradedVector(1, {0: [1.0]}) * np.ones(0)

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


_dot_parts = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.floats(),
)


@st.composite
def _dot_operands(draw, sizes):
    """Two same-shape real or complex arrays of ``sizes`` entries, flat or ``(k, d)``.

    Each operand repeats a short drawn pattern (special values included) and
    overwrites a few drawn entries, so long arrays stay cheap to draw.
    """
    kind = draw(st.sampled_from([np.float64, np.complex128]))
    size = draw(sizes)
    width = draw(st.sampled_from([0, 1, 2, 4]).filter(lambda w: w == 0 or size % w == 0))
    parts = 2 if kind is np.complex128 else 1
    operands = []
    for _ in range(2):
        pattern = draw(st.lists(_dot_parts, min_size=1, max_size=12))
        flat = np.resize(np.array(pattern), size * parts)
        spikes = st.tuples(st.integers(0, max(size * parts - 1, 0)), _dot_parts)
        for i, value in draw(st.lists(spikes, max_size=4 if size else 0)):
            flat[i] = value
        arr = flat.view(kind)
        operands.append(arr.reshape(-1, width) if width else arr)
    return operands


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestDot:
    """``graded._dot``: one ``np.vdot`` up to the chunk size, fixed-order chunk sums above it."""

    @settings(max_examples=150, deadline=None)
    @given(_dot_operands(st.integers(0, graded._DOT_CHUNK)))
    @example([np.array([-0.0]), np.array([0.0])])
    @example([np.array([complex(5e-324, math.nan)]), np.array([complex(-0.0, math.inf)])])
    @example([np.full(graded._DOT_CHUNK, 1e-3 + 1j), np.full(graded._DOT_CHUNK, 3.0 - 0.0j)])
    def test_short_products_are_one_vdot(self, operands):
        a, b = operands
        with np.errstate(all="ignore"):
            got = graded._dot(a, b)
            assert _same_bits(got, np.vdot(a, b))
            if a.dtype == np.float64 and a.ndim == 1:
                # the 1-D ``@`` that real call sites used before
                assert _same_bits(got, a @ b)

    @settings(max_examples=30, deadline=None)
    @given(_dot_operands(st.integers(graded._DOT_CHUNK + 1, 4 * graded._DOT_CHUNK)))
    @example([np.full(graded._DOT_CHUNK + 1, -0.0), np.full(graded._DOT_CHUNK + 1, 0.0)])
    def test_long_products_are_fixed_order_chunk_sums(self, operands):
        a, b = operands
        with np.errstate(all="ignore"):
            assert _same_bits(graded._dot(a, b), chunked_vdot(a, b, graded._DOT_CHUNK))

    def test_mixed_integer_weights_keep_the_bits_of_matmul(self):
        # charge_expectation's weighted label sum, up to the chunk size
        rng = np.random.default_rng(17)
        for k in (5, graded._DOT_CHUNK):
            labels, weights = np.arange(-3, k - 3), rng.random(k)
            assert _same_bits(graded._dot(labels, weights), labels @ weights)


@st.composite
def _column_dot_operands(draw, entries):
    """A complex ``(n, k)`` matrix of ``entries[0]..entries[1]`` entries and a length-``n`` vector."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(-(-entries[0] // k), entries[1] // k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, n, k + 1))
    z = parts[0] + 1j * parts[1]
    return z[:, :k], z[:, k]


class TestColumnDots:
    """``graded._column_dots``: one product up to the chunk size, fixed-order row-run sums above it."""

    @settings(max_examples=60, deadline=None)
    @given(_column_dot_operands((1, graded._DOT_CHUNK)))
    def test_short_products_are_one_product(self, operands):
        a, b = operands
        assert _same_bits(graded._column_dots(a, b), a.conj().T @ b)

    @settings(max_examples=20, deadline=None)
    @given(_column_dot_operands((graded._DOT_CHUNK + 1, 4 * graded._DOT_CHUNK)))
    def test_long_products_are_fixed_order_row_run_sums(self, operands):
        a, b = operands
        got = graded._column_dots(a, b)
        assert _same_bits(got, chunked_column_dots(a, b, graded._DOT_CHUNK))


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
        stack = m.blocks[2][0].base
        assert stack is not None and stack.shape == (2, 4, 3, 3)
        for n, (dom, img) in m.blocks.items():
            assert dom.base is stack and img.base is stack
            np.testing.assert_array_equal(dom, blocks[n][0])
            np.testing.assert_array_equal(img, blocks[n][1])
        with pytest.raises(TypeError):
            m.blocks[0] = m.blocks[4]

    def test_block_shapes_checked(self):
        with pytest.raises(ValueError, match="block 0: domain shape"):
            BlockMap(2, {0: (np.eye(3), np.eye(3))})
        with pytest.raises(ValueError, match="block 1: image shape"):
            BlockMap(2, {1: (np.eye(2), np.eye(2)[:, :1])})

    def test_full_rank_bases_are_complete_as_given(self):
        # the QR of a full stack would be overwritten column for column
        rng = np.random.default_rng(4)
        shape = (2, 3, 3, 3)
        q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        expected = q.copy()
        assert graded._extend_basis(q, 3) is q
        np.testing.assert_array_equal(q, expected)

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


_CALLS = ("apply", "transfer", "conserving", "completed")


def _call(m, call, inputs):
    """Bytes of one block-map call (``(name, j)``: input ``j``, or the first ``j``), or its error."""
    name, j = call
    try:
        if name == "apply":
            image = m.apply(inputs[j % len(inputs)])
            return image._lo, image._amps.shape, image._amps.tobytes()
        if name == "transfer":
            return [g.tobytes() for g in orthogonality_transfer_check(m, inputs[:j])]
        if name == "conserving":
            report = check_conserving(m)
            return [cid for cid, _ in report.entries], report._residuals.tobytes()
        return [(n, dom.tobytes(), img.tobytes()) for n, (dom, img) in m.completed().blocks.items()]
    except ValueError as exc:
        return str(exc)


class TestKeptState:
    """A block map keeps its SVD factors and defects; every call returns what a fresh map would."""

    def test_stacks_are_read_only(self):
        m = random_isometry_blocks(np.random.default_rng(2), 3, [0, 2], 2)
        for built in m, m.completed(), interaction_blocks(build_canonical_scheme(3)):
            n = built.sectors()[0]
            for stack in built.blocks[n]:
                with pytest.raises(ValueError, match="read-only"):
                    stack[0, 0] = 1.0

    @settings(max_examples=120, deadline=None)
    @given(
        _block_cases(),
        st.lists(st.tuples(st.sampled_from(_CALLS), st.integers(0, 3)), min_size=1, max_size=8),
        st.sampled_from([1, 2, 256]),
    )
    def test_each_call_matches_a_fresh_map(self, case, calls, run):
        # slices of one or two blocks factor a mixed map of up to five blocks in several calls
        d, blocks, inputs = case
        calls = [c for c in calls if c[0] != "apply" or inputs]
        with mock.patch.object(graded, "_SLICE", run):
            kept = BlockMap(d, blocks)
            got = [_call(kept, c, inputs) for c in calls]
            fresh = [_call(BlockMap(d, blocks), c, inputs) for c in calls]
        assert got == fresh
        # the factors of one block do not depend on the slice it is factored in
        assert fresh == [_call(BlockMap(d, blocks), c, inputs) for c in calls]

    @pytest.mark.parametrize("widths", ["mixed", "uniform"])
    def test_each_block_is_factored_once(self, widths):
        # 2 * _SLICE + 3 blocks, so three slices; one svd call per slice and width
        size = graded._SLICE
        if widths == "mixed":  # the slices hold widths {1, 2}, {0, 1, 2, 3} and {2}, at d = 2
            cols = [1 + i % 2 for i in range(size)]
            cols += [3 if i % 7 == 0 else i % 3 for i in range(size)] + [2] * 3
            calls = 2 + 4 + 1
        else:
            cols, calls = [2] * (2 * size + 3), 1
        rng = np.random.default_rng(4)
        # a block of three columns repeats one column: over-wide, rank one and isometric
        blocks = {
            3 * i: _block(rng, 2, c, "isometry") if c < 3 else (np.ones((2, 3)),) * 2
            for i, c in enumerate(cols)
        }
        m = BlockMap(2, blocks)
        v = GradedVector(2, {3 * i: blocks[3 * i][0].sum(axis=1) for i in range(0, len(cols), 5)})
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            for _ in range(2):
                check_conserving(m)
                m.apply(v)
                orthogonality_transfer_check(m, [v, 2 * v])
                m.completed()
                assert svd.call_count == calls


def _error_order_map():
    """Map on sectors 0, 3 and 6 (d = 2), each block one column along ``e0``."""
    e0 = np.array([[1.0], [0.0]])
    return BlockMap(2, {nu: (e0, 1j * e0) for nu in (0, 3, 6)})


def _vec(sectors):
    return GradedVector(2, sectors)


#: Rows along ``e1``, off every block's domain, and along ``e0``, in it.
_OFF, _ON = [0.0, 1.0], [1.0, 0.0]
_OFF_AT_3 = "sector 3: component outside the declared domain"
_UNDECLARED = "sector {} outside the declared domain"


class TestBlockMapErrorOrder:
    """Which row a block map names when inputs leave its domain, and what it accepts."""

    def test_domain_error_of_an_earlier_input_comes_before_a_dimension_mismatch(self):
        m = _error_order_map()
        early = _vec({0: _ON, 3: _OFF})
        wrong_d = GradedVector(3, {0: [1.0, 0.0, 0.0]})
        with pytest.raises(ValueError, match=_OFF_AT_3):
            orthogonality_transfer_check(m, [early, wrong_d])
        with pytest.raises(ValueError, match=_OFF_AT_3):
            m.apply(early)
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            orthogonality_transfer_check(m, [_vec({0: _ON}), wrong_d])
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            m.apply(wrong_d)

    @pytest.mark.parametrize(
        "inputs, message",
        [
            # within one vector the lowest label is named, off-domain or undeclared
            ([_vec({3: _OFF, 5: _ON, 6: _OFF})], _OFF_AT_3),
            ([_vec({-2: _ON, 3: _OFF})], _UNDECLARED.format(-2)),
            ([_vec({0: _ON, 4: _ON, 6: _OFF})], _UNDECLARED.format(4)),
            # across vectors the first vector is named, though a later one has a lower label
            ([_vec({0: _ON}), _vec({3: _OFF}), _vec({-5: _ON})], _OFF_AT_3),
            ([_vec({9: _ON}), _vec({3: _OFF})], _UNDECLARED.format(9)),
        ],
    )
    def test_first_offending_row_by_vector_then_label(self, inputs, message):
        m, ref = _error_order_map(), LoopBlockMap(2, _error_order_map().blocks)
        with pytest.raises(ValueError, match=message):
            orthogonality_transfer_check(m, inputs)
        with pytest.raises(ValueError, match=message):
            ref.gram_matrices(inputs)
        bad = next(v for v in inputs if _outcome(ref.apply, v)[0] == "error")
        with pytest.raises(ValueError, match=message):
            m.apply(bad)

    def test_interior_zero_rows_at_undeclared_labels_are_accepted(self):
        m = _error_order_map()
        # rows 1..5 are zero (only 3 is declared), and row 2 holds -0.0 entries
        window = np.zeros((7, 2), dtype=complex)
        window[[0, 3, 6], 0] = [0.6, 0.0, -0.8]
        window[2] = complex(-0.0, -0.0)
        u = GradedVector.from_window(0, window)
        v = _vec({3: [2.0, 0.0]})
        assert u.support() == (0, 6)
        image = m.apply(u)
        assert image.support() == (0, 6)
        np.testing.assert_array_equal(image.sector(0), [0.6j, 0.0])
        np.testing.assert_array_equal(image.sector(6), [-0.8j, 0.0])
        pre, post = orthogonality_transfer_check(m, [u, v])
        np.testing.assert_allclose(pre, [[1.0, 0.0], [0.0, 4.0]], atol=1e-15)
        np.testing.assert_allclose(post, pre, atol=1e-15)

    def test_inputs_spanning_too_wide_a_window_are_refused(self):
        e0 = np.array([[1.0], [0.0]])
        m = BlockMap(2, {-(2**40): (e0, e0), 2**40: (e0, e0)})
        far = [_vec({nu: _ON}) for nu in (-(2**40), 2**40)]
        with pytest.raises(ValueError, match="2 inputs over sector labels .* span more than"):
            orthogonality_transfer_check(m, far)


class TestUnfactoredAndNonFinite:
    """Inputs with no declared sector factor nothing; non-finite domains and rows never fit."""

    def test_a_window_without_a_declared_sector_factors_nothing(self):
        s = build_canonical_scheme(50)
        past = max(interaction_blocks(s).sectors()) + 3
        stray = GradedVector(2 * s.d, {past: np.ones(2 * s.d)})
        zero = GradedVector(2 * s.d)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            image = interaction_blocks(s).apply(zero)
            pre, post = orthogonality_transfer_check(interaction_blocks(s), [zero, zero])
            with pytest.raises(ValueError, match=f"^sector {past} outside the declared domain$"):
                interaction_blocks(s).apply(stray)
            with pytest.raises(ValueError, match=f"^sector {past} outside the declared domain$"):
                orthogonality_transfer_check(interaction_blocks(s), [zero, stray])
        assert svd.call_count == 0
        assert image.is_zero() and image.d == 2 * s.d
        np.testing.assert_array_equal(pre, np.zeros((2, 2)))
        np.testing.assert_array_equal(post, np.zeros((2, 2)))

    def test_an_infinite_domain_fits_no_input(self):
        # the SVD of [[inf], [0]] is NaN, so every residual against it is NaN
        m = BlockMap(2, {0: (np.array([[np.inf], [0.0]]), np.array([[1.0], [0.0]]))})
        for v in _vec({0: [0.0, 1.0]}), _vec({0: [1.0, 0.0]}):
            with pytest.raises(ValueError, match="sector 0: component outside .* residual nan"):
                m.apply(v)
            with pytest.raises(ValueError, match="sector 0: component outside .* residual nan"):
                orthogonality_transfer_check(m, [v])

    def test_a_nan_domain_is_refused_by_its_label(self):
        # the whole map is factored on first use, so a NaN domain anywhere is named
        e0, nan = np.array([[1.0], [0.0]]), np.array([[np.nan], [0.0]])
        m = BlockMap(2, {0: (e0, e0), 5: (nan, e0), 7: (nan, e0)})
        with pytest.raises(ValueError, match="^block 5: domain is not finite$"):
            m.apply(_vec({0: _ON}))
        with pytest.raises(ValueError, match="^block 5: domain is not finite$"):
            orthogonality_transfer_check(m, [_vec({0: _ON})])
        with pytest.raises(ValueError, match="non-isometric map \\(defect nan\\)"):
            m.completed()

    def test_a_huge_row_off_the_domain_does_not_fit(self):
        # its squared norm overflows to inf (with a RuntimeWarning), as would an unscaled bound
        m = _error_order_map()
        off = "sector 3: component outside .* residual 1.000e\\+200"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match=off):
                m.apply(_vec({0: _ON, 3: [0.0, 1e200]}))
            with pytest.raises(ValueError, match=off):
                orthogonality_transfer_check(m, [_vec({3: [1e200, 1e200]})])
            image = m.apply(_vec({3: [1e200, 0.0]}))
        np.testing.assert_array_equal(image.sector(3), [1e200j, 0.0])

    def test_a_nan_row_in_a_declared_sector_does_not_fit(self):
        m = _error_order_map()
        with pytest.raises(ValueError, match="sector 3: component outside .* residual nan"):
            m.apply(_vec({0: _ON, 3: [np.nan, 0.0]}))
        with pytest.raises(ValueError, match="sector 3: component outside .* residual nan"):
            orthogonality_transfer_check(m, [_vec({0: _ON}), _vec({3: [1.0, np.nan]})])


def _every_call(m, inputs):
    """Bytes of every block-map call on ``m``, its completion's report included, or their errors."""
    calls = [("apply", j) for j in range(len(inputs))]
    calls += [("transfer", len(inputs)), ("conserving", 0), ("completed", 0)]
    got = [_call(m, c, inputs) for c in calls]
    try:
        full = m.completed()
    except ValueError as exc:
        return got + [str(exc)]
    return got + [_call(full, ("conserving", 0), inputs), _call(full, ("apply", 0), inputs)]


def _per_block(make, inputs):
    """:func:`_every_call` on a fresh map from ``make`` that looks for no runs of equal blocks."""
    with mock.patch.object(graded, "_SLICE", 10**9):
        m = make()
        assert m._representatives() is None
        return _every_call(m, inputs)


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _run_count(m):
    runs = m._representatives()
    return len(m.sectors()) if runs is None else len(runs[0].sectors())


class TestRuns:
    """Each run of equal neighbouring blocks is worked once; every call keeps per-block bits."""

    @pytest.mark.parametrize("n", [300, 1000, 3000])
    def test_canonical_map_is_three_runs(self, n):
        s = build_canonical_scheme(n)
        labels = interaction_blocks(s).sectors()
        one = GradedVector(2 * s.d, {n // 2: tensor(ObjectState(1, 0), s.xi).sector(n // 2)})
        inputs = [one] + [tensor(ObjectState(a, b), s.xi) for a, b in ((1, 0), (0.6, 0.8j))]
        # the first one-sector apply on a fresh map factors the three representatives alone
        m = interaction_blocks(s)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            m.apply(one)
        assert sum(call.args[0].shape[0] for call in svd.call_args_list) == 3
        assert m._representatives()[0].sectors() == (labels[0], labels[1], labels[-1])
        assert _run_count(m.completed()) == 3
        assert _every_call(interaction_blocks(s), inputs) == _per_block(
            lambda: interaction_blocks(s), inputs
        )

    def test_optimized_map_has_no_runs(self):
        s = optimize_scheme(300)
        inputs = [tensor(ObjectState(1, 0), s.xi), tensor(ObjectState(0, 1), s.xi)]
        assert interaction_blocks(s)._representatives() is None
        assert _every_call(interaction_blocks(s), inputs) == _per_block(
            lambda: interaction_blocks(s), inputs
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_runs_across_slices(self, seed):
        # runs of 1..3 or 1..400 equal blocks over about 900 labels, some across the 256-block
        # slices; widths 0..d + 1 (d + 1: a repeated column, rank deficient), some stretched
        rng = np.random.default_rng(seed)
        d, blocks, label = int(rng.integers(2, 5)), {}, -450
        while label < 450:
            kind = ["isometry", "repeated", "stretched"][int(rng.integers(3))]
            c = int(rng.integers(0, d + 2))
            block = _block(rng, d, c, kind) if c <= d else (np.ones((d, c)), np.ones((d, c)))
            length = int(rng.integers(1, (4, 400)[seed % 2]))
            blocks.update(dict.fromkeys(range(label, label + length), block))
            label += length
        if seed >= 2:  # an isometric map, so that completed runs too
            blocks = {n: b if np.allclose(b[0].conj().T @ b[0], b[1].conj().T @ b[1]) else
                      _block(rng, d, 0, "isometry") for n, b in blocks.items()}
        inputs = [_input(rng, blocks, d, None) for _ in range(3)]
        assert _run_count(BlockMap(d, blocks)) < len(blocks)
        for family in inputs, inputs + [_input(rng, blocks, d, "perp")]:
            assert _every_call(BlockMap(d, blocks), family) == _per_block(
                lambda: BlockMap(d, blocks), family
            )

    @pytest.mark.parametrize("other", [-0.0, _float(0x7FF8000000000001)], ids=["zero", "nan"])
    def test_blocks_differing_in_a_zero_sign_or_nan_payload_do_not_merge(self, other):
        eye = np.eye(2)
        same = eye.copy()
        same[0, 1] = np.nan if other != other else 0.0
        changed = eye.copy()
        changed[0, 1] = other
        # pairs of equal blocks: 300 runs of two, whose neighbours differ in one entry's bits
        blocks = {n: (same, eye) if n // 2 % 2 else (changed, eye) for n in range(600)}
        m = BlockMap(2, blocks)
        assert _run_count(m) == 300
        inputs = [_vec({0: [1.0, 0.0], 3: [0.0, 2.0]})]
        assert _every_call(BlockMap(2, blocks), inputs) == _per_block(
            lambda: BlockMap(2, blocks), inputs
        )

    def test_a_repeated_nan_block_is_refused_by_its_first_label(self):
        e0, nan = np.array([[1.0], [0.0]]), np.array([[np.nan], [0.0]])
        blocks = {n: (nan if 300 <= n < 700 else e0, e0) for n in range(900)}
        m = BlockMap(2, blocks)
        assert _run_count(m) == 3
        with pytest.raises(ValueError, match="^block 300: domain is not finite$"):
            m.apply(_vec({0: _ON}))
        inputs = [_vec({0: _ON}), _vec({800: _ON})]
        assert _every_call(BlockMap(2, blocks), inputs) == _per_block(
            lambda: BlockMap(2, blocks), inputs
        )


def _completed_pin(widths):
    """Bytes of ``completed()`` blocks of a seeded isometry with ``widths`` columns per block.

    The blocks are ``Q R`` in domain and image with one ``R``, so the map
    is isometric without orthonormal columns; a block of three columns
    repeats its first, which makes it rank deficient, and a block of none
    is completed from the identity alone.
    """
    rng = np.random.default_rng(11)
    blocks = {}
    for nu, m in zip((5, -3, 0, 2), widths):
        def orthonormal():
            return np.linalg.qr(rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m)))[0]

        r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        dom, img = orthonormal() @ r, orthonormal() @ r
        if m == 3:
            dom[:, 2], img[:, 2] = dom[:, 0], img[:, 0]
        blocks[nu] = (dom, img)
    full = BlockMap(4, blocks).completed()
    assert list(full.blocks) == [5, -3, 0, 2]
    return b"".join(np.ascontiguousarray(a).tobytes() for pair in full.blocks.values() for a in pair)


#: sha256 of the completed blocks as the per-column-count SVD and stacked QR wrote them.
_PINNED_COMPLETIONS = {
    "uniform": ((2, 2, 2, 2), "e9722bdac91d879a6927e01e5cae33cc8a15b411a880cfa8244686e32f1703a6"),
    "mixed-rank-deficient": (
        (2, 1, 3, 0),
        "0cd9d31b276a2dcc63b568edfcdcb00ef3d8f9ff51f910e7b5688d4101e7ba2f",
    ),
}


@pytest.mark.parametrize(
    "widths, digest", _PINNED_COMPLETIONS.values(), ids=_PINNED_COMPLETIONS.keys()
)
def test_completed_bytes_pinned(widths, digest):
    assert hashlib.sha256(_completed_pin(widths)).hexdigest() == digest


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
