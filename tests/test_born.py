"""Tests for the measurement postulate layer."""

import re

import numpy as np
import pytest

from waylab.born import (
    Observable,
    Outcome,
    OutcomeDistribution,
    born_distribution,
    counts_to_csv,
    sample_outcomes,
    three_outcome_stats,
)
from waylab.graded import ObjectState
from waylab.scheme import build_canonical_scheme, scheme_error


def basis(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


@pytest.fixture
def three_level():
    # q=1 doubly degenerate spanned by the first two basis vectors, q=2 simple.
    return Observable(
        eigenvalues=[1.0, 2.0],
        eigenspaces=[np.column_stack([basis(3, 0), basis(3, 1)]), basis(3, 2)],
    )


class TestBornDistribution:
    def test_eigenstate_is_certain(self, three_level):
        dist = born_distribution(three_level, basis(3, 2))
        assert dist.probability("2") == pytest.approx(1.0, abs=1e-15)
        assert dist.probability("1") == 0.0

    def test_equal_superposition_nondegenerate(self):
        obs = Observable(
            eigenvalues=[0.5, -0.5], eigenspaces=[basis(2, 0), basis(2, 1)]
        )
        phi = (basis(2, 0) + basis(2, 1)) / np.sqrt(2)
        dist = born_distribution(obs, phi)
        assert dist.probability("0.5") == pytest.approx(0.5, abs=1e-15)
        assert dist.probability("-0.5") == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(
            dist.outcomes[0].post_state, basis(2, 0), atol=1e-15
        )

    def test_degenerate_collapse_rule(self, three_level):
        phi = (basis(3, 0) + basis(3, 1) + np.sqrt(2) * basis(3, 2)) / 2.0
        dist = born_distribution(three_level, phi)
        assert dist.probability("1") == pytest.approx(0.5, abs=1e-12)
        expected_post = (basis(3, 0) + basis(3, 1)) / np.sqrt(2)
        np.testing.assert_allclose(
            dist.outcomes[0].post_state, expected_post, atol=1e-12
        )

    def test_outside_span_outcome_appended(self):
        obs = Observable(eigenvalues=[1.0], eigenspaces=[basis(3, 0)])
        phi = (basis(3, 0) + basis(3, 2)) / np.sqrt(2)
        dist = born_distribution(obs, phi)
        assert dist.labels() == ("1", "outside-span")
        assert dist.probability("outside-span") == pytest.approx(0.5, abs=1e-12)

    def test_requires_normalized_state(self, three_level):
        with pytest.raises(ValueError, match="normalized"):
            born_distribution(three_level, 2.0 * basis(3, 0))

    @pytest.mark.parametrize(
        "phi, shape", [([1.0, 0.0], "(2,)"), (np.eye(3), "(3, 3)"), (1.0, "()")]
    )
    def test_refuses_a_state_of_another_shape(self, three_level, phi, shape):
        message = f"state shape {shape} does not match the observable's (3,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            born_distribution(three_level, phi)

    def test_refuses_an_observable_without_eigenvalues(self):
        with pytest.raises(ValueError, match="^an observable needs at least one eigenvalue$"):
            Observable([], [])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_state(self, three_level, value):
        with pytest.raises(ValueError, match="normalized"):
            born_distribution(three_level, [value, 0.0, 0.0])

    def test_rejects_families_of_different_dimension(self):
        message = "eigenvector family 1 has shape (2,), but family 0 has dimension 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Observable([1, 2], [np.eye(3)[:, 0], np.eye(2)[:, 1]])

    @pytest.mark.parametrize("family, shape", [(np.zeros((2, 1, 1)), "(2, 1, 1)"), (1.0, "()")])
    def test_rejects_a_family_that_is_not_a_matrix(self, family, shape):
        message = f"eigenvector family 1 has shape {shape}, not (dim, multiplicity)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Observable([1, 2], [basis(2, 0), family])

    def test_rejects_non_orthonormal_families(self):
        v = basis(2, 0)
        with pytest.raises(ValueError, match="orthonormal"):
            Observable(eigenvalues=[1.0, 2.0], eigenspaces=[v, v])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_eigenvectors(self, value):
        with pytest.raises(ValueError, match="orthonormal"):
            Observable(eigenvalues=[1.0, 2.0], eigenspaces=[[value, 0.0], basis(2, 1)])

    @pytest.mark.parametrize(
        "eigenvalues", [[1.0000001, 1.0000002], [2.0, 2.0], [3, 3.0], [-0.0, 0.0]]
    )
    def test_rejects_eigenvalues_sharing_a_label(self, eigenvalues):
        # outcomes are keyed by the f"{q:g}" label of q or 0.0; two outcomes labelled "1"
        # would lose the first one's counts in sample_outcomes
        first, second = (repr(float(q)) for q in eigenvalues)
        with pytest.raises(ValueError, match=f"{first} and {second} share the outcome label"):
            Observable(eigenvalues=eigenvalues, eigenspaces=[basis(2, 0), basis(2, 1)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_eigenvalues(self, value):
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            Observable(eigenvalues=[value, value], eigenspaces=[basis(2, 0), basis(2, 1)])

    def test_close_eigenvalues_keep_every_shot(self):
        obs = Observable(eigenvalues=[1.0, 1.0001], eigenspaces=[basis(2, 0), basis(2, 1)])
        dist = born_distribution(obs, (basis(2, 0) + basis(2, 1)) / np.sqrt(2))
        assert dist.labels() == ("1", "1.0001")
        assert sum(sample_outcomes(dist, 1000, 7).values()) == 1000

    def test_negative_zero_reads_out_as_zero(self):
        # the label that files -0.0 under "0" is the one the distribution writes
        obs = Observable(eigenvalues=[-0.0, 1.0], eigenspaces=[basis(2, 0), basis(2, 1)])
        dist = born_distribution(obs, (basis(2, 0) + basis(2, 1)) / np.sqrt(2))
        assert dist.labels() == ("0", "1")
        assert set(sample_outcomes(dist, 100, 7)) == {"0", "1"}

    @pytest.mark.parametrize("seed", range(5))
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        q = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )[0]
        splits = sorted(rng.choice(range(1, dim), size=min(2, dim - 1), replace=False))
        families = np.split(q, splits, axis=1)
        obs = Observable(eigenvalues=list(range(len(families))), eigenspaces=families)
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi /= np.linalg.norm(phi)
        dist = born_distribution(obs, phi)
        assert sum(dist.probabilities()) == pytest.approx(1.0, abs=1e-12)


class TestThreeOutcomeStats:
    def test_plus_state_n3(self):
        s = build_canonical_scheme(3)
        amp = 2**-0.5
        dist = three_outcome_stats(s, ObjectState(amp, amp))
        assert dist.probability("plus") == pytest.approx(0.8, abs=1e-10)
        assert dist.probability("minus") == pytest.approx(0.0, abs=1e-10)
        assert dist.probability("undetermined") == pytest.approx(0.2, abs=1e-10)

    def test_minus_state_n3(self):
        s = build_canonical_scheme(3)
        amp = 2**-0.5
        dist = three_outcome_stats(s, ObjectState(amp, -amp))
        assert dist.probability("plus") == pytest.approx(0.0, abs=1e-10)
        assert dist.probability("minus") == pytest.approx(0.8, abs=1e-10)
        assert dist.probability("undetermined") == pytest.approx(0.2, abs=1e-10)

    def test_degenerate_size_one_apparatus(self):
        s = build_canonical_scheme(1)
        amp = 2**-0.5
        dist = three_outcome_stats(s, ObjectState(amp, amp))
        assert dist.probabilities() == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_undetermined_equals_scheme_error(self, n, sign):
        s = build_canonical_scheme(n)
        amp = 2**-0.5
        dist = three_outcome_stats(s, ObjectState(amp, sign * amp))
        assert dist.probability("undetermined") == pytest.approx(
            scheme_error(s), abs=1e-10
        )
        wrong = "minus" if sign > 0 else "plus"
        assert dist.probability(wrong) == pytest.approx(0.0, abs=1e-10)

    def test_probabilities_sum_to_one_generic_object(self):
        s = build_canonical_scheme(4)
        rng = np.random.default_rng(12)
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        dist = three_outcome_stats(s, ObjectState(raw[0], raw[1]))
        assert sum(dist.probabilities()) == pytest.approx(1.0, abs=1e-12)

    def test_post_states_normalized(self):
        s = build_canonical_scheme(3)
        amp = 2**-0.5
        dist = three_outcome_stats(s, ObjectState(amp, amp))
        for o in dist.outcomes:
            if o.probability > 1e-12:
                assert o.post_state.norm() == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_certain_outcome(self):
        s = build_canonical_scheme(1)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        counts = sample_outcomes(dist, 100, seed=5)
        assert counts["undetermined"] == 100

    def test_binomial_band(self):
        s = build_canonical_scheme(3)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        shots = 10**5
        counts = sample_outcomes(dist, shots, seed=424242)
        assert sum(counts.values()) == shots
        for label, prob in zip(dist.labels(), dist.probabilities()):
            band = 4.0 * np.sqrt(prob * (1.0 - prob) * shots)
            assert abs(counts[label] - prob * shots) <= max(band, 1.0)

    def test_fixed_seed_reproducible(self):
        s = build_canonical_scheme(2)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        a = sample_outcomes(dist, 1000, seed=99)
        b = sample_outcomes(dist, 1000, seed=99)
        assert a == b

    def test_shots_positive(self):
        s = build_canonical_scheme(2)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        with pytest.raises(ValueError, match="shots"):
            sample_outcomes(dist, 0, seed=1)

    @pytest.mark.parametrize(
        "shots, seed, field",
        [(10.0, 1, "shots"), (True, 1, "shots"), (-3, 1, "shots"), (10, 1.5, "seed"),
         (10, "7", "seed"), (10, True, "seed"), (10, -1, "seed")],
    )
    def test_refuses_non_integer_shots_and_seed(self, shots, seed, field):
        s = build_canonical_scheme(2)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        with pytest.raises(ValueError, match=field):
            sample_outcomes(dist, shots, seed)

    def test_shots_up_to_the_int64_range(self):
        s = build_canonical_scheme(2)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        assert sum(sample_outcomes(dist, 2**63 - 1, seed=5).values()) == 2**63 - 1
        with pytest.raises(ValueError, match=f"shots must be <= {2**63 - 1}, got {2**63}"):
            sample_outcomes(dist, 2**63, seed=5)

    @pytest.mark.parametrize(
        "probs, message",
        [((0.5, float("nan")), "probabilities sum to nan, not 1"),
         ((0.5, float("inf")), "probabilities sum to inf, not 1"),
         ((-0.5, 1.5), "probability of 'a' is negative: -0.5"),
         ((0.5, -0.0, 0.5, -1e-300), "probability of 'd' is negative: -1e-300")],
    )
    def test_refuses_nan_inf_and_negative_probabilities(self, probs, message):
        dist = OutcomeDistribution(
            tuple(Outcome(label, p, None) for label, p in zip("abcd", probs))
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_outcomes(dist, 10, seed=1)

    def test_numpy_integer_shots_and_seed(self):
        s = build_canonical_scheme(2)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        counts = sample_outcomes(dist, np.int64(1000), np.uint32(99))
        assert counts == sample_outcomes(dist, 1000, 99)

    def test_counts_csv_shape(self):
        s = build_canonical_scheme(2)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        counts = sample_outcomes(dist, 10, seed=3)
        csv = counts_to_csv(counts, dist)
        lines = csv.strip().split("\n")
        assert lines[0] == "label,count,probability"
        assert len(lines) == 4


class TestDistributionJson:
    def test_pointer_distribution_serializes_graded_posts(self):
        import json

        s = build_canonical_scheme(2)
        dist = three_outcome_stats(s, ObjectState(2**-0.5, 2**-0.5))
        payload = json.loads(dist.to_json())
        plus = payload["outcomes"][0]
        assert plus["label"] == "plus"
        assert set(plus["post_state"]) == {"d", "sectors"}
        minus = payload["outcomes"][1]
        assert minus["probability"] < 1e-12
        assert minus["post_state"] is None

    def test_plain_distribution_serializes_vector_posts(self):
        import json

        obs = Observable(eigenvalues=[1.0], eigenspaces=[basis(2, 0)])
        phi = basis(2, 0)
        payload = json.loads(born_distribution(obs, phi).to_json())
        assert payload["outcomes"][0]["post_state"] == [[1.0, 0.0], [0.0, 0.0]]
