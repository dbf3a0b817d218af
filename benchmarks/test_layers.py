"""Per-layer micro-timings of the block-map and scheme-JSON layers.

Run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks

This directory is outside the test suite's ``testpaths``, so the tier-1
run does not collect it, and no performance claim rests on it: the
benchmark of record is ``perfbench/``.  Each case times one call on
inputs built once per size, the canonical scheme at n = 10^3 and 10^4
and a conserving isometry on three scattered sectors.
"""

import functools

import numpy as np
import pytest

from waylab import ObjectState, build_canonical_scheme, tensor
from waylab.graded import BlockMap, GradedVector, check_conserving, orthogonality_transfer_check
from waylab.scheme import ApproxScheme, interaction_blocks

SIZES = [10**3, 10**4]


@functools.lru_cache(maxsize=None)
def scheme_case(n):
    """Canonical scheme, its block map, the two pointer inputs and its JSON text."""
    s = build_canonical_scheme(n)
    inputs = [tensor(ObjectState(1, 0), s.xi), tensor(ObjectState(0, 1), s.xi)]
    return s, interaction_blocks(s), inputs, s.to_json()


@functools.lru_cache(maxsize=None)
def three_sector_case():
    """Isometry with two orthonormal columns on sectors -4, 1, 7 (d = 4), and two inputs."""
    rng = np.random.default_rng(3)

    def orthonormal():
        return np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]

    m = BlockMap(4, {nu: (orthonormal(), orthonormal()) for nu in (-4, 1, 7)})
    inputs = [
        GradedVector(4, {nu: m.blocks[nu][0] @ rng.standard_normal(2) for nu in m.blocks})
        for _ in range(2)
    ]
    return m, inputs


@pytest.mark.parametrize("n", SIZES)
def test_interaction_blocks(benchmark, n):
    s = scheme_case(n)[0]
    benchmark(interaction_blocks, s)


@pytest.mark.parametrize("n", SIZES)
def test_check_conserving(benchmark, n):
    m = scheme_case(n)[1]
    assert benchmark(check_conserving, m).max_residual < 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_completed(benchmark, n):
    m = scheme_case(n)[1]
    benchmark(m.completed)


@pytest.mark.parametrize("n", SIZES)
def test_orthogonality_transfer_check(benchmark, n):
    _, m, inputs, _ = scheme_case(n)
    pre, post = benchmark(orthogonality_transfer_check, m, inputs)
    np.testing.assert_allclose(post, pre, atol=1e-10)


@pytest.mark.parametrize("n", SIZES)
def test_to_json(benchmark, n):
    s = scheme_case(n)[0]
    benchmark(s.to_json)


@pytest.mark.parametrize("n", SIZES)
def test_from_json(benchmark, n):
    s, _, _, text = scheme_case(n)
    assert benchmark(ApproxScheme.from_json, text) == s


def test_three_sector_check_conserving(benchmark):
    m, _ = three_sector_case()
    benchmark(check_conserving, m)


def test_three_sector_completed(benchmark):
    m, _ = three_sector_case()
    benchmark(m.completed)


def test_three_sector_orthogonality_transfer_check(benchmark):
    m, inputs = three_sector_case()
    benchmark(orthogonality_transfer_check, m, inputs)


def test_three_sector_apply(benchmark):
    m, inputs = three_sector_case()
    benchmark(m.apply, inputs[0])
