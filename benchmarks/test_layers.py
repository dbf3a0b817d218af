"""Per-layer micro-timings of the graded, block-map, scheme, readout, classifier and no-go layers, and of the CLI.

Run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks

This directory is outside the test suite's ``testpaths``, so the tier-1
run does not collect it, and no performance claim rests on it: the
benchmark of record is ``perfbench/``.  Each case times one call on
inputs built once per size, the canonical scheme at n = 10^3 and 10^4,
a conserving isometry on three scattered sectors (two columns in every
block, or one block of one column among two of two) and three pairs of
product branches (Case 1, Case 2, and a mismatched Infeasible pair).
Building, validating and reading out the canonical scheme are timed at
n = 10^2 to 10^5; validation also at n = 4 (a report's fixed cost) and
n = 10^6 (three rounds), and the exact system's residual report with its
sum of squares at n = 16 and 10^4.  The standard certificate (an
O(n) parity-chain solve) is timed at n = 4 to 10^4, a rotated-basis
certificate (an O(n) block QR) at n = 16, 914 and 10^4, its symbolic
witness at n = 10^5, and each CLI subcommand once in process on small
inputs.  Vector construction (``from_window``), ``u - v`` and
``scheme_error``, whose fixed cost per vector dominates at small n, are
timed at n = 10^2 and 10^4, and one ``sweep([4])`` row on its own.
The constructors that read labels from outside are timed on sector maps
of 10^3 and 10^4 sectors (``GradedVector(d, sectors)``), parsed JSON of
3 * 10^3 sectors (``GradedVector.from_dict``) and certificate data at
n = 10^4 (``ExactSchemeData.from_dict``).
"""

import functools

import numpy as np
import pytest

from waylab import ObjectState, build_canonical_scheme, cli, tensor, three_outcome_stats
from waylab.generalized import BranchSpec, classify
from waylab.graded import (
    BlockMap,
    GradedVector,
    check_conserving,
    inner,
    orthogonality_transfer_check,
)
from waylab.nogo import (
    ExactSchemeData,
    derive_witness,
    exact_constraint_residual,
    infeasibility_certificate,
    rotated_basis_residual,
)
from waylab.optimize import sweep
from waylab.scheme import ApproxScheme, interaction_blocks, scheme_error, validate_scheme

SIZES = [10**3, 10**4]
SCALE_SIZES = [10**2, 10**3, 10**4, 10**5]
VECTOR_SIZES = [10**2, 10**4]
CERTIFICATE_SIZES = [4, 16, 64, 256, 10**3, 10**4]
SECTOR_MAP_SIZES = [10**3, 10**4]
PLUS = ObjectState(2**-0.5, 2**-0.5)


@functools.lru_cache(maxsize=None)
def scheme_case(n):
    """Canonical scheme, its block map, the two pointer inputs and its JSON text."""
    s = build_canonical_scheme(n)
    inputs = [tensor(ObjectState(1, 0), s.xi), tensor(ObjectState(0, 1), s.xi)]
    return s, interaction_blocks(s), inputs, s.to_json()


#: Column counts of the three blocks of :func:`three_sector_case`.
WIDTHS = {"uniform": (2, 2, 2), "mixed": (2, 1, 2)}


@functools.lru_cache(maxsize=None)
def three_sector_case(widths):
    """Isometry on sectors -4, 1, 7 (d = 4) with ``widths`` orthonormal columns, and two inputs."""
    rng = np.random.default_rng(3)

    def orthonormal(m):
        return np.linalg.qr(rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m)))[0]

    m = BlockMap(4, {nu: (orthonormal(k), orthonormal(k)) for nu, k in zip((-4, 1, 7), widths)})
    doms = {nu: dom for nu, (dom, _) in m.blocks.items()}
    inputs = [
        GradedVector(4, {nu: dom @ rng.standard_normal(dom.shape[1]) for nu, dom in doms.items()})
        for _ in range(2)
    ]
    return m, inputs


@pytest.mark.parametrize("n", SIZES)
def test_graded_add(benchmark, n):
    # rho and tau sit on windows two sectors apart
    s = scheme_case(n)[0]
    benchmark(s.rho.__add__, s.tau)


@pytest.mark.parametrize("n", VECTOR_SIZES)
def test_graded_from_window(benchmark, n):
    window = build_canonical_scheme(n).rho._amps
    benchmark(GradedVector.from_window, 0, window)


@pytest.mark.parametrize("n", VECTOR_SIZES)
def test_graded_sub(benchmark, n):
    s = build_canonical_scheme(n)
    benchmark(s.tau.__sub__, s.rho)


@pytest.mark.parametrize("n", VECTOR_SIZES)
def test_scheme_error(benchmark, n):
    s = build_canonical_scheme(n)
    assert benchmark(scheme_error, s) == pytest.approx(1 / (2 * n - 1))


@pytest.mark.parametrize("k", SECTOR_MAP_SIZES)
def test_graded_from_sector_map(benchmark, k):
    rng = np.random.default_rng(5)
    amps = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
    sectors = {nu: amps[nu] for nu in range(k)}
    assert len(benchmark(GradedVector, 2, sectors).support()) == k


def test_graded_from_dict(benchmark):
    xi = build_canonical_scheme(3 * 10**3).xi
    assert benchmark(GradedVector.from_dict, xi.to_dict()) == xi


def test_exact_scheme_data_from_dict(benchmark):
    data = infeasibility_certificate(10**4).minimizer
    assert benchmark(ExactSchemeData.from_dict, data.to_dict()) == data


def test_sweep_one_row(benchmark):
    assert benchmark(sweep, [4]).rows[0].note == ""


@pytest.mark.parametrize("n", SIZES)
def test_graded_inner(benchmark, n):
    s = scheme_case(n)[0]
    benchmark(inner, s.rho, s.tau)


@pytest.mark.parametrize("n", SIZES)
def test_graded_norm2(benchmark, n):
    s = scheme_case(n)[0]
    assert benchmark(s.xi.norm2) == pytest.approx(1.0)


@pytest.mark.parametrize("n", SCALE_SIZES)
def test_build_canonical_scheme(benchmark, n):
    benchmark(build_canonical_scheme, n)


@pytest.mark.parametrize("n", SCALE_SIZES)
def test_validate_scheme(benchmark, n):
    s = build_canonical_scheme(n)
    assert benchmark(validate_scheme, s).passed()


def test_validate_scheme_small(benchmark):
    # a report's fixed cost: 3 (n + 2) + 7 residuals at n = 4
    s = build_canonical_scheme(4)
    assert benchmark(lambda: validate_scheme(s).passed())


def test_validate_scheme_million(benchmark):
    s = build_canonical_scheme(10**6)
    assert benchmark.pedantic(lambda: validate_scheme(s).passed(), rounds=3, iterations=1)


@pytest.mark.parametrize("n", [16, 10**4])
def test_exact_constraint_sum_squares(benchmark, n):
    data = infeasibility_certificate(n).minimizer
    assert benchmark(lambda: exact_constraint_residual(data).sum_squares) > 0


@pytest.mark.parametrize("n", SCALE_SIZES)
def test_three_outcome_stats(benchmark, n):
    s = build_canonical_scheme(n)
    benchmark(three_outcome_stats, s, PLUS)


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
def test_to_json_indent2(benchmark, n):
    # the text `waylab build` and `waylab optimize` write
    s = scheme_case(n)[0]
    benchmark(s.to_json, indent=2)


@pytest.mark.parametrize("n", SIZES)
def test_from_json(benchmark, n):
    s, _, _, text = scheme_case(n)
    assert benchmark(ApproxScheme.from_json, text) == s


@pytest.mark.parametrize("widths", WIDTHS.values(), ids=WIDTHS)
def test_three_sector_check_conserving(benchmark, widths):
    m, _ = three_sector_case(widths)
    assert benchmark(check_conserving, m).max_residual < 1e-12


@pytest.mark.parametrize("widths", WIDTHS.values(), ids=WIDTHS)
def test_three_sector_completed(benchmark, widths):
    m, _ = three_sector_case(widths)
    benchmark(m.completed)


@pytest.mark.parametrize("widths", WIDTHS.values(), ids=WIDTHS)
def test_three_sector_orthogonality_transfer_check(benchmark, widths):
    m, inputs = three_sector_case(widths)
    pre, post = benchmark(orthogonality_transfer_check, m, inputs)
    np.testing.assert_allclose(post, pre, atol=1e-10)


@pytest.mark.parametrize("widths", WIDTHS.values(), ids=WIDTHS)
def test_three_sector_apply(benchmark, widths):
    m, inputs = three_sector_case(widths)
    benchmark(m.apply, inputs[0])


# one side spread over charges 0 and 1 with the charge-1 parts cancelling,
# the other sharp at 0, branches orthogonal
_SHARP = GradedVector(2, {0: [1.0, 0.0]})
_SPREAD_PLUS = GradedVector(2, {0: [0.8, 0.0], 1: [0.0, 0.6]})
_SPREAD_MINUS = GradedVector(2, {0: [0.45, 0.4375**0.5], 1: [0.0, -0.6]})
CLASSIFY_PAIRS = {
    "Case1": (BranchSpec(_SPREAD_PLUS, _SHARP), BranchSpec(_SPREAD_MINUS, _SHARP)),
    "Case2": (BranchSpec(_SHARP, _SPREAD_PLUS), BranchSpec(_SHARP, _SPREAD_MINUS)),
    # a Case 1 branch against a Case 2 branch: no common cancellation
    "Infeasible": (BranchSpec(_SPREAD_PLUS, _SHARP), BranchSpec(_SHARP, _SPREAD_MINUS)),
}


@pytest.mark.parametrize("kind", list(CLASSIFY_PAIRS))
def test_classify_pair(benchmark, kind):
    verdict = benchmark(classify, *CLASSIFY_PAIRS[kind])
    assert verdict.kind == kind and not verdict.violations


@pytest.mark.parametrize("n", CERTIFICATE_SIZES)
def test_infeasibility_certificate(benchmark, n):
    assert benchmark(infeasibility_certificate, n).min_violation > 0


@pytest.mark.parametrize("n", [16, 914, 10**4])
def test_rotated_basis_residual(benchmark, n):
    assert benchmark(rotated_basis_residual, n, ObjectState(0.8, 0.6)).min_violation > 0


def test_derive_witness(benchmark):
    assert len(benchmark(derive_witness, 10**5)) == 4


CLI_CASES = {
    "build": ["build", "--n", "1000", "--out", "{dir}/built.json"],
    "validate": ["validate", "--scheme", "{dir}/scheme.json"],
    "optimize": ["optimize", "--n", "1000", "--out", "{dir}/opt.json"],
    "sweep": ["sweep", "--n-min", "4", "--n-max", "256", "--geometric", "--out", "{dir}/s.csv"],
    "sample": ["sample", "--scheme", "{dir}/scheme.json", "--state", "plus", "--shots", "10000"],
    "nogo": ["nogo", "--n", "16"],
}


@pytest.mark.parametrize("command", list(CLI_CASES))
def test_cli(benchmark, tmp_path, command):
    (tmp_path / "scheme.json").write_text(build_canonical_scheme(1000).to_json(indent=2))
    argv = [arg.format(dir=tmp_path) for arg in CLI_CASES[command]]
    assert benchmark(cli.run, argv).exit_code == 0
