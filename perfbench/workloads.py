"""The four benchmark workloads: seeded inputs, one verified pass each, and the op runner.

A pass is a fixed list of ops.  An op calls into waylab through the
namespace from :func:`spans.layer_api` and checks what it got back; the
runner counts it as failed when it raises or any check fails.  Inputs are
made here from the seed alone and never come from the test suite.

Passes are kept short, so that a 25 s run holds several and reports
their median (raw pass times on a 2-vCPU x86_64 VM, varying with host
load):

* ``readout-large``: n = 10^3 and 3*10^3, 5.5-6 s per pass; the
  ``three_outcome_stats`` loops grow linearly with n, and 10^4 alone
  would take 8-10 s;
* ``small-structures``: 1000 each of classifier pairs, isometries and
  observables, plus one round of schemes at n = 2..64, 1.3-2.4 s;
* ``nogo-scan``: certificates at n = 4..64 plus three rotated bases at
  n = 16, 2.3-3.7 s;
* ``optimize-sweep``: ``sweep`` at n = 3, 4 and 6, one size per call,
  and ``fit_scaling`` over the three rows, 2.5-3.5 s; n = 8 alone takes
  about 2 s, n = 16 about 5 s and n = 32 9-14 s.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from waylab import GradedVector, ObjectState, Observable, build_canonical_scheme, tensor
from waylab.generalized import BranchSpec
from waylab.graded import BlockMap
from waylab.optimize import SweepTable

import checks

AMP = 2**-0.5
PLUS = ObjectState(AMP, AMP)
MINUS = ObjectState(AMP, -AMP)
SHOTS = 10**5


class Ops:
    """Runs ops and keeps the counts the result line reports."""

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock  # reference.ScaledClock, ticked between ops
        self.attempted = 0
        self.failed = 0
        self.by_kind = {}  # kind -> [attempted, failed]
        self.messages = []

    def run(self, kind, fn, *args):
        """Run ``fn(*args) -> (value, failures)`` as one op and return the value."""
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        try:
            value, failures = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            value, failures = None, [("op", f"{kind} raised {exc!r}")]
        if self.tracer is not None:
            self.tracer.end_op(failures)
        counts = self.by_kind.setdefault(kind, [0, 0])
        counts[0] += 1
        self.attempted += 1
        if failures:
            counts[1] += 1
            self.failed += 1
            self.messages.extend(f"{kind}: [{layer}] {msg}" for layer, msg in failures)
        if self.clock is not None:
            self.clock.tick()
        return value


def corrupt(s, rng):
    """Copy of scheme ``s`` with one seeded amplitude sector scaled by 1 + 1e-3."""
    name = ("xi", "sigma", "tau", "rho")[int(rng.integers(4))]
    vec = getattr(s, name)
    support = vec.support()
    nu = support[int(rng.integers(len(support)))]
    sectors = dict(vec.items())
    sectors[nu] = sectors[nu] * (1 + 1e-3)
    return dataclasses.replace(s, **{name: GradedVector(vec.d, sectors)})


def _negative_control(api, n, corrupted):
    return None, checks.check_invalid(n, api.validate_scheme(corrupted))


def _random_unit(rng, d, scale=1.0):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return scale * v / np.linalg.norm(v)


def _random_object(rng):
    a = _random_unit(rng, 2)
    return ObjectState(complex(a[0]), complex(a[1]))


# -- readout-large --------------------------------------------------------------


@dataclass
class ReadoutCase:
    n: int
    corrupted: object
    gram_inputs: list
    expected_split: tuple
    sample_seed: int


@dataclass
class ReadoutInputs:
    cases: list
    cli_n: int
    cli_seed: int
    workdir: str


def readout_inputs(seed, workdir, small=False):
    rng = np.random.default_rng([seed, 1])
    sizes = (64,) if small else (1000, 3000)
    cases = []
    for n in sizes:
        s = build_canonical_scheme(n)
        cases.append(
            ReadoutCase(
                n=n,
                corrupted=corrupt(s, rng),
                gram_inputs=[tensor(ObjectState(1, 0), s.xi), tensor(ObjectState(0, 1), s.xi)],
                expected_split=(PLUS.amp0 * s.xi, PLUS.amp1 * s.xi),
                sample_seed=int(rng.integers(2**32)),
            )
        )
    return ReadoutInputs(cases, sizes[0], int(rng.integers(2**32)), workdir)


def _build(api, n):
    s = api.build_canonical_scheme(n)
    return s, checks.check_scheme_error(n, api.scheme_error(s))


def _json_roundtrip(api, s):
    loaded = api.from_json(api.to_json(s))
    return loaded, checks.check_roundtrip(s, loaded)


def _validate(api, s):
    return None, checks.check_valid(s.n, api.validate_scheme(s))


def _graded_primitives(api, s, case):
    m = api.interaction_blocks(s)
    results = {
        "inner_sigma_tau": api.inner(s.sigma, s.tau),
        "norm2_xi": api.norm2(s.xi),
        "sum_sectors": len(api.add(s.rho, s.tau).support()),
        "eta_norm2": api.norm2(api.sub(s.tau, s.rho)),
        "split": api.split_object_components(api.tensor(PLUS, s.xi), s.d),
        "expected_split": case.expected_split,
        "conserving": api.check_conserving(m).max_residual,
        "completed": api.check_conserving(api.completed(m)).max_residual,
        "gram": api.orthogonality_transfer_check(m, case.gram_inputs),
    }
    return None, checks.check_graded(s.n, results)


def _readout(api, s):
    plus = api.three_outcome_stats(s, PLUS)
    minus = api.three_outcome_stats(s, MINUS)
    failures = checks.check_readout(s.n, PLUS.amp0, PLUS.amp1, plus)
    failures += checks.check_readout(s.n, MINUS.amp0, MINUS.amp1, minus)
    return plus, failures


def _sample(api, dist, seed):
    return None, checks.check_counts(dist, api.sample_outcomes(dist, SHOTS, seed), SHOTS)


def _cli_round(api, inp):
    path = os.path.join(inp.workdir, f"scheme-{inp.cli_n}.json")
    failures = []
    for argv in (
        ["build", "--n", str(inp.cli_n), "--out", path],
        ["validate", "--scheme", path],
        ["sample", "--scheme", path, "--state", "plus", "--shots", str(SHOTS),
         "--seed", str(inp.cli_seed)],
    ):
        failures += checks.check_cli(argv[0], api.cli_run(argv))
    return None, failures


def readout_pass(ops, api, inp):
    for case in inp.cases:
        s = ops.run("build", _build, api, case.n)
        s = ops.run("json", _json_roundtrip, api, s)
        ops.run("validate", _validate, api, s)
        ops.run("graded", _graded_primitives, api, s, case)
        plus = ops.run("readout", _readout, api, s)
        ops.run("sample", _sample, api, plus, case.sample_seed)
        ops.run("negative-control", _negative_control, api, case.n, case.corrupted)
        if case.n == inp.cli_n:
            ops.run("cli", _cli_round, api, inp)
    return {}


# -- small-structures -------------------------------------------------------------


@dataclass
class SmallInputs:
    branches: list  # (plus BranchSpec, minus BranchSpec, case)
    isometries: list  # (BlockMap, [GradedVector, GradedVector])
    observables: list  # (Observable, state)
    schemes: list  # (n, ObjectState, corrupted scheme)


def _orthogonal_partner(rng, v, w):
    """Vector of squared norm ``w`` whose overlap with ``v`` (``|v|^2 = w``) is ``1 - w``."""
    unit = v / np.linalg.norm(v)
    perp = _random_unit(rng, len(v))
    perp -= np.vdot(unit, perp) * unit
    perp /= np.linalg.norm(perp)
    along = (1.0 - w) / np.sqrt(w)
    return along * unit + np.sqrt(w - along**2) * perp


def random_branch_pair(rng):
    """Clean product-branch pair of a seeded case, 1 or 2.

    The side carrying the superposition (object for Case 1, apparatus for
    Case 2) holds charges 0 and 1 with the charge-1 parts cancelling
    across branches; the other side is sharp at charge 0.  The partner's
    charge-0 part makes the two branches orthogonal.
    """
    d = int(rng.integers(2, 4))
    case = int(rng.integers(1, 3))
    w = rng.uniform(0.55, 0.85)
    sharp = GradedVector(d, {0: _random_unit(rng, d)})
    low = _random_unit(rng, d, np.sqrt(w))
    high = _random_unit(rng, d, np.sqrt(1.0 - w))
    spread_plus = GradedVector(d, {0: low, 1: high})
    spread_minus = GradedVector(d, {0: _orthogonal_partner(rng, low, w), 1: -high})
    if case == 1:
        return BranchSpec(spread_plus, sharp), BranchSpec(spread_minus, sharp), case
    return BranchSpec(sharp, spread_plus), BranchSpec(sharp, spread_minus), case


def random_isometry(rng):
    """Conserving isometry on 3 scattered sectors in -4..7, with 2 domain inputs."""
    d = int(rng.integers(2, 5))
    sectors = sorted(int(x) for x in rng.choice(np.arange(-4, 8), size=3, replace=False))

    def orthonormal():
        a = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        return np.linalg.qr(a)[0]

    m = BlockMap(d, {nu: (orthonormal(), orthonormal()) for nu in sectors})
    vectors = [
        GradedVector(d, {nu: m.blocks[nu][0] @ _random_unit(rng, 2) for nu in sectors})
        for _ in range(2)
    ]
    return m, vectors


def random_observable(rng):
    """Degenerate observable on dimension 2..6 and a normalized state."""
    dim = int(rng.integers(2, 7))
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    cuts = sorted(int(x) for x in rng.choice(np.arange(1, dim), size=int(rng.integers(1, dim)), replace=False))
    families = np.split(q, cuts, axis=1)
    return Observable(range(len(families)), families), _random_unit(rng, dim)


def small_inputs(seed, workdir, small=False):
    rng = np.random.default_rng([seed, 2])
    count = 4 if small else 1000
    sizes = list(range(2, 65))
    rng.shuffle(sizes)
    if small:
        sizes = sizes[:4]
    return SmallInputs(
        branches=[random_branch_pair(rng) for _ in range(count)],
        isometries=[random_isometry(rng) for _ in range(count)],
        observables=[random_observable(rng) for _ in range(count)],
        schemes=[(n, _random_object(rng), corrupt(build_canonical_scheme(n), rng)) for n in sizes],
    )


def _classify(api, plus, minus, case):
    return None, checks.check_classify(case, api.classify(plus, minus))


def _isometry(api, m, vectors):
    gram = api.orthogonality_transfer_check(m, vectors)
    conserving = api.check_conserving(m)
    completed = api.check_conserving(api.completed(m))
    return None, checks.check_isometry(gram, conserving, completed)


def _distribution(api, obs, phi):
    return None, checks.check_distribution(api.born_distribution(obs, phi))


def _small_scheme(api, n, obj):
    s = api.build_canonical_scheme(n)
    failures = checks.check_valid(n, api.validate_scheme(s))
    failures += checks.check_readout(n, obj.amp0, obj.amp1, api.three_outcome_stats(s, obj))
    return None, failures


def small_pass(ops, api, inp):
    for plus, minus, case in inp.branches:
        ops.run("classify", _classify, api, plus, minus, case)
    for m, vectors in inp.isometries:
        ops.run("isometry", _isometry, api, m, vectors)
    for obs, phi in inp.observables:
        ops.run("distribution", _distribution, api, obs, phi)
    for n, obj, corrupted in inp.schemes:
        ops.run("scheme", _small_scheme, api, n, obj)
        ops.run("negative-control", _negative_control, api, n, corrupted)
    return {}


# -- nogo-scan ---------------------------------------------------------------------


@dataclass
class NogoInputs:
    sizes: tuple
    rotated: list  # (kind, ObjectState), all at n = 16


def nogo_inputs(seed, workdir, small=False):
    """Sizes are fixed; the seed picks signs and phases that leave every value unchanged."""
    rng = np.random.default_rng([seed, 3])
    signs = rng.choice([-1.0, 1.0], size=2)
    phases = np.exp(2j * np.pi * rng.uniform(size=3))
    rotated = [
        ("real-mixed", ObjectState(0.6 * signs[0], 0.8 * signs[1])),
        ("complex-phase", ObjectState(AMP * phases[0], AMP * phases[1])),
        ("eigenbasis", ObjectState(complex(phases[2]), 0.0)),
    ]
    return NogoInputs((4,) if small else (4, 8, 16, 32, 64), rotated)


def _certificate(api, n, previous):
    cert = api.infeasibility_certificate(n)
    residual = api.exact_constraint_residual(cert.minimizer).sum_squares
    return cert.min_violation, checks.check_certificate(n, cert.min_violation, residual, previous)


def _rotated(api, kind, obj):
    value = api.rotated_basis_residual(16, obj).min_violation
    return None, checks.check_rotated(kind, value)


def nogo_pass(ops, api, inp):
    previous = None
    for n in inp.sizes:
        previous = ops.run("certificate", _certificate, api, n, previous)
    for kind, obj in inp.rotated:
        ops.run("rotated", _rotated, api, kind, obj)
    return {}


# -- optimize-sweep -------------------------------------------------------------------


@dataclass
class OptimizeInputs:
    n_values: list


def optimize_inputs(seed, workdir, small=False):
    """The seed orders the sizes; rows are seeded per size, so each row's result is fixed."""
    rng = np.random.default_rng([seed, 4])
    n_values = [2, 3, 4] if small else [3, 4, 6]
    rng.shuffle(n_values)
    return OptimizeInputs(n_values)


def _sweep(api, n):
    table = api.sweep([n])
    return table, checks.check_sweep([n], table)


def _fit(api, table):
    fit = api.fit_scaling(table)
    return fit, checks.check_fit(fit)


def optimize_pass(ops, api, inp):
    rows = []
    for n in inp.n_values:
        table = ops.run("sweep", _sweep, api, n)
        rows.extend(table.rows if table else ())
    fit = ops.run("fit", _fit, api, SweepTable(tuple(rows)))
    return {"fitted slope": fit[0]} if fit else {}


@dataclass(frozen=True)
class Workload:
    make_inputs: object  # (seed, workdir, small=False) -> inputs
    run_pass: object  # (ops, api, inputs) -> dict of values to report


WORKLOADS = {
    "readout-large": Workload(readout_inputs, readout_pass),
    "small-structures": Workload(small_inputs, small_pass),
    "nogo-scan": Workload(nogo_inputs, nogo_pass),
    "optimize-sweep": Workload(optimize_inputs, optimize_pass),
}
