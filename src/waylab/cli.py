"""Batch front door: build, validate, optimize, sweep, sample, nogo.

Every subcommand is deterministic: ``sample`` is the only one that draws
random numbers, all from its ``--seed`` (omitting the flag means the
documented default seed 7, never entropy).  Artifacts are written
atomically (temp file + rename), and CSV output uses ``.`` decimals and
``\\n`` line endings regardless of locale.

Exit codes: 0 success, 1 domain or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field

from .born import counts_to_csv, sample_outcomes, three_outcome_stats
from .graded import DEFAULT_TOL, ObjectState
from .nogo import infeasibility_certificate, rotated_basis_residual
from .optimize import fit_scaling, optimize_scheme, sweep
from .scheme import (
    ApproxScheme,
    _require_size,
    build_canonical_scheme,
    scheme_error,
    validate_scheme,
)

DEFAULT_SEED = 7


@dataclass
class CommandResult:
    """Outcome of one CLI invocation."""

    exit_code: int
    artifacts: list = field(default_factory=list)
    summary: str = ""


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".waylab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _parse_pair(text, convert):
    """Exactly two comma-separated values, each read by ``convert``."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated values, got {text!r}"
        )
    try:
        return convert(parts[0]), convert(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad value in {text!r}: {exc}") from exc


def _parse_state(text):
    if text == "plus":
        return ObjectState(2**-0.5, 2**-0.5)
    if text == "minus":
        return ObjectState(2**-0.5, -(2**-0.5))
    return ObjectState(*_parse_pair(text, complex))


def _parse_amplitude(text):
    """One complex amplitude written as ``"re,im"``."""
    return complex(*_parse_pair(text, float))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="waylab",
        description="Measurement models constrained by an additive conservation law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write the canonical scheme as JSON")
    p_build.add_argument("--n", type=int, required=True, help="apparatus size")
    p_build.add_argument("--d", type=int, default=2, help="per-sector dimension")
    p_build.add_argument("--out", required=True, help="output JSON path")

    p_val = sub.add_parser("validate", help="print the constraint report of a scheme")
    p_val.add_argument("--scheme", required=True, help="scheme JSON path")
    p_val.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_opt = sub.add_parser("optimize", help="write an error-optimized scheme as JSON")
    p_opt.add_argument("--n", type=int, required=True)
    p_opt.add_argument("--d", type=int, default=2)
    p_opt.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="optimize a range of sizes, write CSV")
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument(
        "--geometric", action="store_true", help="double n from n-min up to n-max"
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_sample = sub.add_parser("sample", help="sample pointer readouts, print counts CSV")
    p_sample.add_argument("--scheme", required=True)
    p_sample.add_argument(
        "--state",
        required=True,
        type=_parse_state,
        help='"plus", "minus", or two comma-separated complex amplitudes "a,b"',
    )
    p_sample.add_argument("--shots", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_nogo = sub.add_parser(
        "nogo", help="print the exact-measurement infeasibility certificate"
    )
    p_nogo.add_argument("--n", type=int, required=True)
    p_nogo.add_argument("--alpha", type=_parse_amplitude, help='object amplitude "re,im"')
    p_nogo.add_argument("--beta", type=_parse_amplitude, help='object amplitude "re,im"')
    return parser


def _cmd_build(args):
    scheme = build_canonical_scheme(args.n, args.d)
    _atomic_write(args.out, scheme.to_json(indent=2) + "\n")
    # cprime carries the exact rational error after float conversion;
    # repr prints the shortest digits that round-trip exactly
    return CommandResult(0, [args.out], f"error = {scheme.cprime!r}")


def _cmd_validate(args):
    with open(args.scheme) as handle:
        scheme = ApproxScheme.from_json(handle.read())
    report = validate_scheme(scheme)
    passed = report.passed(args.tol)
    summary = (
        f"max_residual = {report.max_residual!r} "
        f"({'PASS' if passed else 'FAIL'} at tol {args.tol:g})"
    )
    # a passing report has no entry above tol, so its ids are never spelled
    failing = () if passed else report.entries
    lines = [f"{cid}: {res:.3e}" for cid, res in failing if not res <= args.tol]
    return CommandResult(0 if passed else 1, [], "\n".join(lines + [summary]))


def _cmd_optimize(args):
    scheme = optimize_scheme(args.n, args.d)
    _atomic_write(args.out, scheme.to_json(indent=2) + "\n")
    return CommandResult(
        0,
        [args.out],
        f"error = {scheme_error(scheme)!r} "
        f"(canonical {1.0 / (2 * args.n - 1)!r})",
    )


def _cmd_sweep(args):
    if args.n_min < 2:
        # doubling from n-min <= 0 never passes n-max
        raise ValueError(f"--n-min must be >= 2, got {args.n_min}")
    if args.geometric:
        n_values = []
        n = args.n_min
        while n <= args.n_max:
            n_values.append(n)
            n *= 2
    else:
        _require_size(args.n_max, 2)  # sweep's dimension; before the list is built
        n_values = list(range(args.n_min, args.n_max + 1))
    table = sweep(n_values)
    _atomic_write(args.out, table.to_csv())
    if len(table.rows) >= 3:
        slope, _, r2 = fit_scaling(table)
        summary = f"slope = {slope:.6g} (r2 = {r2:.6g})"
    else:
        summary = f"no slope: a scaling fit needs >= 3 sizes, got {len(table.rows)}"
    failed = [r.n for r in table.rows if r.note]
    if failed:
        summary += f"; rows kept canonical after optimizer failure: {failed}"
    return CommandResult(1 if failed else 0, [args.out], summary)


def _cmd_sample(args):
    with open(args.scheme) as handle:
        scheme = ApproxScheme.from_json(handle.read())
    dist = three_outcome_stats(scheme, args.state)
    counts = sample_outcomes(dist, args.shots, args.seed)
    return CommandResult(0, [], counts_to_csv(counts, dist).rstrip("\n"))


def _cmd_nogo(args):
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is None:
        cert = infeasibility_certificate(args.n)
    else:
        cert = rotated_basis_residual(args.n, ObjectState(args.alpha, args.beta))
    return CommandResult(0, [], cert.to_json(indent=2))


_COMMANDS = {
    "build": _cmd_build,
    "validate": _cmd_validate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
    "nogo": _cmd_nogo,
}


def run(argv):
    """Execute one CLI invocation and return its :class:`CommandResult`."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0), [], "")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        return CommandResult(1, [], f"error: {exc}")


def main():
    """Run the command in ``sys.argv`` and print its summary; returns the exit code.

    A reader that closes standard output early (``waylab nogo ... | head``)
    gets exit code 1 and no traceback.
    """
    result = run(sys.argv[1:])
    try:
        if result.summary:
            print(result.summary)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
