"""Tests for the batch command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import waylab
from waylab import cli
from waylab.cli import run
from waylab.optimize import SweepTable
from waylab.scheme import ApproxScheme, build_canonical_scheme


def read(path):
    with open(path) as handle:
        return handle.read()


_GUARDED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from waylab.cli import run
result = run(sys.argv[1:])
print(result.exit_code)
print(result.summary)
"""


def run_guarded(argv):
    """``(exit code, summary)`` of ``run(argv)`` in a child process.

    The child gets 1 GiB of address space and 60 s, so an input that
    makes the CLI loop or allocate without bound fails the test instead
    of exhausting the machine.
    """
    src = Path(waylab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _GUARDED, *argv],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, _, summary = done.stdout.partition("\n")
    return code, summary


class TestBuild:
    def test_build_writes_scheme_and_prints_error(self, tmp_path):
        out = tmp_path / "s.json"
        result = run(["build", "--n", "3", "--out", str(out)])
        assert result.exit_code == 0
        assert "error = 0.2" in result.summary
        scheme = ApproxScheme.from_json(read(out))
        assert scheme.n == 3

    def test_build_round_trips_through_validate(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["build", "--n", "5", "--out", str(out)]).exit_code == 0
        result = run(["validate", "--scheme", str(out)])
        assert result.exit_code == 0
        assert "PASS" in result.summary

    def test_build_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["build", "--n", "4", "--out", str(a)])
        run(["build", "--n", "4", "--out", str(b)])
        assert read(a) == read(b)
        # the file is written in pieces: the bytes of to_json and a newline
        assert read(a) == build_canonical_scheme(4).to_json(indent=2) + "\n"


class TestValidate:
    def test_corrupted_scheme_fails(self, tmp_path):
        s = build_canonical_scheme(3)
        payload = s.to_dict()
        # double the first stay amplitude
        payload["sigma"]["sectors"][0]["amp"][0][0] *= 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        result = run(["validate", "--scheme", str(bad)])
        assert result.exit_code == 1
        assert "FAIL" in result.summary

    def test_nan_amplitude_fails(self, tmp_path):
        payload = build_canonical_scheme(3).to_dict()
        # NaN in the second sector: built-in max() skips it there
        payload["sigma"]["sectors"][1]["amp"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        result = run(["validate", "--scheme", str(bad)])
        assert result.exit_code == 1
        assert "FAIL" in result.summary

    def test_wide_label_span_is_domain_error(self, tmp_path):
        payload = build_canonical_scheme(3).to_dict()
        payload["tau"]["sectors"].append({"nu": 2**40, "amp": [[1.0, 0.0], [0.0, 0.0]]})
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(payload))
        result = run(["validate", "--scheme", str(wide)])
        assert result.exit_code == 1
        assert "span" in result.summary

    @pytest.mark.parametrize("command", ["validate", "sample"])
    def test_huge_vector_dimension_is_domain_error(self, tmp_path, command):
        payload = build_canonical_scheme(3).to_dict()
        payload["xi"]["d"] = 10**12
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload, indent=2))
        code, summary = run_guarded(_argv(command, path))
        assert code == "1"
        assert summary.startswith("error:")
        assert "'xi'" in summary

    def test_missing_file_is_domain_error(self):
        result = run(["validate", "--scheme", "/nonexistent.json"])
        assert result.exit_code == 1
        assert "error" in result.summary


class TestOptimizeAndSweep:
    def test_optimize_writes_scheme(self, tmp_path):
        out = tmp_path / "opt.json"
        result = run(["optimize", "--n", "4", "--out", str(out)])
        assert result.exit_code == 0
        scheme = ApproxScheme.from_json(read(out))
        assert scheme.n == 4
        assert read(out) == scheme.to_json(indent=2) + "\n"

    def test_sweep_geometric_writes_csv_and_slope(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run(
            ["sweep", "--n-min", "2", "--n-max", "8", "--geometric", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "slope = " in result.summary
        table = SweepTable.from_csv(read(out))
        assert [r.n for r in table.rows] == [2, 4, 8]
        assert table.rows[0].error_wigner == pytest.approx(1 / 3)

    def test_sweep_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = run(["sweep", "--n-min", "2", "--n-max", "4", "--geometric", "--out", str(a)])
        rb = run(["sweep", "--n-min", "2", "--n-max", "4", "--geometric", "--out", str(b)])
        assert ra.exit_code == 0
        assert rb.exit_code == 0
        assert read(a) == read(b)

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--n", "4", "--seed", "7"],
            ["optimize", "--n", "4", "--max-iters", "40"],
            ["sweep", "--n-min", "2", "--n-max", "4", "--seed", "7"],
        ],
    )
    def test_removed_flag_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]).exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("n_min", ["0", "-3"])
    def test_geometric_sweep_refuses_n_min_below_2(self, tmp_path, n_min):
        # doubling from n-min <= 0 never passes n-max, hence the guard
        out = tmp_path / "sweep.csv"
        code, summary = run_guarded(
            ["sweep", "--n-min", n_min, "--n-max", "8", "--geometric", "--out", str(out)]
        )
        assert code == "1"
        assert ">= 2" in summary
        assert not out.exists()


class TestOversizedApparatus:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--n", "100000000", "--out", "{dir}/b.json"],
            ["optimize", "--n", "100000000", "--out", "{dir}/o.json"],
            ["sweep", "--n-min", "2", "--n-max", "100000000", "--geometric",
             "--out", "{dir}/s.csv"],
            # the linear sweep is refused before its list of sizes is built
            ["sweep", "--n-min", "2", "--n-max", "100000000", "--out", "{dir}/s.csv"],
        ],
    )
    def test_refused_as_domain_error(self, tmp_path, argv):
        code, summary = run_guarded([arg.format(dir=tmp_path) for arg in argv])
        assert code == "1"
        assert "more than 16777216 entries" in summary
        assert list(tmp_path.iterdir()) == []

    def test_large_dimension_is_not_a_crash(self, tmp_path):
        # the basis vectors e0, e1 are built without the d x d identity
        out = tmp_path / "b.json"
        code, summary = run_guarded(["build", "--n", "2", "--d", "100000", "--out", str(out)])
        assert code in ("0", "1"), summary
        if code == "0":
            assert ApproxScheme.from_json(read(out)).d == 100000


class TestSample:
    def test_sample_plus_state(self, tmp_path):
        scheme_file = tmp_path / "s.json"
        run(["build", "--n", "3", "--out", str(scheme_file)])
        result = run(
            ["sample", "--scheme", str(scheme_file), "--state", "plus",
             "--shots", "1000", "--seed", "11"]
        )
        assert result.exit_code == 0
        lines = result.summary.split("\n")
        assert lines[0] == "label,count,probability"
        counts = {ln.split(",")[0]: int(ln.split(",")[1]) for ln in lines[1:]}
        assert sum(counts.values()) == 1000
        assert counts["minus"] == 0

    def test_sample_explicit_amplitudes(self, tmp_path):
        scheme_file = tmp_path / "s.json"
        run(["build", "--n", "2", "--out", str(scheme_file)])
        amp = 2**-0.5
        result = run(
            ["sample", "--scheme", str(scheme_file), "--state", f"{amp},{amp}",
             "--shots", "10", "--seed", "1"]
        )
        assert result.exit_code == 0

    def test_sample_deterministic(self, tmp_path):
        scheme_file = tmp_path / "s.json"
        run(["build", "--n", "3", "--out", str(scheme_file)])
        args = ["sample", "--scheme", str(scheme_file), "--state", "plus",
                "--shots", "500", "--seed", "21"]
        assert run(args).summary == run(args).summary


class TestSampleValidatesFirst:
    # sample's output on a valid scheme, as it was before sample ran the report
    _PINNED = {
        "plus": "label,count,probability\nplus,894,0.888888888888889\n"
        "minus,0,9.378425768774957e-33\nundetermined,106,0.1111111111111111",
        "minus": "label,count,probability\nplus,0,9.378425768774957e-33\n"
        "minus,884,0.888888888888889\nundetermined,116,0.1111111111111111",
        "0.6,0.8": "label,count,probability\nplus,876,0.8711111111111108\n"
        "minus,18,0.01777777777777778\nundetermined,106,0.1111111111111111",
    }

    @pytest.mark.parametrize("state", sorted(_PINNED))
    def test_valid_scheme_output_unchanged(self, tmp_path, state):
        path = tmp_path / "s.json"
        run(["build", "--n", "5", "--out", str(path)])
        result = run(["sample", "--scheme", str(path), "--state", state,
                      "--shots", "1000", "--seed", "11"])
        assert (result.exit_code, result.summary) == (0, self._PINNED[state])

    def test_sample_refuses_a_scheme_that_validate_rejects(self, tmp_path):
        # one tau amplitude of the canonical n = 5 scheme scaled by 1 + 1e-6
        payload = build_canonical_scheme(5).to_dict()
        payload["tau"]["sectors"][0]["amp"][1][0] *= 1 + 1e-6
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(payload, indent=2))
        validate = run(["validate", "--scheme", str(path)])
        assert validate.exit_code == 1
        assert "overlap-pointers: 4.444e-07" in validate.summary
        sample = run(["sample", "--scheme", str(path), "--state", "plus", "--shots", "1000"])
        assert (sample.exit_code, sample.summary) == (1, validate.summary)


def _sample_argv(path):
    return ["sample", "--scheme", str(path), "--state", "plus", "--shots", "100", "--seed", "3"]


def _argv(command, path):
    return ["validate", "--scheme", str(path)] if command == "validate" else _sample_argv(path)


class TestMalformedFiles:
    @pytest.mark.parametrize("command", ["validate", "sample"])
    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("sigma", lambda p: p["sigma"]["sectors"][0].update(amp=5)),
            ("xi", lambda p: p.update(xi=[])),
            ("rho", lambda p: p["rho"]["sectors"][1].update(nu="one")),
            ("tau", lambda p: p["tau"].update(d=3)),
            ("n", lambda p: p.update(n=[])),
            ("cprime", lambda p: p.pop("cprime")),
            # n, d and labels must be JSON integers (n, d >= 1), c and cprime JSON numbers
            pytest.param("n", lambda p: p.update(n=2.5), id="n-float"),
            pytest.param("n", lambda p: p.update(n=True), id="n-bool"),
            pytest.param("n", lambda p: p.update(n=-5), id="n-negative"),
            pytest.param("d", lambda p: p.update(d=2.0), id="d-float"),
            pytest.param("d", lambda p: p.update(d=0), id="d-zero"),
            pytest.param("c", lambda p: p.update(c="0.25"), id="c-string"),
            pytest.param("cprime", lambda p: p.update(cprime=False), id="cprime-bool"),
            pytest.param("xi", lambda p: p["xi"]["sectors"][0].update(nu=1.5), id="xi-nu-float"),
            pytest.param("rho", lambda p: p["rho"].update(d=2.0), id="rho-d-float"),
        ],
    )
    def test_malformed_field_is_domain_error(self, tmp_path, command, field, corrupt):
        payload = build_canonical_scheme(3).to_dict()
        corrupt(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        result = run(_argv(command, path))
        assert result.exit_code == 1
        assert result.summary.startswith("error:")
        assert repr(field) in result.summary

    @pytest.mark.parametrize(
        "field, value, entry",
        [
            ("cprime", 0.0, "header-cprime"),  # an exact measurement, which the no-go forbids
            ("c", 7.0, "header-c"),
            ("n", 2, "header-n"),  # xi has weight on sector 3
            ("n", 64, "header-c"),  # |sigma|^2 / n no longer matches c
        ],
    )
    def test_header_that_disagrees_with_the_vectors_fails(self, tmp_path, field, value, entry):
        payload = build_canonical_scheme(3).to_dict()
        payload[field] = value
        path = tmp_path / "header.json"
        path.write_text(json.dumps(payload))
        result = run(_argv("validate", path))
        assert result.exit_code == 1
        assert "PASS" not in result.summary
        assert f"{entry}: " in result.summary

    @pytest.mark.parametrize("command", ["validate", "sample"])
    def test_deeply_nested_json_is_domain_error(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        result = run(_argv(command, path))
        assert (result.exit_code, result.summary) == (
            1, "error: scheme JSON is nested too deeply to read"
        )

    @pytest.mark.parametrize("name, value", [("xi", math.nan), ("sigma", math.inf)])
    def test_sample_refuses_non_finite_amplitude(self, tmp_path, name, value):
        payload = build_canonical_scheme(3).to_dict()
        payload[name]["sectors"][1]["amp"][0][0] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(payload))
        result = run(_sample_argv(path))
        assert result.exit_code == 1
        assert f"scheme vector {name} has non-finite amplitudes" in result.summary

    def test_sample_names_non_finite_amplitude_before_window_size(self, tmp_path):
        # rho alone at sector 2**40 puts the four vectors on too wide a window to build
        payload = build_canonical_scheme(3).to_dict()
        payload["rho"]["sectors"] = payload["rho"]["sectors"][:1]
        payload["rho"]["sectors"][0]["nu"] = 2**40
        payload["tau"]["sectors"][0]["amp"][0][1] = math.nan
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(payload))
        result = run(_sample_argv(path))
        assert (result.exit_code, result.summary) == (
            1, "error: scheme vector tau has non-finite amplitudes"
        )


def _paths(node, prefix=()):
    """Every ``(container path, key)`` position inside a JSON payload."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_CANONICAL = build_canonical_scheme(3).to_dict()
_POSITIONS = list(_paths(_CANONICAL))
_DELETE = object()  # an edit that removes the key instead of replacing its value
_edits = st.tuples(
    st.sampled_from(_POSITIONS),
    st.one_of(_json_values, st.sampled_from([math.nan, math.inf, -math.inf, _DELETE])),
)


def _non_finite(scheme):
    vectors = (scheme.xi, scheme.sigma, scheme.tau, scheme.rho)
    return any(not np.all(np.isfinite(amp)) for v in vectors for _, amp in v.items())


class TestCorruptedFiles:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(_edits, min_size=1, max_size=3))
    def test_validate_and_sample_exit_cleanly(self, tmp_path, edits):
        payload = json.loads(json.dumps(_CANONICAL))
        for (prefix, key), value in edits:
            node = payload
            try:
                for step in prefix:
                    node = node[step]
                if value is not _DELETE:
                    node[key] = value
                elif isinstance(node, dict):
                    node.pop(key, None)
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed or replaced this position
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(payload))
        try:
            scheme = ApproxScheme.from_json(path.read_text())
        except ValueError:
            scheme = None
        for command in ("validate", "sample"):
            with warnings.catch_warnings():  # overflowing amplitudes FAIL without a warning
                warnings.simplefilter("error", RuntimeWarning)
                result = run(_argv(command, path))
            assert result.exit_code in (0, 1)
            if scheme is None or _non_finite(scheme):
                assert result.exit_code == 1
                assert "PASS" not in result.summary


class TestNogo:
    def test_certificate_json(self):
        result = run(["nogo", "--n", "2"])
        assert result.exit_code == 0
        payload = json.loads(result.summary)
        assert payload["n"] == 2
        assert payload["min_violation"] > 0
        assert len(payload["witness"]) == 4

    def test_rotated_certificate(self):
        result = run(["nogo", "--n", "2", "--alpha", "1,0", "--beta", "0,0"])
        assert result.exit_code == 0
        payload = json.loads(result.summary)
        assert payload["min_violation"] == pytest.approx(0.0, abs=1e-12)

    def test_alpha_without_beta_is_domain_error(self):
        result = run(["nogo", "--n", "2", "--alpha", "1,0"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("value", ["1,2,3", "abc", "1", "1,x"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_malformed_amplitude_is_usage_error(self, capsys, flag, value):
        argv = ["nogo", "--n", "2", "--alpha", "1,0", "--beta", "0,0"]
        argv[argv.index(flag) + 1] = value
        assert run(argv).exit_code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_closed_stdout_exits_without_traceback(self):
        # the reader is gone before anything is printed, as in `waylab nogo --n 64 | head -2`
        src = Path(waylab.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "waylab.cli", "nogo", "--n", "64"],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_oversized_system_is_domain_error(self):
        # both solves hold 5n data entries: 16777220 at n = 3355444
        for argv in (
            ["nogo", "--n", "3355444"],
            ["nogo", "--n", "3355444", "--alpha", "0.8,0", "--beta", "0.6,0"],
        ):
            code, summary = run_guarded(argv)
            assert code == "1", argv
            assert "more than 16777216 entries" in summary, argv

    def test_rotated_past_the_old_dense_limit(self):
        # the dense rotated system refused n >= 915; the block solve is O(n)
        code, summary = run_guarded(["nogo", "--n", "915", "--alpha", "0.8,0", "--beta", "0.6,0"])
        assert code == "0", summary


class TestUsage:
    def test_unknown_flag_exits_2(self):
        assert run(["build", "--frobnicate"]).exit_code == 2

    def test_missing_subcommand_exits_2(self):
        assert run([]).exit_code == 2

    @pytest.mark.parametrize("value", ["1,2,3", "abc", "1,x"])
    def test_malformed_state_is_usage_error(self, tmp_path, capsys, value):
        scheme_file = tmp_path / "s.json"
        run(["build", "--n", "2", "--out", str(scheme_file)])
        result = run(
            ["sample", "--scheme", str(scheme_file), "--state", value, "--shots", "10"]
        )
        assert result.exit_code == 2
        assert "argument --state: " in capsys.readouterr().err

    def test_unnormalized_state_is_domain_error(self, tmp_path):
        scheme_file = tmp_path / "s.json"
        run(["build", "--n", "2", "--out", str(scheme_file)])
        # 1e200 squares beyond the float range: a norm of inf, not an OverflowError
        for state in ("1,1", "1e200,0"):
            result = run(
                ["sample", "--scheme", str(scheme_file), "--state", state,
                 "--shots", "10", "--seed", "1"]
            )
            assert result.exit_code == 1
        result = run(["nogo", "--n", "2", "--alpha", "1e200,0", "--beta", "1e200,0"])
        assert result.exit_code == 1
        assert "not normalized" in result.summary

    def test_shots_beyond_int64_is_domain_error(self, tmp_path):
        scheme_file = tmp_path / "s.json"
        run(["build", "--n", "2", "--out", str(scheme_file)])
        result = run(
            ["sample", "--scheme", str(scheme_file), "--state", "plus",
             "--shots", str(2**63), "--seed", "1"]
        )
        assert result.exit_code == 1
        assert "shots" in result.summary

    def test_one_parser_serves_every_call_as_fresh_ones_would(self, tmp_path, capsys):
        # a bad argument between good calls of other subcommands
        path = str(tmp_path / "s.json")
        calls = [
            ["build", "--n", "3", "--out", path],
            ["validate", "--scheme", path, "--frobnicate"],
            ["sample", "--scheme", path, "--state", "1,x", "--shots", "10"],
            ["nogo", "--n", "4"],
            ["validate", "--scheme", path, "--tol", "1e-9"],
            [],
            ["sample", "--scheme", path, "--state", "plus", "--shots", "10"],
        ]
        shared = [(run(argv), capsys.readouterr()) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append((run(argv), capsys.readouterr()))
        assert shared == fresh
        assert [result.exit_code for result, _ in shared] == [0, 2, 2, 0, 0, 2, 0]
