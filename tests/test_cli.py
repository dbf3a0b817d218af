"""Tests for the batch command-line interface."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from waylab.cli import run
from waylab.optimize import SweepTable
from waylab.scheme import ApproxScheme, build_canonical_scheme


def read(path):
    with open(path) as handle:
        return handle.read()


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

    def test_missing_file_is_domain_error(self):
        result = run(["validate", "--scheme", "/nonexistent.json"])
        assert result.exit_code == 1
        assert "error" in result.summary


class TestOptimizeAndSweep:
    def test_optimize_writes_scheme(self, tmp_path):
        out = tmp_path / "opt.json"
        result = run(
            ["optimize", "--n", "4", "--seed", "3", "--max-iters", "25", "--out", str(out)]
        )
        assert result.exit_code == 0
        scheme = ApproxScheme.from_json(read(out))
        assert scheme.n == 4

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
        ra = run(["sweep", "--n-min", "2", "--n-max", "4", "--geometric", "--seed", "9", "--out", str(a)])
        rb = run(["sweep", "--n-min", "2", "--n-max", "4", "--geometric", "--seed", "9", "--out", str(b)])
        assert ra.exit_code == 0
        assert rb.exit_code == 0
        assert read(a) == read(b)


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

    @pytest.mark.parametrize("name, value", [("xi", math.nan), ("sigma", math.inf)])
    def test_sample_refuses_non_finite_amplitude(self, tmp_path, name, value):
        payload = build_canonical_scheme(3).to_dict()
        payload[name]["sectors"][1]["amp"][0][0] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(payload))
        result = run(_sample_argv(path))
        assert result.exit_code == 1
        assert f"scheme vector {name} has non-finite amplitudes" in result.summary


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
            with np.errstate(all="ignore"):  # overflowing amplitudes warn on the way to FAIL
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


class TestUsage:
    def test_unknown_flag_exits_2(self):
        assert run(["build", "--frobnicate"]).exit_code == 2

    def test_missing_subcommand_exits_2(self):
        assert run([]).exit_code == 2

    def test_unnormalized_state_is_domain_error(self, tmp_path):
        scheme_file = tmp_path / "s.json"
        run(["build", "--n", "2", "--out", str(scheme_file)])
        result = run(
            ["sample", "--scheme", str(scheme_file), "--state", "1,1",
             "--shots", "10", "--seed", "1"]
        )
        assert result.exit_code == 1
