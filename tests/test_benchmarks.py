"""The per-layer micro-timings in ``benchmarks/`` import against the library as it stands.

The test suite does not collect ``benchmarks/``, so without this a library
name they import could be removed with no test failing; and the comparison
script runs end to end on this tree against itself.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "benchmarks" / "test_layers.py"


def test_layer_benchmarks_import():
    spec = importlib.util.spec_from_file_location("layer_benchmarks", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for case in (
        "test_completed_conserving_fresh",
        "test_first_one_sector_apply_fresh",
        "test_from_json_build_file_large",
        "test_from_json_distinct_values",
        "test_from_json_first_row_apart",
        "test_from_json_optimized",
        "test_from_json_text",
        "test_three_sector_completed",
        "test_three_sector_completed_fresh",
        "test_three_sector_orthogonality_transfer_check",
        "test_three_sector_orthogonality_transfer_check_fresh",
        "test_to_json_build_file_large",
        "test_to_json_distinct_values",
        "test_to_json_optimized",
    ):
        assert callable(getattr(module, case))


def test_compare_runs_a_tree_against_itself():
    pytest.importorskip("pytest_benchmark")
    case = "test_graded_from_window[100]"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "compare.py"), "--parent", str(ROOT),
         "--case", case, "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(f"round 1 (parent first) {case}: parent ")
    assert lines[-1].startswith(f"  {case}: parent ") and "median ratio" in lines[-1]
    assert "parent spread n/a" in lines[-1]  # one round has no quartiles
