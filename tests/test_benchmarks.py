"""The per-layer micro-timings in ``benchmarks/`` import against the library as it stands.

The test suite does not collect ``benchmarks/``, so without this a library
name they import could be removed with no test failing.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "test_layers.py"


def test_layer_benchmarks_import():
    spec = importlib.util.spec_from_file_location("layer_benchmarks", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for case in (
        "test_completed_conserving_fresh",
        "test_first_one_sector_apply_fresh",
        "test_three_sector_completed",
        "test_three_sector_completed_fresh",
        "test_three_sector_orthogonality_transfer_check",
        "test_three_sector_orthogonality_transfer_check_fresh",
    ):
        assert callable(getattr(module, case))
