"""Tests for the scheme optimizer and scaling fit."""

import math

import mpmath
import numpy as np
import pytest

from waylab import graded, optimize
from waylab.optimize import (
    OptimizerOptions,
    SweepRow,
    SweepTable,
    fit_scaling,
    optimize_scheme,
    sweep,
)
from waylab.scheme import build_canonical_scheme, scheme_error, validate_scheme

from oracles import local_min_scheme_errors, ols_loglog_slope


def exact_error(n):
    """``E(n) = (1 - cos t)/(3 + cos t)``, ``t = pi/(ceil(n/2) + 1)``, at mpmath precision."""
    t = mpmath.pi / ((n + 1) // 2 + 1)
    return (1 - mpmath.cos(t)) / (3 + mpmath.cos(t))


class TestOptimizeScheme:
    def test_never_worse_than_canonical_n2(self):
        s = optimize_scheme(2)
        assert scheme_error(s) <= 1 / 3 + 1e-10

    def test_beats_canonical_n16(self):
        s = optimize_scheme(16)
        assert scheme_error(s) < 1 / 31
        # independent re-validation of the returned scheme
        assert validate_scheme(s).max_residual <= OptimizerOptions().tol_constraint

    def test_deterministic_for_fixed_seed(self):
        a = optimize_scheme(4)
        b = optimize_scheme(4)
        assert a == b

    def test_objective_recompute_matches(self):
        s = optimize_scheme(8)
        assert s.cprime == pytest.approx(scheme_error(s), abs=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 2"):
            optimize_scheme(1)

    def test_option_validation(self):
        with pytest.raises(ValueError, match="tol_constraint"):
            OptimizerOptions(tol_constraint=0)
        with pytest.raises(ValueError, match="tol_objective"):
            OptimizerOptions(tol_objective=-1)

    def test_error_is_closed_form(self):
        with mpmath.workdps(50):
            for n in list(range(2, 65)) + [1024]:
                exact = exact_error(n)
                canonical = mpmath.mpf(1) / (2 * n - 1)
                err = scheme_error(optimize_scheme(n))
                assert abs(err - exact) <= 1e-14 * exact, n
                # never worse than canonical; equal at n = 2 and n = 4
                assert exact <= canonical * (1 + mpmath.mpf(10) ** -40), n
                assert err <= float(canonical) * (1 + 1e-14), n

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_no_local_search_beats_closed_form(self, n):
        with mpmath.workdps(50):
            closed = float(exact_error(n))
        feasible = [e for e, r in local_min_scheme_errors(n) if r <= 1e-8]
        assert feasible
        assert min(feasible) >= closed * (1 - 1e-9)


class TestSweep:
    def test_single_row(self):
        table = sweep([2])
        assert len(table.rows) == 1
        assert table.rows[0].error_wigner == pytest.approx(1 / 3)
        assert table.rows[0].error_optimized <= 1 / 3 + 1e-10

    def test_rows_non_increasing(self):
        table = sweep([4, 8, 16])
        errs = [r.error_optimized for r in table.rows]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        for r in table.rows:
            assert r.error_optimized <= r.error_wigner + 1e-10
            assert r.constraint_residual <= OptimizerOptions().tol_constraint

    def test_oversized_n_refused_before_building(self, monkeypatch):
        # validation reads sectors -2..n+3: 2 (n + 6) = 20 entries at n = 4, d = 2
        monkeypatch.setattr(graded, "_MAX_WINDOW_ENTRIES", 20)
        assert optimize_scheme(4).n == 4
        assert [r.n for r in sweep([2, 4]).rows] == [2, 4]
        monkeypatch.setattr(optimize, "_smooth_profile_scheme", None)
        monkeypatch.setattr(optimize, "build_canonical_scheme", None)
        with pytest.raises(ValueError, match="n = 5 at dimension 2 .* 20 entries"):
            optimize_scheme(5)
        # every size is checked before the first row is built
        with pytest.raises(ValueError, match="n = 5 at dimension 2 .* 20 entries"):
            sweep([2, 3, 5])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sweep([])

    def test_row_failure_annotated_not_fatal(self):
        # an unattainable constraint tolerance fails the row, which falls
        # back to the canonical scheme and carries a note instead of
        # aborting the sweep
        impossible = OptimizerOptions(tol_constraint=1e-300)
        table = sweep([2], opts=impossible)
        row = table.rows[0]
        assert row.note != ""
        assert row.error_optimized == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("failed", [False, True])
    def test_row_error_is_scheme_error_of_the_kept_scheme(self, failed):
        # an optimized row reuses the error taken when its scheme was built,
        # a canonical fallback row computes it; both read scheme_error exactly
        opts = OptimizerOptions(tol_constraint=1e-300) if failed else None
        for row in sweep([2, 5, 12], opts=opts).rows:
            assert bool(row.note) == failed
            kept = build_canonical_scheme(row.n) if failed else optimize_scheme(row.n)
            assert row.error_optimized == scheme_error(kept)

    def test_failure_carries_best_iterate(self):
        from waylab.optimize import OptimizationError
        from waylab.scheme import ApproxScheme

        impossible = OptimizerOptions(tol_constraint=1e-300)
        with pytest.raises(OptimizationError) as excinfo:
            optimize_scheme(2, opts=impossible)
        assert isinstance(excinfo.value.best, ApproxScheme)

    def test_fixed_seed_bit_identical_csv(self):
        a = sweep([4, 8]).to_csv()
        b = sweep([4, 8]).to_csv()
        assert a == b

    def test_csv_round_trip(self):
        table = sweep([4])
        again = SweepTable.from_csv(table.to_csv())
        assert again.rows[0].n == 4
        assert again.rows[0].error_optimized == table.rows[0].error_optimized

    @pytest.mark.parametrize("text", ["", "\n", "n,error\n"])
    def test_csv_without_header_is_value_error(self, text):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            SweepTable.from_csv(text)


class TestFitScaling:
    def test_canonical_error_rows(self):
        # OLS on the canonical law for n = 4..32; the frozen value comes
        # from the closed-form regression oracle.
        ns = [4, 8, 16, 32]
        rows = tuple(
            SweepRow(n, 1 / (2 * n - 1), 1 / (2 * n - 1), 0.0, 0) for n in ns
        )
        slope, _, r2 = fit_scaling(SweepTable(rows=rows))
        expected = ols_loglog_slope(ns, [1 / (2 * n - 1) for n in ns])
        assert expected == pytest.approx(-1.0557080719105294, abs=1e-12)
        assert slope == pytest.approx(expected, abs=1e-12)
        assert r2 > 0.999

    def test_exact_square_law(self):
        ns = [4, 8, 16, 32]
        rows = tuple(SweepRow(n, 1.0, 1.0 / n**2, 0.0, 0) for n in ns)
        slope, intercept, r2 = fit_scaling(SweepTable(rows=rows))
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_rows(self):
        rows = tuple(SweepRow(n, 1.0, 1.0 / n, 0.0, 0) for n in (2, 4))
        with pytest.raises(ValueError, match=">= 3 rows"):
            fit_scaling(SweepTable(rows=rows))

    def test_needs_two_distinct_sizes(self):
        # one size gives a singular design: polyfit returned a slope with r2 = 1.0
        rows = tuple(SweepRow(4, 1.0, e, 0.0, 0) for e in (0.05, 0.06, 0.07))
        with pytest.raises(ValueError, match=">= 2 distinct sizes .* only n = 4"):
            fit_scaling(SweepTable(rows=rows))

    def test_rejects_nonpositive_errors(self):
        rows = tuple(SweepRow(n, 1.0, 0.0, 0.0, 0) for n in (2, 4, 8))
        with pytest.raises(ValueError, match="positive"):
            fit_scaling(SweepTable(rows=rows))

    @pytest.mark.parametrize(
        "ns, errors, match",
        [
            # NaN and inf pass "<= 0": the fit read (nan, nan, 1.0), an r2 of 1
            ((2, 3, 4), (math.nan, 0.1, 0.05), r"row 1: optimized error nan .* positive"),
            ((2, 3, 4), (0.2, math.inf, 0.05), r"row 2: optimized error inf .* positive"),
            ((2, 3, 4), (0.2, 0.1, -math.inf), r"row 3: optimized error -inf .* positive"),
            # log(n <= 0) failed inside LAPACK with LinAlgError
            ((2, 0, 4), (0.2, 0.1, 0.05), r"row 2: n = 0 must be positive"),
            ((-3, 2, 4), (0.2, 0.1, 0.05), r"row 1: n = -3 must be positive"),
        ],
        ids=["nan", "inf", "-inf", "n=0", "n<0"],
    )
    def test_rejects_nonfinite_errors_and_nonpositive_sizes(self, ns, errors, match):
        rows = tuple(SweepRow(n, 1.0, e, 0.0, 0) for n, e in zip(ns, errors))
        with pytest.raises(ValueError, match=match):
            fit_scaling(SweepTable(rows=rows))

    def test_nan_read_from_csv_is_refused(self):
        text = SweepTable.CSV_HEADER + "\n2,1.0,nan,0.0,0\n3,1.0,0.1,0.0,0\n4,1.0,0.05,0.0,0\n"
        with pytest.raises(ValueError, match="row 1: optimized error nan must be finite and positive"):
            fit_scaling(SweepTable.from_csv(text))
