"""Optimized schemes beat 1/(2n - 1) and approach the 1/n^2 law.

Sweeps a few apparatus sizes, building the error-optimal scheme at each
size, then fits the log-log scaling of the optimized error.  Writes the
sweep table as CSV next to this script.
"""

from pathlib import Path

import waylab as w

sizes = [4, 8, 16, 32]
table = w.sweep(sizes)

print(f"\n{'n':>4}  {'canonical':>12}  {'optimized':>12}  {'residual':>10}")
for r in table.rows:
    print(
        f"{r.n:>4}  {r.error_wigner:>12.8f}  {r.error_optimized:>12.8f}"
        f"  {r.constraint_residual:>10.2e}"
    )

slope, intercept, r2 = w.fit_scaling(table)
print(f"\nlog-log fit: slope = {slope:.4f} (r^2 = {r2:.5f})")
print("the canonical 1/(2n - 1) law only manages slope -1; the optimized")
print("slope steepens toward -2 as the window grows (extend to n = 64 for")
print("the acceptance figure of about -1.75; E n^2 tends to pi^2/2).")

out = Path(__file__).with_name("error_scaling.csv")
out.write_text(table.to_csv())
print(f"\nsweep table written to {out}")
