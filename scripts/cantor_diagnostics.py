#!/usr/bin/env python3
"""Cantor counterexample diagnostics across recursion levels.

Writes the difference-quotient table (W^{1,1}, sup-slope and m = 1.5
columns, plus the smooth control) and the weak-divergence residuals.  The
W^{1,1} column saturates at the total-variation value while the sup and
m > 1 columns grow as long as the grid resolves the level-L ramps; the
residual column is quadrature noise at every level because the field is
exactly weakly divergence-free.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quclab import counterexamples as ce
from quclab.utils import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=str, default="4..12")
    ap.add_argument("--n-grid", type=int, default=1024)
    ap.add_argument("--bumps", type=int, default=20)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    if ".." in args.levels:
        lo, hi = args.levels.split("..")
        levels = list(range(int(lo), int(hi) + 1))
    else:
        levels = [int(t) for t in args.levels.split(",")]

    table = ce.sobolev_blowup_diagnostic(levels, n_grid=args.n_grid)
    write_csv(args.out_dir / "cantor_blowup.csv",
              ["level", "w11_quotient", "sup_quotient", "l15_quotient",
               "control_w11"],
              [[r.level, r.w11_quotient, r.sup_quotient, r.l15_quotient,
                r.control_w11] for r in table])
    for r in table:
        print(f"L={r.level:2d}  w11={r.w11_quotient:.6f}  sup={r.sup_quotient:9.2f}"
              f"  l15={r.l15_quotient:.6f}")

    # one pass over the bump bank: each bump's ||Dphi||_1 serves every level
    residuals = ce.weak_divergence_residuals(
        [ce.cantor_stress_field(level) for level in levels], n_bumps=args.bumps)
    for level, res in zip(levels, residuals):
        print(f"L={level:2d}  weak divergence residual = {res:.3e}")
    write_csv(args.out_dir / "cantor_residuals.csv",
              ["level", "weak_divergence_residual"], list(zip(levels, residuals)))
    print(f"wrote {args.out_dir}/cantor_blowup.csv and cantor_residuals.csv")


if __name__ == "__main__":
    main()
