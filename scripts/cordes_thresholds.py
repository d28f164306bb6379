#!/usr/bin/env python3
"""Tabulate the Cordes-type admissibility thresholds.

For a grid of dimensions and exponents, prints K0(N, m); for a grid of
ratio bounds K, prints delta0(K, N) with the default certified endpoint
bound and the empirical probe variant side by side.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quclab import cordes
from quclab.utils import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=str, default="2,3")
    ap.add_argument("--ms", type=str, default="1.5,2,3,4,6")
    ap.add_argument("--ks", type=str, default="1.05,1.1,1.2,1.5,2,4")
    ap.add_argument("--probe-trials", type=int, default=20)
    ap.add_argument("--out", type=Path, default=Path("out/cordes_thresholds.csv"))
    args = ap.parse_args()

    dims = [int(t) for t in args.dims.split(",")]
    ms = [float(t) for t in args.ms.split(",")]
    ks = [float(t) for t in args.ks.split(",")]

    rows = []
    for dim in dims:
        for m in ms:
            k0 = cordes.cordes_K0(dim, m)
            rows.append([dim, m, cordes.mhat(m), "K0", k0, ""])
            print(f"N={dim}  m={m:4.2f}  mhat={cordes.mhat(m):4.2f}  K0={k0:.6f}")
    for dim in dims:
        for k in ks:
            d0 = cordes.cordes_delta0(k, dim)
            d0_emp = cordes.cordes_delta0(k, dim, probe_trials=args.probe_trials)
            rows.append([dim, "", "", f"delta0(K={k})", d0, d0_emp])
            print(f"N={dim}  K={k:5.2f}  delta0={d0:.6f}  "
                  f"delta0[empirical probe]={d0_emp:.6f}")
    write_csv(args.out, ["dim", "m", "mhat", "quantity", "certified", "empirical"],
              rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
