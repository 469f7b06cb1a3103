#!/usr/bin/env python3
"""Recompute every headline constant and print a compact summary.

Usage: python scripts/reproduce_bounds.py [--quick]
  --quick skips the LP cap scan (about 1.5 s for d = 1..14 on a 2-core
  x86-64 host) and reuses the stored cap table, which the full run
  re-derives and cross-checks.
"""

import sys
import time
from fractions import Fraction

from bfc.bounds import (
    LP_CAP_TABLE,
    LP_CAPS,
    MARKOV_CAPS,
    SQUARE_CAPS,
    dp_degree,
    dp_mixed_ds,
    dp_monotone_degree,
    ds_influence_min,
    monotone_dt_table,
)
from bfc.lp import lp_bs_cap


def main() -> int:
    quick = "--quick" in sys.argv
    t0 = time.time()

    print("== block-sensitivity caps per degree (moment LP) ==")
    if quick:
        row = [LP_CAP_TABLE[d] for d in range(1, 15)]
        print("  stored:", row, "(scan skipped, --quick)")
    else:
        row = []
        for d in range(1, 15):
            scan = lp_bs_cap(d)
            row.append(scan.cap)
            flag = "" if scan.monotone else "  ** non-monotone profile **"
            print(f"  d={d:2d}  cap={scan.cap:3d}{flag}")
        stored = [LP_CAP_TABLE[d] for d in range(1, 15)]
        print("  matches stored table:", row == stored)

    print("\n== degree potential tables (d_max = 30) ==")
    for name, caps in (("square", SQUARE_CAPS), ("lp", LP_CAPS), ("markov", MARKOV_CAPS)):
        g = dp_degree(30, caps)
        print(
            f"  caps={name:7s} corner={g.corner:.6f} tail={g.tail_first + g.tail_series + g.tail_remainder:.2e}"
            f" headline={g.headline:.6f}"
        )

    print("\n== monotone degree recursion ==")
    mono = dp_monotone_degree(30)
    print(f"  value(30) = {float(mono.values[30]):.9f} "
          f"({mono.values[30].numerator}/{mono.values[30].denominator})")
    print(f"  headline  = {float(mono.headline):.9f}")

    print("\n== mixed degree/sensitivity ==")
    mn = ds_influence_min(Fraction(1, 2))
    print(f"  influence minimum: k*={mn.k} value={mn.value:.6f}")
    for step in ("profile", "uniform"):
        g = dp_mixed_ds(Fraction(1, 2), 48, MARKOV_CAPS, step=step)
        note = "" if g.headline <= 8.277 else f"  ** exceeds 8.277 by {g.headline - 8.277:.4f} **"
        print(f"  table step={step:7s} headline={g.headline:.6f}{note}")

    print("\n== monotone decision-tree table ==")
    t = monotone_dt_table(20)
    print(f"  depths 1..5: {list(t.values[1:6])}")
    print(f"  ratio at 20: {float(t.ratio):.9f}")

    print(f"\ndone in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
