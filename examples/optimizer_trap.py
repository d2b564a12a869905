#!/usr/bin/env python3
"""The Table 6 optimizer trap, interactively.

Open SQL translates every literal into a parameter marker so the cursor
cache can reuse plans.  The price: the optimizer never sees the value,
cannot estimate selectivity, and falls back to "there is an index, use
it" — catastrophic when the predicate selects the whole table.

Run:  python examples/optimizer_trap.py [scale_factor]
"""

import sys

from repro.core.experiments import table6_plan_choice
from repro.core.powertest import build_sap_system
from repro.r3.appserver import R3Version
from repro.tpcd.dbgen import generate


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    print(f"building an R/3 3.0E system at SF={scale_factor} ...")
    r3 = build_sap_system(generate(scale_factor), R3Version.V30)

    print("running the Figure 3 reports (index on VBAP.KWMENG) ...")
    print("the Native SQL report ships KWMENG < 0 and KWMENG < 9999 as "
          "literals; Open SQL sends both as KWMENG < ?\n")
    print(table6_plan_choice(r3).render())
    print("\nthe same rows either way; only the plans differ, because the "
          "optimizer never saw the value bound to ?.")


if __name__ == "__main__":
    main()
