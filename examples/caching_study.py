#!/usr/bin/env python3
"""The Table 8 caching study: buffering MARA in the application server.

A sales clerk entering orders touches the same parts over and over;
SAP R/3 can keep those records in the application server and skip the
database entirely.  This example replays the paper's Figure 5 report —
one SELECT SINGLE against MARA per VBAP row — under three buffer
configurations.

Run:  python examples/caching_study.py [scale_factor]
"""

import sys

from repro.core.experiments import table8_caching
from repro.core.powertest import build_sap_system
from repro.r3.appserver import R3Version
from repro.tpcd.dbgen import generate


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    print(f"building an R/3 3.0E system at SF={scale_factor} ...")
    r3 = build_sap_system(generate(scale_factor), R3Version.V30)

    print("replaying the Figure 5 report under three buffer sizes ...\n")
    print(table8_caching(r3).render())
    print("\na buffer that holds the whole table wins; a thrashing one is "
          "a wash — management overhead eats the few hits.")


if __name__ == "__main__":
    main()
