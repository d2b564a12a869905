#!/usr/bin/env python3
"""Reproduce the paper's Table 4 or Table 5: the full TPC-D power test.

Run:  python examples/power_test.py [--release 2.2|3.0] [--sf 0.002]
      [--no-updates]

Prints the paper-style table (RDBMS / Native SQL / Open SQL, Q1-Q17 +
UF1/UF2) with simulated durations, then the headline ratios next to the
paper's published ones.
"""

import argparse

from repro.core.powertest import run_power_test
from repro.r3.appserver import R3Version


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--release", choices=["2.2", "3.0"],
                        default="3.0")
    parser.add_argument("--sf", type=float, default=0.002)
    parser.add_argument("--no-updates", action="store_true")
    args = parser.parse_args()

    version = R3Version.V22 if args.release == "2.2" else R3Version.V30
    print(f"running the TPC-D power test, R/3 {version.value}, "
          f"SF={args.sf} (this takes a minute or two) ...")
    result = run_power_test(
        args.sf, version, include_updates=not args.no_updates
    )
    print()
    print(result.render())
    print()
    print(result.render_vs_paper())


if __name__ == "__main__":
    main()
