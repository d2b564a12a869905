#!/usr/bin/env python3
"""Section 5 / Table 9: building a data warehouse from the SAP database.

Runs the eight Open SQL extraction reports that reconstruct the
original TPC-D tables as ASCII, and compares the total cost against a
full Open SQL power test — the paper's argument that a warehouse only
pays off under a much heavier analytical load.

Run:  python examples/warehouse_extraction.py [scale_factor]
"""

import sys

from repro.core import paperdata
from repro.core.experiments import render_table9, table9_warehouse
from repro.core.powertest import build_sap_system
from repro.r3.appserver import R3Version
from repro.sim.clock import format_duration
from repro.tpcd.dbgen import generate
from repro.warehouse.eis import open_sql_power_total


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    print(f"building an R/3 3.0E system at SF={scale_factor} ...")
    r3 = build_sap_system(generate(scale_factor), R3Version.V30)

    print("running the extraction reports ...\n")
    results = table9_warehouse(r3)
    print(render_table9(results))
    total = sum(entry.elapsed_s for entry in results.values())

    print("\nfor comparison: one Open SQL power test on the same data ...")
    power = open_sql_power_total(r3, scale_factor)
    paper_power = paperdata.total(paperdata.TABLE5_30E_S["open"],
                                  queries_only=True)
    print(f"  power test total: {format_duration(power)}")
    print(f"\nextraction / power-test ratio: {total / power:.2f} "
          f"(paper: {paperdata.TABLE9_TOTAL_S / paper_power:.2f} — "
          f"{format_duration(paperdata.TABLE9_TOTAL_S)} vs "
          f"{format_duration(paper_power)})")


if __name__ == "__main__":
    main()
