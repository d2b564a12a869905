"""The paper's experiments on the command line, plus ``bench-diff``.

One subcommand per paper artifact (the drivers live next door in
:mod:`repro.core.experiments` and :mod:`repro.core.powertest`) and the
benchmark-result differ of :mod:`repro.core.benchdiff`.
"""

from __future__ import annotations

from repro import cli
from repro.core import experiments as ex
from repro.core.benchdiff import run_bench_diff
from repro.core.powertest import build_sap_system, run_power_test
from repro.core.results import duration_cell, kb_cell, render_table
from repro.r3.appserver import R3Version
from repro.sim.clock import format_duration
from repro.tpcd.dbgen import generate


def _build_30(args):
    return build_sap_system(generate(args.sf), R3Version.V30)


def cmd_power(args) -> None:
    result = run_power_test(**cli.power_test_options(args),
                            storage=args.storage)
    print(result.render())


def cmd_dbsize(args) -> None:
    result = ex.table2_dbsize(scale_factor=args.sf)
    rows = [
        [entity, kb_cell(e["orig_data"]), kb_cell(e["orig_index"]),
         kb_cell(e["sap_data"]), kb_cell(e["sap_index"])]
        for entity, e in result.entities.items()
    ]
    print(render_table(
        ["", "Orig Data KB", "Orig Idx KB", "SAP Data KB", "SAP Idx KB"],
        rows, title=f"Table 2 at SF={args.sf}",
    ))
    print(f"inflation: data {result.data_inflation:.1f}x, "
          f"index {result.index_inflation:.1f}x")


def cmd_loading(args) -> None:
    timings = ex.table3_loading(scale_factor=args.sf,
                                storage=args.storage)
    for entity in ("SUPPLIER", "PART", "PARTSUPP", "CUSTOMER",
                   "ORDER+LINEITEM"):
        print(f"{entity:16} {duration_cell(timings.effective(entity))}")


def cmd_plan_trap(args) -> None:
    result = ex.table6_plan_choice(_build_30(args))
    for (interface, label), seconds in sorted(result.times.items()):
        print(f"{interface:>6} / {label:<4} "
              f"{duration_cell(seconds):>10} "
              f"({result.rows[(interface, label)]} rows)")


def cmd_aggregation(args) -> None:
    result = ex.table7_aggregation(_build_30(args))
    print(f"native {duration_cell(result.native_s)}  "
          f"open {duration_cell(result.open_s)}  "
          f"match={result.rows_match}")


def cmd_caching(args) -> None:
    result = ex.table8_caching(_build_30(args))
    for label, (hit_ratio, cost) in result.configs.items():
        print(f"{label:<6} hit {hit_ratio:>4.0%}  "
              f"cost {duration_cell(cost)}")


def cmd_warehouse(args) -> None:
    results = ex.table9_warehouse(_build_30(args))
    total = 0.0
    for name, entry in results.items():
        total += entry.elapsed_s
        print(f"{name:10} {entry.rows:7} rows  "
              f"{duration_cell(entry.elapsed_s)}")
    print(f"{'total':10} {'':>12} {duration_cell(total)}")


def cmd_eis(args) -> None:
    from repro.reports import open30
    from repro.warehouse.eis import EisWarehouse, breakeven_queries

    r3 = _build_30(args)
    warehouse = EisWarehouse.build_from_sap(r3)
    eis_total = warehouse.run_power_test(args.sf)
    suite = open30.make_queries(args.sf)
    span = r3.measure()
    for number in range(1, 18):
        suite[number](r3)
    open_total = span.stop()
    rounds = breakeven_queries(warehouse.build.total_s, open_total,
                               eis_total)
    print(f"construction {format_duration(warehouse.build.total_s)}, "
          f"power test on EIS {format_duration(eis_total)}, "
          f"via Open SQL {format_duration(open_total)}")
    print(f"break-even after ~{rounds:.1f} power-test rounds")


#: name -> (function, one-line summary, parent parsers)
_EXPERIMENTS = {
    "power": (cmd_power, "the TPC-D power test, RDBMS vs Native vs Open "
              "SQL (Tables 4 and 5)", [cli.POWER, cli.STORAGE]),
    "dbsize": (cmd_dbsize, "database and index sizes, original vs SAP "
               "schema (Table 2)", [cli.SF]),
    "loading": (cmd_loading, "batch-input load times (Table 3)",
                [cli.SF, cli.STORAGE]),
    "plan-trap": (cmd_plan_trap, "the parameterized-query optimizer "
                  "trap (Table 6)", [cli.SF]),
    "aggregation": (cmd_aggregation, "complex aggregation, Native vs "
                    "Open SQL (Table 7)", [cli.SF]),
    "caching": (cmd_caching, "application-server table buffering "
                "(Table 8)", [cli.SF]),
    "warehouse": (cmd_warehouse, "warehouse extraction costs (Table 9)",
                  [cli.SF]),
    "eis": (cmd_eis, "EIS warehouse construction and its break-even "
            "against Open SQL", [cli.SF]),
}

_EXAMPLES = {
    "power": """\
  python -m repro power --release 3.0 --sf 0.002
  python -m repro power --sf 0.001 --degree 4 --no-updates
  python -m repro power --sf 0.001 --storage lsm
""",
    "loading": """\
  python -m repro loading --sf 0.0005
  python -m repro loading --sf 0.0005 --storage lsm
""",
}


def register(sub) -> dict:
    """Add this package's subparsers to ``sub``; returns name -> function."""
    for name, (_fn, summary, parents) in _EXPERIMENTS.items():
        cli.add_command(
            sub, name, summary,
            _EXAMPLES.get(name, f"  python -m repro {name} --sf 0.002\n"),
            parents)
    bench = cli.add_command(
        sub, "bench-diff",
        "compare two BENCH_*.json dumps; --gate turns the diff into a CI "
        "regression gate (exit 1 when any extra_info field moved more "
        "than the threshold)",
        """\
  python -m repro bench-diff BENCH_old.json BENCH_new.json
  python -m repro bench-diff BENCH_base.json BENCH_new.json \\
      --gate 10 --gate-allow wall_s,overhead_pct
""", [cli.TEXT_OR_JSON])
    bench.add_argument("paths", nargs=2, metavar="BENCH.json",
                       help="baseline dump, then candidate dump")
    bench.add_argument("--gate", type=cli.non_negative_float, default=None,
                       help="fail (exit 1) when any extra_info field "
                            "moved more than this many percent")
    bench.add_argument("--gate-allow", type=cli.names, default=None,
                       help="comma-separated extra_info fields exempt "
                            "from --gate")
    return {"bench-diff": run_bench_diff,
            **{name: fn for name, (fn, *_rest) in _EXPERIMENTS.items()}}
