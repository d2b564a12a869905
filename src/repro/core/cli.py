"""The paper's experiments on the command line, plus ``bench-diff``.

One subcommand per paper artifact (the drivers and their renders live
next door in :mod:`repro.core.experiments`, :mod:`repro.core.powertest`
and :mod:`repro.warehouse.eis`) and the benchmark-result differ of
:mod:`repro.core.benchdiff`.
"""

from __future__ import annotations

from repro import cli
from repro.core import experiments as ex
from repro.core.benchdiff import run_bench_diff
from repro.core.powertest import build_sap_system, run_power_test
from repro.r3.appserver import R3Version
from repro.tpcd.dbgen import generate


def _build_30(args):
    return build_sap_system(generate(args.sf), R3Version.V30)


def cmd_power(args) -> None:
    result = run_power_test(**cli.power_test_options(args),
                            storage=args.storage)
    print(result.render())


def cmd_dbsize(args) -> None:
    print(ex.table2_dbsize(scale_factor=args.sf).render())


def cmd_loading(args) -> None:
    print(ex.render_table3(ex.table3_loading(scale_factor=args.sf,
                                             storage=args.storage)))


def cmd_plan_trap(args) -> None:
    print(ex.table6_plan_choice(_build_30(args)).render())


def cmd_aggregation(args) -> None:
    print(ex.table7_aggregation(_build_30(args)).render())


def cmd_caching(args) -> None:
    print(ex.table8_caching(_build_30(args)).render())


def cmd_warehouse(args) -> None:
    print(ex.render_table9(ex.table9_warehouse(_build_30(args))))


def cmd_eis(args) -> None:
    from repro.warehouse.eis import run_breakeven

    print(run_breakeven(_build_30(args), args.sf).render())


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
