"""The ``python -m repro monitor`` command.

Runs a monitored dispatcher-scheduled throughput workload (the open30
suite plus update pairs on the chaos dispatcher pool) and prints the
``repro-monitor-v1`` workload report — the ST03 profile, the ST04
statement view, gauge series and the CCMS alert table.
"""

from __future__ import annotations

import json
import sys

from repro import cli
from repro.monitor.profile import build_report, render_report


def run_monitor_command(args) -> int:
    from repro.core.powertest import build_sap_system
    from repro.core.throughput import run_throughput_test
    from repro.r3.appserver import R3Version
    from repro.reports import open30
    from repro.sim.chaos import default_chaos_config
    from repro.tpcd.dbgen import generate, generate_update_pairs

    sections = [name for name in ("profile", "alerts", "stat_records")
                if getattr(args, name)] or ["profile", "alerts"]

    data = generate(args.sf)
    r3 = build_sap_system(data, R3Version.V30)
    r3.monitor.sample_interval_s = args.window
    r3.monitor.enable()
    suite = open30.make_queries(args.sf)
    result = run_throughput_test(
        r3, suite, streams=args.monitor_streams,
        update_sets=generate_update_pairs(data, 2),
        dispatcher=default_chaos_config())

    report = build_report(
        r3.monitor,
        meta={
            "scale_factor": args.sf,
            "release": "3.0",
            "streams": args.monitor_streams,
            "window_s": args.window,
            "elapsed_s": round(result.elapsed_s, 6),
            "queries_per_hour": round(result.queries_per_hour, 3),
        },
        include_stat_records="stat_records" in sections)

    if args.format == "json":
        payload = json.dumps(report, indent=2)
    else:
        payload = render_report(report, sections=tuple(sections))
    print(payload)
    if args.monitor_out:
        with open(args.monitor_out, "w") as fh:
            fh.write(json.dumps(report, indent=2))
            fh.write("\n")
        print(f"workload report written to {args.monitor_out}",
              file=sys.stderr)
    return 0


def register(sub) -> dict:
    """Add this package's subparser to ``sub``; returns name -> function."""
    monitor = cli.add_command(
        sub, "monitor",
        "run a monitored throughput workload and print the "
        "ST03/ST04-style workload report with CCMS alerts (default "
        "sections: --profile --alerts)",
        """\
  python -m repro monitor --profile --sf 0.001
  python -m repro monitor --alerts --stat-records --format=json \\
      --monitor-out workload-report.json
""", [cli.SF, cli.TEXT_OR_JSON])
    monitor.add_argument("--profile", action="store_true",
                         help="include the ST03 workload profile section")
    monitor.add_argument("--alerts", action="store_true",
                         help="include the CCMS alert section")
    monitor.add_argument("--stat-records", action="store_true",
                         help="include the raw STAT-record ring")
    monitor.add_argument("--monitor-streams", type=cli.positive_int,
                         default=6,
                         help="dialog streams for the monitored workload "
                              "(default 6)")
    monitor.add_argument("--window", type=cli.positive_float, default=1.0,
                         help="gauge sample window in simulated seconds "
                              "(default 1.0)")
    monitor.add_argument("--monitor-out", type=cli.output_file,
                         default=None,
                         help="also write the JSON workload report to "
                              "this file")
    return {"monitor": run_monitor_command}
