"""``python -m repro trace`` — run an experiment under the tracer.

Currently the traceable experiment is the power test (usage examples:
``python -m repro trace --help``).

``text`` prints the ST05-style per-query layer breakdown and hottest
operators per variant; ``json`` dumps the analysis plus the full span
tree; ``chrome`` emits one Chrome Trace Event document with each
variant on its own thread row, loadable in ``chrome://tracing``.
"""

from __future__ import annotations

import json

from repro import cli
from repro.core.powertest import run_power_test
from repro.trace.analyze import TraceAnalyzer
from repro.trace.export import to_chrome, to_json


def _dump(document: dict, args) -> None:
    out = args.trace_out
    text = json.dumps(document, indent=2, default=str)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def run_trace_command(args) -> int:
    result = run_power_test(**cli.power_test_options(args), tracing=True)
    version, top = result.version, args.top

    if args.format == "text":
        first = True
        for variant, tracer in result.traces.items():
            if not first:
                print()
            first = False
            title = (f"Power test trace — {variant}, "
                     f"R/3 {version.value}, SF={args.sf}")
            print(TraceAnalyzer(tracer).render_text(top=top, title=title))
        return 0

    meta = {"experiment": "power", "release": version.value, "sf": args.sf}
    if args.format == "json":
        document = {
            "format": "repro-power-trace-v1",
            "meta": meta,
            "variants": {
                variant: {
                    "analysis": TraceAnalyzer(tracer).summary(top=top),
                    "trace": to_json(tracer, meta={**meta,
                                                   "variant": variant}),
                }
                for variant, tracer in result.traces.items()
            },
        }
        _dump(document, args)
        return 0

    # chrome: all variants in one document, one thread row per variant
    events: list[dict] = []
    for tid, (variant, tracer) in enumerate(result.traces.items(), start=1):
        chrome = to_chrome(tracer, tid=tid, thread_name=variant)
        events.extend(chrome["traceEvents"])
    _dump({"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": meta}, args)
    return 0


def register(sub) -> dict:
    """Add this package's subparser to ``sub``; returns name -> function."""
    trace = cli.add_command(
        sub, "trace",
        "run an experiment under the tracer (per-query layer breakdown, "
        "hottest operators, full span tree)",
        """\
  python -m repro trace power --release 2.2 --sf 0.002 --format=text
  python -m repro trace power --format=json --trace-out trace.json
  python -m repro trace power --format=chrome --trace-out trace.chrome.json
""", [cli.POWER])
    trace.add_argument("target", nargs="?", choices=["power"],
                       default="power",
                       help="experiment to trace (default: power)")
    trace.add_argument("--format", choices=["text", "json", "chrome"],
                       default="text",
                       help="output format (chrome: one Chrome Trace "
                            "Event document, loadable in chrome://tracing)")
    trace.add_argument("--top", type=cli.positive_int, default=10,
                       help="operators in the hot-operator table "
                            "(default 10)")
    trace.add_argument("--trace-out", type=cli.output_file, default=None,
                       help="write the json/chrome trace to this file "
                            "instead of stdout")
    return {"trace": run_trace_command}
