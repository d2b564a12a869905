#!/usr/bin/env python3
"""Compare two ledgers of benchmark runs, metric by metric.

    python3 perf/compare.py A.json B.json

prints one row per (workload, end-to-end metric) with both medians, the
bound from ``BENCHMARK.json`` and a verdict, and exits 1 if any row is
``regressed``:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but the spread of A's or B's own runs
  (interquartile range over median) is wider than the bound, so "no
  change" cannot be told from noise;
* ``ok`` — neither.

Every metric has its own direction and bound, which is why ``repro
bench-diff --gate`` (one percentage for every field, wall fields
excluded) is not reused.  With a single ledger,

    python3 perf/compare.py A.json

prints each median and spread beside a third of the bound — the
steadiness the benchmark asks of itself.  A ledger is what
``run.py --workload all --runs K --ledger FILE`` writes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs in a ledger."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text()):
        if run["trace"]:
            continue
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []) \
                .append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: list[float], b: list[float], metric: dict) -> str:
    if worsening(statistics.median(a), statistics.median(b),
                 metric["better"]) > metric["bound"]:
        return "regressed"
    if max(spread(a), spread(b)) > metric["bound"]:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    ledgers = [load(path) for path in argv]
    status = 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for metric in BENCHMARK["end_to_end"]:
            runs = [ledger.get((workload, metric["name"]))
                    for ledger in ledgers]
            if not all(runs):
                continue
            row = f"{workload:18s} {metric['name']:17s}"
            for values in runs:
                row += (f" {statistics.median(values):12.6g}"
                        f" ±{spread(values):6.1%} (n={len(values)})")
            if len(runs) == 1:
                steady = spread(runs[0]) <= metric["bound"] / 3
                row += (f"  bound/3 {metric['bound'] / 3:6.1%}  "
                        + ("steady" if steady else "NOT STEADY"))
            else:
                word = verdict(*runs, metric)
                status |= word == "regressed"
                change = worsening(statistics.median(runs[0]),
                                   statistics.median(runs[1]),
                                   metric["better"])
                row += (f"  worse by {change:+7.1%}  "
                        f"bound {metric['bound']:5.1%}  {word}")
            print(row)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
