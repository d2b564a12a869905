"""Monitor overhead: the open30 power suite with monitoring off vs on.

The workload monitor's contract is "always-on": it must be cheap
enough to leave enabled in production.  Two identical 3.0E systems run
the open30 query suite side by side — one with the monitor enabled,
one without — and two acceptance gates apply:

* **zero-tick**: the simulated clocks and every non-``monitor.*``
  metric are *exactly* equal — the monitor reads time, never charges;
* **calls**: the Python function calls the monitor adds per DBIF
  round trip, counted with ``sys.setprofile`` over the warm-up pass of
  each system, stay within the count pinned below.  A count is the
  same on every run; the wall ratio of two best-of-N passes spreads by
  about ±10 % on a shared two-core machine, wider than any budget the
  monitor could be held to.

The wall overhead is still measured and reported (``overhead_pct``).
Dumps BENCH_monitor_overhead.json for ``repro bench-diff`` (the
``wall_*``/``overhead_pct`` fields measure the host machine, not the
simulation — allowlist them when gating).  Override the scale factor
with REPRO_MONITOR_SF.
"""

import json
import os
import sys
import time

from repro.core.powertest import build_sap_system
from repro.core.results import render_table
from repro.r3.appserver import R3Version
from repro.reports import open30
from repro.tpcd.dbgen import generate

MONITOR_SF = float(os.environ.get("REPRO_MONITOR_SF", "0.002"))
ROUNDS = 5
#: Python calls the monitor adds per DBIF round trip, as counted when
#: this gate was set; a change that makes the monitor dearer fails it
CALL_BUDGET = 24.3


def _dump(name: str, extra_info: dict) -> None:
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"name": name, "extra_info": extra_info, "stats": {}},
                  handle, indent=2)
        handle.write("\n")


def _suite_pass(r3, suite) -> None:
    """One full pass over the 17 open30 queries, STAT-bracketed."""
    for number in range(1, 18):
        step = r3.monitor.begin_step("dialog", f"Q{number}", wp="PWR")
        suite[number](r3)
        r3.monitor.end_step(step)


def _counted_pass(r3, suite) -> tuple[int, int]:
    """One suite pass: its Python calls and its DBIF round trips."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    roundtrips = r3.metrics.get("dbif.roundtrips")
    sys.setprofile(count)
    try:
        _suite_pass(r3, suite)
    finally:
        sys.setprofile(None)
    return calls, int(r3.metrics.get("dbif.roundtrips") - roundtrips)


def test_monitor_overhead(benchmark):
    data = generate(MONITOR_SF)
    suite = open30.make_queries(MONITOR_SF)
    off = build_sap_system(data, R3Version.V30)
    on = build_sap_system(data, R3Version.V30)
    on.monitor.enable()
    wall: dict[str, list[float]] = {"off": [], "on": []}
    counted: dict[str, tuple[int, int]] = {}

    def scenario():
        # warm-up pass each, counted: buffer pools and cursor caches
        # fill, so the timed rounds compare steady-state against
        # steady-state
        counted["off"] = _counted_pass(off, suite)
        counted["on"] = _counted_pass(on, suite)
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            _suite_pass(off, suite)
            wall["off"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            _suite_pass(on, suite)
            wall["on"].append(time.perf_counter() - t0)

    benchmark.pedantic(scenario, rounds=1, iterations=1)

    best_off, best_on = min(wall["off"]), min(wall["on"])
    overhead = best_on / best_off - 1
    (calls_off, roundtrips), (calls_on, roundtrips_on) = \
        counted["off"], counted["on"]
    assert roundtrips == roundtrips_on > 0
    calls_per_roundtrip = (calls_on - calls_off) / roundtrips

    # Zero-tick: identical simulated history, bit for bit.
    assert on.clock.now == off.clock.now
    metrics_on = {name: value for name, value in on.metrics.all().items()
                  if not name.startswith("monitor.")}
    metrics_off = {name: value for name, value in off.metrics.all().items()
                   if not name.startswith("monitor.")}
    assert metrics_on == metrics_off

    # The monitored system actually monitored: every pass produced
    # STAT records and each one conserves its response time exactly.
    records = list(on.monitor.stat_records)
    assert len(records) == 17 * (ROUNDS + 1)
    assert all(r.decomposed_s() == r.response_s for r in records)
    assert len(off.monitor.stat_records) == 0

    print()
    print(render_table(
        ["Mode", "Best wall s", "Mean wall s", "Simulated s"],
        [["monitor off", f"{best_off:.4f}",
          f"{sum(wall['off']) / ROUNDS:.4f}", f"{off.clock.now:.1f}"],
         ["monitor on", f"{best_on:.4f}",
          f"{sum(wall['on']) / ROUNDS:.4f}", f"{on.clock.now:.1f}"]],
        title=f"Monitor overhead at SF={MONITOR_SF}, "
              f"best of {ROUNDS} suite passes",
    ))
    print(f"wall overhead {overhead:+.2%}; {calls_per_roundtrip:.1f} "
          f"Python calls added per DBIF round trip (budget "
          f"{CALL_BUDGET}, {roundtrips} round trips); "
          f"simulated overhead exactly 0 by construction; "
          f"{len(records)} STAT records, "
          f"{int(on.metrics.get('monitor.samples'))} gauge samples")

    extra = {
        "suite_simulated_s": round(on.clock.now, 3),
        "stat_records": len(records),
        "gauge_samples": int(on.metrics.get("monitor.samples")),
        "wall_off_s": round(best_off, 4),
        "wall_on_s": round(best_on, 4),
        "overhead_pct": round(100 * overhead, 2),
        "monitor_calls_per_roundtrip": round(calls_per_roundtrip, 2),
    }
    _dump("monitor_overhead", extra)
    benchmark.extra_info.update(extra)

    # Acceptance: always-on monitoring adds no more Python calls per
    # DBIF round trip than it did when the budget was pinned.
    assert calls_per_roundtrip <= CALL_BUDGET
