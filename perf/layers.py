"""Per-layer metrics of a traced run.

Everything here reads what the program already exposes (its metric
counters, the spans :mod:`spans` recorded around its entry points, a
``cProfile`` of one pass) or times a public function in isolation.  The
names are ``<module>.<metric>``; ``BENCHMARK.json`` declares every one
of them and ``README.md`` says which end-to-end metric each should
move.  A metric that does not apply to a workload reads 0 there.
"""

from __future__ import annotations

import cProfile
import statistics
from time import perf_counter, perf_counter_ns

import repro.core.powertest  # noqa: F401  first, see workloads.py
from repro.engine.database import Database
from repro.engine.sql.parser import parse_sql
from repro.monitor.profile import percentile
from repro.r3.opensql.parser import parse_open_sql
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.tpcd.queries import build_queries
from repro.tpcd.schema import create_original_schema

#: per-layer name -> program counter(s) summed into it
COUNTERS = {
    "engine.plans": ("db.plans",),
    "engine.exec_tuples": ("exec.tuples",),
    "engine.buffer_misses": ("buffer.misses",),
    "engine.index_lookups": ("index.eq_lookups", "index.prefix_scans",
                             "index.range_scans"),
    "engine.spill_pages": ("exec.spill_pages",),
    "engine.subquery_executions": ("plan.subquery_executions",),
    "engine.lsm.flushes": ("lsm.flushes",),
    "engine.lsm.compactions": ("lsm.compactions",),
    "engine.lsm.compaction_pages": ("lsm.compaction_pages",),
    "sim.disk_random_reads": ("disk.random_reads",),
    "sim.disk_seq_reads": ("disk.seq_reads",),
    "sim.disk_writes": ("disk.writes",),
    "sim.disk_seq_writes": ("disk.seq_writes",),
    "sim.disk_time_sim_s": ("disk.time_s",),
    "r3.dbif.roundtrips": ("dbif.roundtrips",),
    "r3.dbif.tuples_shipped": ("dbif.tuples_shipped",),
    "r3.abap.rows_processed": ("abap.rows_processed",),
    "r3.abap.extracts": ("abap.extracts",),
    "r3.abap.sort_spills": ("abap.sort_spills",),
    "r3.dispatcher.queue_wait_sim_s": ("dispatcher.queue_wait_s",),
    "r3.dispatcher.submitted": ("dispatcher.submitted",),
    "r3.dispatcher.completed": ("dispatcher.completed",),
    "r3.dispatcher.shed": ("dispatcher.shed",),
    "r3.dispatcher.rejected": ("dispatcher.rejected",),
    "r3.dispatcher.requeued": ("dispatcher.requeued",),
    "r3.batchinput.transactions": ("batchinput.transactions",),
}

#: per-layer name -> (hits counter, misses counter)
HIT_RATIOS = {
    "engine.buffer_hit_ratio": ("buffer.hits", "buffer.misses"),
    "r3.dbif.cursor_hit_ratio": ("dbif.cursor_cache_hits",
                                 "dbif.cursor_cache_misses"),
}

#: per-layer wall metric -> (span names, "self_s" | "total_s")
SPAN_WALLS = {
    "tpcd.generate_wall_s": (("tpcd.generate",), "total_s"),
    "engine.wall_s": (("engine", "engine.prepare"), "self_s"),
    "engine.bulk_load_wall_s": (("engine.bulk_load",), "total_s"),
    "engine.analyze_wall_s": (("engine.analyze",), "total_s"),
    "engine.direct_path_wall_s": (("engine.direct_path",), "self_s"),
    "r3.opensql.wall_s": (("r3.opensql",), "self_s"),
    "r3.dbif.wall_s": (("r3.dbif",), "self_s"),
    "r3.dispatcher.wall_s": (("r3.dispatcher",), "self_s"),
    "r3.batchinput.load_wall_s": (("r3.batchinput.load",), "total_s"),
    "r3.upgrade_wall_s": (("r3.upgrade",), "total_s"),
    "sapschema.load_fast_wall_s": (("sapschema.load_fast",), "total_s"),
    "sapschema.load_direct_wall_s": (("sapschema.load_direct",), "total_s"),
    "reports.wall_s": (("reports",), "self_s"),
    "core.driver_wall_s": (("core.driver",), "self_s"),
}

#: source files whose share of profiled self time is reported
PROFILED_MODULES = (
    "engine.expr", "engine.types", "engine.schema", "engine.stats",
    "engine.index", "engine.table", "engine.storage", "engine.lsm",
    "engine.buffer", "engine.exec.base", "engine.exec.scans",
    "engine.exec.joins", "engine.exec.aggregate", "engine.exec.sort",
    "engine.plan.planner", "engine.sql.parser", "sim.clock", "sim.metrics",
    "sim.disk", "r3.opensql.parser", "r3.opensql.translate",
    "r3.opensql.executor", "r3.pools", "sapschema.mapping",
)

#: per-layer name -> (source file, function) whose calls are counted
PROFILED_CALLS = {
    "prof.calls.sqltype_validate": ("engine.types", "validate"),
    "prof.calls.expr_eval": ("engine.expr", "eval"),
    "prof.calls.charge_tuples": ("engine.exec.base", "charge_tuples"),
    "prof.calls.parse_open_sql": ("r3.opensql.parser", "parse_open_sql"),
    "prof.calls.parse_sql": ("engine.sql.parser", "parse_sql"),
    "prof.calls.stats_analyze": ("engine.stats", "analyze"),
    # the simulation's own bookkeeping: exact calls per pass
    "sim.clock_charges": ("sim.clock", "charge"),
    "sim.metric_counts": ("sim.metrics", "count"),
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def from_counters(counters: dict[str, float]) -> dict[str, float]:
    """Per-layer counts and ratios of one pass's program counters."""
    out = {name: sum(counters.get(source, 0) for source in sources)
           for name, sources in COUNTERS.items()}
    for name, (hits, misses) in HIT_RATIOS.items():
        out[name] = ratio(counters.get(hits, 0),
                          counters.get(hits, 0) + counters.get(misses, 0))
    out["r3.buffers.hit_ratio"] = ratio(counters.get("buffer_mgr.hits", 0),
                                        counters.get("buffer_mgr.lookups", 0))
    return out


def from_spans(passes: list[dict]) -> dict[str, float]:
    """Per-layer wall times: medians over the traced passes.

    Each entry of ``passes`` carries ``summary`` and ``ops`` (what
    ``spans.summarize`` and ``spans.op_durations`` make of the pass's
    spans), ``span_count``, ``wall_s`` and ``counters``.
    """
    first = passes[0]
    out = {}
    for name, (span_names, which) in SPAN_WALLS.items():
        if any(span in first["summary"] for span in span_names):
            out[name] = median_of(passes, lambda p: sum(
                p["summary"].get(span, {}).get(which, 0.0)
                for span in span_names))

    def count(span: str) -> float:
        return first["summary"].get(span, {}).get("count", 0)

    out["engine.statements"] = count("engine")
    out["r3.opensql.statements"] = count("r3.opensql")
    out["perf.spans_recorded"] = first["span_count"]
    engine_us = out.get("engine.wall_s", 0.0) * 1e6
    out["engine.wall_us_per_statement"] = ratio(engine_us, count("engine"))
    out["engine.wall_us_per_exec_tuple"] = \
        ratio(engine_us, first["counters"].get("exec.tuples", 0))
    out["sapschema.render_wall_s"] = median_of(passes, lambda p: max(
        0.0, p["summary"].get("sapschema.load_direct", {}).get("total_s", 0)
        - p["summary"].get("engine.direct_path", {}).get("total_s", 0)))
    if "reports" in first["summary"]:
        out["reports.slowest_q_wall_ms"] = median_of(passes, lambda p: max(
            s for op, s in p["ops"] if op.startswith("Q"))) * 1e3

    ops = sorted(s for p in passes for _op, s in p["ops"])
    out["core.op_wall_ms_p50"] = statistics.median(ops) * 1e3
    # the 90th percentile only where at least ten samples lie beyond it
    out["core.op_wall_ms_p90"] = \
        percentile(ops, 90) * 1e3 if len(ops) >= 100 else 0.0
    out["core.op_wall_ms_max"] = ops[-1] * 1e3
    out["core.op_samples"] = len(ops)
    out["core.ops_per_wall_s"] = median_of(
        passes, lambda p: len(p["ops"]) / p["wall_s"])
    return out


def from_untraced(results: list) -> dict[str, float]:
    """The ``core`` view of the untraced passes of the traced run."""
    walls = [r.raw_wall_s for r in results]
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 \
        else [walls[0]] * 3
    return {
        "core.first_pass_wall_s": walls[0],
        "core.pass_wall_s_min": min(walls),
        "core.pass_wall_s_iqr": quartiles[2] - quartiles[0],
        "core.sim_qph": results[0].sim_qph,
        "core.sim_s_per_wall_s": statistics.mean(r.sim_s for r in results)
        / statistics.median(walls),
    }


def per_unit(values: dict[str, float]) -> dict[str, float]:
    """Loader wall times over the rows or transactions they handled."""
    def get(name: str) -> float:
        return values.get(name, 0.0)

    return {
        "r3.batchinput.load_tx_per_wall_s": ratio(
            get("r3.batchinput.transactions"),
            get("r3.batchinput.load_wall_s")),
        "engine.bulk_load_us_per_row": ratio(
            get("engine.bulk_load_wall_s") * 1e6,
            get("tpcd.rows_generated")),
        "sapschema.load_fast_us_per_row": ratio(
            get("sapschema.load_fast_wall_s") * 1e6,
            get("sapschema.rows_loaded")),
    }


def profiled_pass(run) -> dict[str, float]:
    """Run one pass under ``cProfile``; aggregate by source file.

    ``cProfile`` taxes every Python call but not the work inside C
    functions, so the shares rank candidates; they are not wall times.
    The call counts are exact.
    """
    profile = cProfile.Profile()
    profile.runcall(run)
    by_file: dict[str, float] = {}
    calls: dict[tuple[str, str], int] = {}
    total = 0.0
    for entry in profile.getstats():
        total += entry.inlinetime
        if isinstance(entry.code, str):  # a C function
            continue
        filename = entry.code.co_filename.replace("\\", "/")
        by_file[filename] = by_file.get(filename, 0.0) + entry.inlinetime
        key = (filename, entry.code.co_name)
        calls[key] = calls.get(key, 0) + entry.callcount

    def path(module: str) -> str:
        return "/repro/" + module.replace(".", "/") + ".py"

    out = {}
    for module in PROFILED_MODULES:
        out[f"prof.{module}.self_share"] = ratio(sum(
            seconds for filename, seconds in by_file.items()
            if filename.endswith(path(module))), total)
    for name, (module, function) in PROFILED_CALLS.items():
        out[name] = sum(count for (filename, fn), count in calls.items()
                        if fn == function and filename.endswith(path(module)))
    return out


def micro_probes(sf: float, lineitem: list[tuple],
                 open_sql_texts: set[str]) -> dict[str, float]:
    """Public functions timed in isolation, after the measured passes.

    The same probes run on every workload: they do not depend on it,
    except for the Open SQL texts, which are the ones the workload's
    passes issued.
    """
    out = {}
    db = Database()
    create_original_schema(db)
    specs = build_queries(sf).values()

    def timed_ms(fn, text: str) -> float:
        start = perf_counter()
        fn(text)
        return (perf_counter() - start) * 1e3

    parse_ms, prepare_ms = [], []
    for spec in specs:
        for view, view_sql in spec.setup_views:
            db.create_view(view, view_sql)
        for _ in range(10):
            parse_ms.append(timed_ms(parse_sql, spec.sql))
            prepare_ms.append(timed_ms(db.prepare, spec.sql))
        for view, _sql in spec.setup_views:
            db.drop_view(view)
    out["engine.parse_ms_p50"] = statistics.median(parse_ms)
    out["engine.prepare_ms_p50"] = statistics.median(prepare_ms)
    out["r3.opensql.parse_us_p50"] = statistics.median(
        timed_ms(parse_open_sql, text) * 1e3
        for text in sorted(open_sql_texts) for _ in range(5)
    ) if open_sql_texts else 0.0

    calls = 200_000
    charge, count = SimulatedClock().charge, MetricsCollector().count
    start = perf_counter_ns()
    for _ in range(calls):
        charge(1e-6)
    middle = perf_counter_ns()
    for _ in range(calls):
        count("probe")
    out["sim.clock_charge_ns"] = (middle - start) / calls
    out["sim.metrics_count_ns"] = (perf_counter_ns() - middle) / calls

    validate_row = db.catalog.table("lineitem").schema.validate_row
    start = perf_counter()
    for row in lineitem:
        validate_row(row)
    out["engine.validate_us_per_row"] = \
        (perf_counter() - start) * 1e6 / len(lineitem)
    return out
