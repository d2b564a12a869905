"""The four benchmark workloads.

Every workload generates its inputs from ``(scale factor, seed)``, sets
the measured systems up, and repeats one *pass*; the runner times the
passes and derives the end-to-end metrics.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``README.md``.

A workload calls only public functions of the program and passes a
recorder from :mod:`spans` around the layer boundaries; in the untraced
run that recorder is :data:`spans.NULL` and does nothing.
"""

from __future__ import annotations

import datetime
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# repro.core.powertest must be the first ``repro`` module imported: at
# HEAD ``import repro.engine`` (or repro.r3, repro.tpcd.loader, ...)
# first dies in a circular import (engine.database -> monitor ->
# core.results -> core/__init__ -> core.powertest -> engine.database).
# A known defect, logged in README.md for a later issue.
from repro.core.powertest import build_sap_system
from repro.core.throughput import run_throughput_test
from repro.engine.database import Database
from repro.monitor.profile import build_report
from repro.r3.appserver import R3System, R3Version
from repro.r3.dispatcher import PRIORITY_DIALOG, Dispatcher, DispatcherConfig
from repro.r3.upgrade import upgrade_to_30
from repro.reports import open22, open30
from repro.reports.updatefuncs import run_uf1_sap, run_uf2_sap
from repro.sapschema.loader import (
    load_sap_batch_input,
    load_sap_direct,
    load_sap_fast,
)
from repro.tpcd.answers import rows_match
from repro.tpcd.dbgen import (
    TpcdData,
    delete_keys,
    generate,
    generate_refresh_orders,
)
from repro.tpcd.loader import load_original
from repro.tpcd.queries import build_queries, run_query
from repro.tpcd.schema import ORIGINAL_TABLES, create_original_schema
from repro.trace.analyze import TraceAnalyzer

from spans import NULL, SpanRecorder, summarize

#: SAP tables that hold exactly one row per row of the named TPC-D
#: tables (the paper's Table 1 mapping; pool/cluster containers, whose
#: physical row counts depend on packing, are left out)
SAP_ROW_SOURCES = {
    "t005u": ("region",), "t005": ("nation",), "t005t": ("nation",),
    "lfa1": ("supplier",), "kna1": ("customer",),
    "mara": ("part",), "makt": ("part",), "konp": ("part",),
    "ausp": ("part",), "eina": ("partsupp",), "eine": ("partsupp",),
    "vbak": ("orders",), "vbap": ("lineitem",), "vbep": ("lineitem",),
    "stxl": ("supplier", "part", "customer", "orders", "lineitem"),
}


@dataclass
class PassResult:
    """What one pass did: simulated seconds, counters, operations."""

    sim_s: float
    counters: dict[str, float]
    attempted: int
    failed: int = 0
    #: one line per failed check
    notes: list[str] = field(default_factory=list)
    #: the pass's answers, handed to :meth:`Workload.check`
    outputs: object = None
    #: simulated queries per hour (0 where no query runs)
    sim_qph: float = 0.0
    #: filled in by the runner: seconds at reference speed (speed.py)
    #: and wall seconds as measured
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)


def instrument_db(rec, db: Database) -> None:
    """Spans around the engine's statement entry points."""
    rec.wrap(db, "execute", "engine")
    prepare = db.prepare

    def traced_prepare(sql: str):
        with rec.span("engine.prepare"):
            stmt = prepare(sql)
        rec.wrap(stmt, "execute", "engine")
        return stmt

    rec.patch(db, "prepare", traced_prepare)


def instrument_r3(rec, r3: R3System) -> None:
    """Spans around Open SQL, the database interface and the engine.

    The Open SQL suites never call ``r3.native_sql``, so it carries no
    span.
    """
    rec.wrap(r3.open_sql, "select", "r3.opensql", texts=True)
    rec.wrap(r3.open_sql, "select_single", "r3.opensql", texts=True)
    rec.wrap(r3.dbif, "execute_param", "r3.dbif")
    rec.wrap(r3.dbif, "execute_literal", "r3.dbif")
    instrument_db(rec, r3.db)


def load_original_piecewise(data: TpcdData, rec) -> Database:
    """What ``load_original`` does, with a span around each piece."""
    db = Database(name="tpcd")
    create_original_schema(db)
    with rec.span("engine.bulk_load"):
        for name in ORIGINAL_TABLES:
            db.bulk_load(name, data.table(name))
    with rec.span("engine.analyze"):
        db.analyze()
    return db


def stored_bytes(db: Database) -> int:
    return sum(entry["data_bytes"] + entry["index_bytes"]
               for entry in db.storage_report().values())


def row_count_errors(db: Database, offered: dict[str, int],
                     sources: dict[str, tuple[str, ...]]) -> tuple[int, int]:
    """(rows offered, rows missing or surplus) over ``sources``' tables."""
    attempted = failed = 0
    for table, names in sources.items():
        expected = sum(offered[name] for name in names)
        attempted += expected
        failed += abs(expected - db.catalog.table(table).row_count)
    return attempted, failed


def update_pairs(data: TpcdData, seed: int, count: int) -> list[tuple]:
    """``count`` pairwise disjoint (UF1 refresh set, UF2 delete keys).

    Refresh sets take consecutive ``start_key`` ranges above the
    generated order keys; delete sets are consecutive slices of *one*
    ``delete_keys`` sample.  Independently seeded ``delete_keys`` calls
    overlap, and the second delete of an order aborts the run with a
    raw ``BatchInputError`` (see README.md, known defects).
    """
    per_set = max(1, round(len(data.orders) * 0.001))
    doomed = delete_keys(data, fraction=per_set * count / len(data.orders),
                         seed=seed + 1)
    if len(doomed) != per_set * count:
        raise ValueError(f"wanted {per_set * count} delete keys, "
                         f"got {len(doomed)}")
    first_key = data.max_orderkey + 1
    return [
        (generate_refresh_orders(data, seed=seed + 2 + i,
                                 start_key=first_key + i * per_set),
         doomed[i * per_set:(i + 1) * per_set])
        for i in range(count)
    ]


# -- independent answers for two single-table queries ----------------------

_Q1_CUTOFF = datetime.date(1998, 12, 1) - datetime.timedelta(days=90)
_Q6_LO, _Q6_HI = datetime.date(1994, 1, 1), datetime.date(1995, 1, 1)


def oracle_q1(lineitem: list[tuple]) -> list[tuple]:
    """Q1 computed from the generated rows, without the engine."""
    groups: dict[tuple, list[float]] = {}
    for row in lineitem:
        if row[10] > _Q1_CUTOFF:
            continue
        qty, price, disc, tax = row[4:8]
        sums = groups.setdefault((row[8], row[9]), [0.0] * 5 + [0])
        sums[0] += qty
        sums[1] += price
        sums[2] += price * (1 - disc)
        sums[3] += price * (1 - disc) * (1 + tax)
        sums[4] += disc
        sums[5] += 1
    return [
        key + (qty, price, disc_price, charge, qty / n, price / n,
               disc / n, n)
        for key, (qty, price, disc_price, charge, disc, n)
        in sorted(groups.items())
    ]


def oracle_q6(lineitem: list[tuple]) -> list[tuple]:
    """Q6 computed from the generated rows, without the engine."""
    revenue = None
    for row in lineitem:
        if _Q6_LO <= row[10] < _Q6_HI and 0.05 <= row[6] <= 0.07 \
                and row[4] < 24:
            revenue = (revenue or 0.0) + row[5] * row[6]
    return [(revenue,)]


# -- workloads ---------------------------------------------------------------


class Workload:
    name: str
    #: passes measured at least, however short ``--seconds`` is
    min_passes: int
    max_passes = 10_000
    #: passes of each kind (traced, then untraced) in a ``--trace 1`` run
    traced_passes: int
    #: how often :meth:`build` runs; the run reports the median build
    setup_repeats = 1

    def __init__(self, sf: float, seed: int) -> None:
        self.sf = sf
        self.seed = seed
        #: per-layer values measured outside the passes
        self.layers: dict[str, float] = {}

    def prepare(self) -> None:
        """Generate the inputs (once per run)."""
        start = perf_counter()
        self.data = generate(self.sf, seed=self.seed)
        self.layers["tpcd.generate_wall_s"] = perf_counter() - start
        self.layers["tpcd.rows_generated"] = \
            sum(self.data.row_counts().values())

    def build(self) -> None:
        """Build the measured systems from the inputs (repeatable)."""

    def instrument(self, rec) -> None:
        """Install spans on the systems that outlive a pass."""

    def run_pass(self, p: int, rec, timer) -> PassResult:
        raise NotImplementedError

    def check(self, p: int, result: PassResult) -> None:
        """Check the pass's outputs (outside the timed region)."""

    def extras(self, measure, pass_wall_s: float) -> None:
        """Traced run only: extra per-layer measurements, after the
        passes, stored in :attr:`layers`.  ``measure(**kwargs)`` runs,
        times and checks one more pass; ``pass_wall_s`` is the median
        untraced pass."""


class PowerRdbms(Workload):
    name = "power_rdbms"
    min_passes = 5
    traced_passes = 5
    # one build is ~0.7 s, too short to repeat within the bound
    setup_repeats = 5

    def prepare(self) -> None:
        super().prepare()
        self.specs = build_queries(self.sf)
        self._expected: dict[int, list[tuple]] = {}

    def build(self) -> None:
        self.db = load_original(self.data)

    def instrument(self, rec) -> None:
        instrument_db(rec, self.db)

    def run_pass(self, p: int, rec, timer, db=None) -> PassResult:
        db = db or self.db
        sim0, snap = db.clock.now, db.metrics.snapshot()
        answers = {}
        for number, spec in self.specs.items():
            with rec.span("tpcd.run_query", op=spec.name):
                answers[number] = run_query(db, spec).rows
        sim_s = db.clock.now - sim0
        return PassResult(sim_s, snap.delta(), attempted=len(answers),
                          outputs=answers,
                          sim_qph=len(answers) * 3600.0 / sim_s)

    def check(self, p: int, result: PassResult) -> None:
        if not self._expected:
            # Q1 and Q6 against answers the engine had no part in; the
            # other 15 at least against the first pass.
            self._expected = dict(result.outputs)
            self._expected[1] = oracle_q1(self.data.lineitem)
            self._expected[6] = oracle_q6(self.data.lineitem)
        for number, rows in result.outputs.items():
            if not rows_match(self._expected[number], rows):
                result.fail(f"Q{number}: answer differs from expected")

    def extras(self, measure, pass_wall_s: float) -> None:
        # The same pass on the LSM backend, so that a storage-contract
        # change that costs LSM reads shows.
        lsm = load_original(self.data, storage="lsm")
        start = perf_counter()
        result = self.run_pass(0, NULL, None, db=lsm)
        self.layers["engine.lsm.pass_wall_s"] = perf_counter() - start
        self.layers["engine.lsm.sim_s"] = result.sim_s
        self.check(0, result)
        if result.failed:
            raise AssertionError(f"LSM pass: {result.notes}")


class PowerOpen22(Workload):
    name = "power_open22"
    min_passes = 5
    traced_passes = 3

    def prepare(self) -> None:
        super().prepare()
        self.suite = open22.make_queries(self.sf)

    def build(self) -> None:
        self.r3 = build_sap_system(self.data, R3Version.V22)
        self.reference_db = load_original(self.data)
        self.reference = {
            number: run_query(self.reference_db, spec).rows
            for number, spec in build_queries(self.sf).items()
        }

    def instrument(self, rec) -> None:
        instrument_r3(rec, self.r3)

    def run_pass(self, p: int, rec, timer, around_query=None) -> PassResult:
        r3 = self.r3
        sim0, snap = r3.clock.now, r3.metrics.snapshot()
        answers = {}
        for number in sorted(self.suite):
            with rec.span("reports", op=f"Q{number}"):
                if around_query is None:
                    answers[number] = self.suite[number](r3)
                else:
                    with around_query(f"Q{number}"):
                        answers[number] = self.suite[number](r3)
        sim_s = r3.clock.now - sim0
        return PassResult(sim_s, snap.delta(), attempted=len(answers),
                          outputs=answers,
                          sim_qph=len(answers) * 3600.0 / sim_s)

    def check(self, p: int, result: PassResult) -> None:
        for number, rows in result.outputs.items():
            if not rows_match(self.reference[number], rows):
                result.fail(f"Q{number}: Open SQL 2.2 answer differs from "
                            f"the RDBMS answer")

    def extras(self, measure, pass_wall_s: float) -> None:
        """The program's own monitor and tracer, one pass each.

        The pass after ``tracer.disable(); tracer.clear()`` runs last of
        all: at HEAD it is still slower than an untraced pass (the
        plans cached while tracing stay instrumented), and that
        slowdown must not reach any other measurement.
        """
        r3, out = self.r3, self.layers
        out["sapschema.bytes_per_user_byte"] = \
            stored_bytes(r3.db) / stored_bytes(self.reference_db)

        def ratio(around_query) -> float:
            return measure(around_query=around_query).raw_wall_s / pass_wall_s

        @contextmanager
        def dialog_step(label: str):
            step = r3.monitor.begin_step("dialog", label, wp="PWR")
            try:
                yield
            finally:
                r3.monitor.end_step(step)

        r3.monitor.enable()
        out["monitor.wall_overhead_ratio"] = ratio(dialog_step)
        r3.monitor.finish()
        r3.monitor.disable()
        report = build_report(r3.monitor)
        dialog = next(p for p in report["profile"] if p["task"] == "dialog")
        for layer in ("abap", "dbif", "engine"):
            out[f"monitor.sim_{layer}_s"] = \
                dialog["mean_layers_s"][f"{layer}_s"] * dialog["steps"]
        out["monitor.stat_records"] = report["counters"]["stat_records"]

        def power_query(label: str):
            # the way run_power_test opens them
            return r3.tracer.span("power.query", capture_metrics=True,
                                  name=label, variant="open")

        r3.tracer.enable()
        out["trace.wall_overhead_ratio"] = ratio(power_query)
        r3.tracer.disable()
        summary = TraceAnalyzer(r3.tracer).summary()
        out["trace.spans_per_pass"] = summary["span_count"]
        for layer, key in (("app", "app_server_s"), ("dbif", "dbif_s"),
                           ("engine", "engine_s"), ("disk", "disk_s")):
            out[f"trace.sim_{layer}_s"] = summary["totals"][key]
        r3.tracer.clear()
        out["trace.residual_wall_ratio"] = ratio(None)


class ThroughputOpen30(Workload):
    name = "throughput_open30"
    min_passes = 2
    traced_passes = 1
    streams = 4
    pairs_per_pass = 8
    #: as many as the pool of update pairs serves, with one pair left
    #: for the direct UF1/UF2 timing
    max_passes = 3
    dispatcher = DispatcherConfig(dialog_processes=2, update_processes=1,
                                  queue_capacity=12)

    def prepare(self) -> None:
        super().prepare()
        self.suite = open30.make_queries(self.sf)
        self.pairs = update_pairs(
            self.data, self.seed, self.max_passes * self.pairs_per_pass + 1)

    def build(self) -> None:
        self.r3 = build_sap_system(self.data, R3Version.V30)

    def instrument(self, rec) -> None:
        instrument_r3(rec, self.r3)

    def run_pass(self, p: int, rec, timer) -> PassResult:
        r3 = self.r3
        first = p * self.pairs_per_pass
        sim0, snap = r3.clock.now, r3.metrics.snapshot()
        suite = {number: rec.wrap_fn(fn, "reports", op=f"Q{number}")
                 for number, fn in self.suite.items()}
        # a fresh dispatcher per pass: every pass starts with an empty
        # queue and an idle work-process pool
        dispatcher = Dispatcher(r3, self.dispatcher)
        if rec.enabled:
            submit = dispatcher.submit

            def traced_submit(request):
                if request.priority > PRIORITY_DIALOG:
                    request.fn = rec.wrap_fn(request.fn, "r3.batchinput",
                                             op=request.label)
                return submit(request)

            dispatcher.submit = rec.wrap_fn(traced_submit, "r3.dispatcher")
            rec.wrap(dispatcher, "dispatch_round", "r3.dispatcher")
        with rec.span("core.driver"):
            outcome = run_throughput_test(
                r3, suite, streams=self.streams,
                update_sets=self.pairs[first:first + self.pairs_per_pass],
                dispatcher=dispatcher)
        return PassResult(
            r3.clock.now - sim0, snap.delta(),
            attempted=outcome.submitted + outcome.updates_submitted,
            outputs=outcome, sim_qph=outcome.queries_per_hour)

    def check(self, p: int, result: PassResult) -> None:
        outcome = result.outputs
        lost = outcome.shed + outcome.rejected \
            + outcome.updates_submitted - outcome.updates_run
        if lost:
            result.fail(f"{outcome.shed} shed, {outcome.rejected} rejected, "
                        f"{outcome.updates_run}/{outcome.updates_submitted} "
                        f"update pairs run", lost)
        if not outcome.conservation_ok():
            result.fail("submitted != completed + shed + rejected")
        expected = (self.streams * len(self.suite), self.pairs_per_pass)
        if (outcome.queries_run, outcome.updates_run) != expected:
            result.fail(f"ran {outcome.queries_run} queries and "
                        f"{outcome.updates_run} update pairs, "
                        f"expected {expected}")

    def extras(self, measure, pass_wall_s: float) -> None:
        refresh, doomed = self.pairs[-1]
        start = perf_counter()
        run_uf1_sap(self.r3, refresh)
        middle = perf_counter()
        run_uf2_sap(self.r3, doomed)
        self.layers["r3.batchinput.uf1_wall_ms"] = (middle - start) * 1e3
        self.layers["r3.batchinput.uf2_wall_ms"] = \
            (perf_counter() - middle) * 1e3


class Load(Workload):
    name = "load"
    min_passes = 2
    traced_passes = 1
    #: batch input is tuple-at-a-time and ~25x slower per row than the
    #: fast path, so it loads a quarter of the scale factor
    batch_share = 0.25

    def prepare(self) -> None:
        """The pass generates its own data."""

    def build(self) -> None:
        # One untimed pass at a quarter of the scale factor: lazy
        # imports and every loader code path run once before timing.
        full, self.sf = self.sf, self.sf * self.batch_share
        try:
            self.run_pass(-1, NULL, None)
        finally:
            self.sf = full

    def run_pass(self, p: int, rec, timer) -> PassResult:
        result = PassResult(0.0, Counter(), attempted=0)

        def retire(db: Database, offered: dict[str, int],
                   sources: dict[str, tuple[str, ...]], label: str) -> None:
            attempted, failed = row_count_errors(db, offered, sources)
            result.attempted += attempted
            if failed:
                result.fail(f"{label}: {failed} rows missing or surplus",
                            failed)
            result.sim_s += db.clock.now
            result.counters.update(db.metrics.all())

        with rec.span("tpcd.generate", op="generate"):
            data = generate(self.sf, seed=self.seed)
        offered = data.row_counts()
        same_table = {name: (name,) for name in ORIGINAL_TABLES}

        with rec.span("tpcd.loader", op="load_original"):
            original = load_original_piecewise(data, rec)
        retire(original, offered, same_table, "load_original")
        user_bytes = stored_bytes(original)
        del original

        heap = R3System(R3Version.V22)
        with rec.span("sapschema.load_fast", op="load_sap_fast"):
            load_sap_fast(heap, data)
        if p == 0:
            with timer.paused(), rec.span("perf.check"):
                heap_digest = heap.db.content_digest()
        sap_bytes = stored_bytes(heap.db)
        with rec.span("r3.upgrade", op="upgrade_to_30"):
            upgrade_to_30(heap)
            heap.db.drop_index("idx_vbep_edatu")
            heap.db.analyze()
        retire(heap.db, offered, SAP_ROW_SOURCES, "load_sap_fast")
        del heap

        lsm = R3System(R3Version.V22, storage="lsm")
        rec.wrap(lsm.db, "direct_path_load", "engine.direct_path")
        with rec.span("sapschema.load_direct", op="load_sap_direct"):
            load_sap_direct(lsm, data)
        if p == 0:
            with timer.paused(), rec.span("perf.check"):
                result.attempted += 1
                if lsm.db.content_digest() != heap_digest:
                    result.fail("heap fast-path and LSM direct-path "
                                "systems differ in content_digest()")
        retire(lsm.db, offered, SAP_ROW_SOURCES, "load_sap_direct")
        del lsm

        small = generate(self.sf * self.batch_share, seed=self.seed)
        batch = R3System(R3Version.V22)
        with rec.span("r3.batchinput.load", op="load_sap_batch_input"):
            load_sap_batch_input(batch, small)
        self.layers["r3.batchinput.load_sim_s"] = batch.clock.now
        retire(batch.db, small.row_counts(), SAP_ROW_SOURCES,
               "load_sap_batch_input")

        self.layers["tpcd.rows_generated"] = sum(offered.values())
        self.layers["sapschema.rows_loaded"] = sum(
            sum(offered[name] for name in names)
            for names in SAP_ROW_SOURCES.values())
        self.layers["sapschema.bytes_per_user_byte"] = sap_bytes / user_bytes
        self.data = data
        return result

    def extras(self, measure, pass_wall_s: float) -> None:
        # The same bulk load at four times the rows: its microseconds
        # per row against the pass's show how super-linear loading is.
        rec = SpanRecorder()
        big = generate(self.sf * 4, seed=self.seed)
        load_original_piecewise(big, rec)
        self.layers["engine.bulk_load_us_per_row_x4"] = \
            summarize(rec.spans)["engine.bulk_load"]["total_s"] * 1e6 \
            / sum(big.row_counts().values())


WORKLOADS = {cls.name: cls
             for cls in (Load, PowerRdbms, PowerOpen22, ThroughputOpen30)}
