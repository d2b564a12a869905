"""Loading the TPC-D data into SAP R/3.

Two paths:

* :func:`load_sap_batch_input` — the paper's path (Table 3): every
  record goes through the batch-input facility with screen simulation,
  consistency checks and tuple-at-a-time inserts.  Region and nation
  are "typed in interactively" as in the paper (they have 5 and 25
  rows), which we model as direct inserts.
* :func:`load_sap_fast` — a simulator convenience for setting up query
  experiments without paying the month-long load each time; it uses
  the bulk write path and is *not* something SAP R/3 offers (the
  absence of exactly this path is the paper's Table 3 finding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.r3.appserver import R3System, R3Version
from repro.r3.batchinput import (
    BatchInputSession,
    BatchTransaction,
    LoadJournal,
    effective_parallel_time,
)
from repro.sapschema import mapping
from repro.sapschema.tables import activate_sap_schema
from repro.sapschema.views import create_sap_join_views
from repro.tpcd.dbgen import TpcdData


@dataclass
class LoadTimings:
    """Per-TPC-D-entity batch-input load times (paper Table 3)."""

    processes: int = 2
    elapsed: dict[str, float] = field(default_factory=dict)

    def effective(self, entity: str) -> float:
        return effective_parallel_time(self.elapsed[entity],
                                       self.processes)


def _check(table: str, conditions: str, host_vars: dict) -> tuple[str, dict]:
    fields = "*"
    return (f"SELECT SINGLE {fields} FROM {table} WHERE {conditions}",
            host_vars)


def supplier_transactions(data: TpcdData):
    rows = mapping.supplier_rows(data)
    for lfa1, stxl in zip(rows["lfa1"], rows["stxl"]):
        land1 = lfa1[3]
        yield BatchTransaction(
            screens=3,
            checks=[_check("t005", "land1 = :land1", {"land1": land1})],
            inserts=[("lfa1", lfa1), ("stxl", stxl)],
        )


def part_transactions(data: TpcdData):
    rows = mapping.part_rows(data)
    for mara, makt, a004, konp, ausp, stxl in zip(
            rows["mara"], rows["makt"], rows["a004"], rows["konp"],
            rows["ausp"], rows["stxl"]):
        yield BatchTransaction(
            screens=4,
            inserts=[("mara", mara), ("makt", makt), ("a004", a004),
                     ("konp", konp), ("ausp", ausp), ("stxl", stxl)],
        )


def partsupp_transactions(data: TpcdData):
    rows = mapping.partsupp_rows(data)
    for eina, eine in zip(rows["eina"], rows["eine"]):
        matnr, lifnr = eina[1], eina[2]
        yield BatchTransaction(
            screens=3,
            checks=[
                _check("mara", "matnr = :matnr", {"matnr": matnr}),
                _check("lfa1", "lifnr = :lifnr", {"lifnr": lifnr}),
            ],
            inserts=[("eina", eina), ("eine", eine)],
        )


def customer_transactions(data: TpcdData):
    rows = mapping.customer_rows(data)
    for kna1, stxl in zip(rows["kna1"], rows["stxl"]):
        land1 = kna1[3]
        yield BatchTransaction(
            screens=3,
            checks=[_check("t005", "land1 = :land1", {"land1": land1})],
            inserts=[("kna1", kna1), ("stxl", stxl)],
        )


def order_transactions(data: TpcdData):
    """Orders + lineitems load jointly (one transaction per document)."""
    for document in mapping.order_documents(data):
        checks = [
            _check("kna1", "kunnr = :kunnr",
                   {"kunnr": mapping.KeyCodec.kunnr(document.custkey)}),
        ]
        for partkey in document.partkeys:
            checks.append(_check(
                "mara", "matnr = :matnr",
                {"matnr": mapping.KeyCodec.matnr(partkey)},
            ))
        inserts = [("vbak", document.vbak)]
        inserts.extend(("vbap", row) for row in document.vbap)
        inserts.extend(("vbep", row) for row in document.vbep)
        inserts.extend(("stxl", row) for row in document.stxl)
        yield BatchTransaction(
            screens=2 + len(document.vbap),
            checks=checks,
            inserts=inserts,
            cluster_inserts=[("konv", document.konv_key,
                              document.konv_rows)],
        )


def _load_tiny_master_data(r3: R3System, data: TpcdData) -> None:
    """Region/nation entered 'interactively' (5 + 25 records)."""
    for table, rows, _cluster_key in mapping.load_stream(data):
        if table not in mapping.INTERACTIVE_TABLES:
            break
        for row in rows:
            r3.insert_logical(table, row)


LOAD_PHASES = [
    ("SUPPLIER", supplier_transactions),
    ("PART", part_transactions),
    ("PARTSUPP", partsupp_transactions),
    ("CUSTOMER", customer_transactions),
    ("ORDER+LINEITEM", order_transactions),
]


def load_sap_batch_input(r3: R3System, data: TpcdData,
                         processes: int = 2,
                         commit_interval: int | None = None,
                         journal: LoadJournal | None = None,
                         timings: LoadTimings | None = None) -> LoadTimings:
    """The paper's load: batch input for everything but region/nation.

    With ``commit_interval`` set (and a ``journal``, created on demand)
    the load checkpoints every N transactions and becomes crash
    recoverable: if a :class:`~repro.r3.errors.WorkProcessCrash` (or
    any other error) aborts it, calling this function again with the
    *same* ``r3``/``journal``/``timings`` resumes from the last
    checkpoint — schema activation and committed transactions are
    skipped, uncommitted rows were already rolled back, so the finished
    load is row-identical to a fault-free one.  Per-entity ``timings``
    accumulate across crash/resume rounds.
    """
    if journal is None and commit_interval is not None:
        journal = LoadJournal()
    if journal is None or not journal.setup_done:
        # With engine durability on, setup (schema DDL + tiny master
        # data) is one engine transaction: a crash inside it undoes
        # everything, so resume re-runs it from scratch — no partially
        # activated schema can ever be journalled as done.
        durable = r3.db.wal is not None and not r3.db.wal.dead
        if durable and not r3.db.wal.in_txn:
            r3.db.begin()
        activate_sap_schema(r3)
        create_sap_join_views(r3)
        _load_tiny_master_data(r3, data)
        if journal is not None:
            journal.setup_done = True
        if durable and r3.db.wal.in_txn:
            r3.db.commit(
                journal=journal.to_wire() if journal is not None else None
            )
    timings = timings or LoadTimings(processes=processes)
    session = BatchInputSession(r3, commit_interval=commit_interval,
                                journal=journal)
    for entity, generator in LOAD_PHASES:
        span = r3.measure()
        try:
            session.run_phase(entity, generator(data))
        finally:
            # Crash mid-phase: bank the partial time so resumed rounds
            # accumulate into the same per-entity totals.
            timings.elapsed[entity] = (
                timings.elapsed.get(entity, 0.0) + span.stop()
            )
    r3.db.analyze()
    return timings


def recover_sap_system(store, version: R3Version = R3Version.V22):
    """Reopen a crashed durable store as a ready-to-resume R/3 system.

    Composes the two recovery layers the crash-fuzz harness exercises:

    1. **Engine recovery** — :meth:`~repro.engine.database.Database.open`
       runs the ARIES passes (analysis/redo/undo) over the store's log
       and checkpoint image.
    2. **App-tier reconstruction** — a fresh :class:`R3System` attaches
       to the recovered engine; the data dictionary, pool/cluster
       registries and table buffers are app-server memory and died with
       the process, so schema activation re-runs idempotently against
       the recovered catalog.  The batch-input
       :class:`~repro.r3.batchinput.LoadJournal` is rebuilt from the
       committed journal history (walking past torn records).

    Returns ``(r3, journal, report)``; pass ``r3`` and ``journal`` back
    into :func:`load_sap_batch_input` to resume the load.
    """
    from repro.engine.database import Database

    db, report = Database.open(store)
    r3 = R3System(version=version, database=db)
    journal = LoadJournal.recover(report.app_journal_history)
    if journal.setup_done:
        # Schema is durably committed: repopulate the app-tier DDIC and
        # container registries without issuing engine DDL — the
        # recovered catalog already carries every table/index that
        # should exist (including the effect of post-setup drops).
        activate_sap_schema(r3, engine_ddl=False)
        create_sap_join_views(r3)
        # Reconcile conversion state: a table the dictionary knows as
        # pool/cluster but that exists transparently in the recovered
        # engine was converted (the 3.0 upgrade) before the crash.
        for name in list(r3.ddic.tables):
            entry = r3.ddic.tables[name]
            if entry.encapsulated and db.catalog.has_table(name):
                r3.ddic.convert_to_transparent(name)
    return r3, journal, report


def load_sap_fast(r3: R3System, data: TpcdData,
                  analyze: bool = True) -> None:
    """Bulk-path load for experiment setup (simulator convenience)."""
    activate_sap_schema(r3)
    create_sap_join_views(r3)
    for table, rows, cluster_key in mapping.load_stream(data):
        bulk = table not in mapping.INTERACTIVE_TABLES
        if cluster_key is None:
            r3.insert_logical_rows(table, rows, bulk=bulk)
        else:
            r3.insert_cluster(table, cluster_key, rows, bulk=bulk)
    if analyze:
        r3.db.analyze()


def load_sap_direct(r3: R3System, data: TpcdData) -> LoadTimings:
    """Direct-path load: the fast path batch input forgoes (Table 3).

    All logical rows are first rendered to their physical form (MANDT
    prefix, pool/cluster encoding) and grouped per physical table in
    storage order, then each table is ingested in one
    :meth:`~repro.engine.database.Database.direct_path_load` call:
    pre-sorted append with sequential page writes, deferred index
    build, WAL bypass, and a sealing checkpoint per table.

    Idempotent under crash recovery: a table that already holds its
    expected row count (a previously *sealed* table) is skipped on
    re-run.  Partial tables cannot survive a crash — nothing of an
    unsealed table is durable — so the skip check is exact.
    """
    if "lfa1" not in r3.ddic.tables:
        activate_sap_schema(r3)
        create_sap_join_views(r3)
    timings = LoadTimings(processes=1)

    physical: dict[str, list[tuple]] = {}
    logical_of: dict[str, set[str]] = {}
    for table, rows, cluster_key in mapping.load_stream(data):
        name, rendered = r3.render_rows(table, rows, cluster_key)
        physical.setdefault(name, []).extend(rendered)
        logical_of.setdefault(name, set()).add(table)

    start = r3.clock.now
    for name, rows in physical.items():
        table = r3.db.catalog.table(name)
        if table.row_count >= len(rows):
            continue  # sealed by a pre-crash run of this loader
        r3.db.direct_path_load(name, rows)
        for logical_name in logical_of[name]:
            r3.note_write(logical_name)
    timings.elapsed["DIRECT"] = r3.clock.now - start
    r3.db.analyze()
    return timings
