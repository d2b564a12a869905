"""ARIES-lite crash recovery: analysis → redo (repeat history) → undo.

Invoked by :meth:`repro.engine.database.Database.open` on a
:class:`~repro.engine.wal.DurableStore` that survived a crash.  The
three passes follow the textbook shape:

* **Analysis** decodes the whole log (dropping a torn tail frame, the
  expected crash signature), loads the last sealed checkpoint image,
  and classifies transactions: a txn with a durable COMMIT record — or
  one wholly absorbed into the image — is a winner; every other txn
  that left work records (or sat in the checkpoint's active-transaction
  table) is a loser.
* **Redo** restores the checkpoint image, then *repeats history*: every
  work record with an LSN above the image's is replayed physically,
  winners and losers alike, at the original rowids.  Replay is
  idempotent — recovering an already-recovered store replays nothing
  new and lands on the same state.
* **Undo** rolls the losers back in reverse-LSN order (insert →
  tombstone, update → old image, delete → restore, DDL create → drop).

Recovery ends by writing a fresh checkpoint, so a second crash during
or right after recovery re-runs from a sealed state ("recover twice ≡
recover once") and the log never grows across repeated recoveries.

Costs are charged to the recovering database's own simulated clock:
sequential log reads, image page reads, and the physical replay work —
which is what makes "recovery time vs. checkpoint interval" a
measurable experiment (EXPERIMENTS.md §robustness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.wal import (
    K_COMMIT,
    K_DDL,
    K_DELETE,
    K_INSERT,
    K_UPDATE,
    WORK_KINDS,
    WalRecord,
)

if TYPE_CHECKING:
    from repro.engine.database import Database


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    image_lsn: int = 0
    max_lsn: int = 0
    records_scanned: int = 0
    segments_scanned: int = 0
    torn_tail_dropped: int = 0
    committed_txns: int = 0
    loser_txns: int = 0
    redo_applied: int = 0
    undo_applied: int = 0
    ddl_replayed: int = 0
    log_pages_read: int = 0
    recovery_s: float = 0.0
    #: last committed application-journal payload (batch input resume)
    app_journal: bytes | None = None
    #: every committed journal payload in commit order; resume logic
    #: walks it backwards past undecodable (torn) entries
    app_journal_history: list[bytes] = field(default_factory=list)


class RecoveryManager:
    """Runs one analysis/redo/undo pass over a freshly opened database."""

    def __init__(self, db: "Database") -> None:
        if db.wal is None:
            raise ValueError("recovery requires durability='wal'")
        self.db = db
        self.wal = db.wal
        self.store = db.wal.store

    def run(self) -> RecoveryReport:
        db = self.db
        wal = self.wal
        report = RecoveryReport()
        wal.recovering = True
        span = db.clock.span()
        try:
            with db.tracer.span("recovery.open"):
                with db.tracer.span("recovery.analysis"):
                    records, losers = self._analysis(report)
                image = self.store.image
                if image is not None:
                    with db.tracer.span("recovery.restore"):
                        db._restore_from_image(image)
                with db.tracer.span("recovery.redo"):
                    self._redo(records, report)
                with db.tracer.span("recovery.undo"):
                    self._undo(records, losers, report)
        finally:
            wal.recovering = False
        self._reset_wal_heads(records, report)
        db.metrics.count("recovery.runs")
        db.metrics.count("recovery.redo_applied", report.redo_applied)
        db.metrics.count("recovery.undo_applied", report.undo_applied)
        db.metrics.count("recovery.loser_txns", report.loser_txns)
        if report.torn_tail_dropped:
            db.metrics.count("recovery.torn_tail_dropped",
                             report.torn_tail_dropped)
        # Seal the recovered state: a second recovery starts from this
        # checkpoint and replays nothing (recover twice ≡ recover once).
        db.checkpoint()
        report.recovery_s = span.stop()
        db.metrics.count("recovery.time_s", report.recovery_s)
        return report

    # -- analysis --------------------------------------------------------

    def _analysis(
        self, report: RecoveryReport
    ) -> tuple[list[WalRecord], set[int]]:
        store = self.store
        db = self.db
        # Scanning the log is sequential I/O over every durable frame.
        log_pages = db.params.pages_for_bytes(store.log_bytes)
        for _ in range(log_pages):
            db.disk.read_page(sequential=True)
        report.log_pages_read = log_pages
        report.segments_scanned = store.segment_count
        records, torn = store.records()
        report.torn_tail_dropped = torn
        report.records_scanned = len(records)
        image = store.image
        report.image_lsn = image.lsn if image is not None else 0
        committed: set[int] = set()
        seen_work: set[int] = set(image.att) if image is not None else set()
        journal_history: list[bytes] = []
        if image is not None and image.journal is not None:
            journal_history.append(image.journal)
        for record in records:
            # Segment-granularity truncation can retain records already
            # absorbed into the image (or undone before the sealing
            # checkpoint of a previous recovery); those transactions are
            # fully resolved and must not be reclassified here.
            if image is not None and record.lsn <= image.lsn:
                continue
            if record.kind == K_COMMIT:
                committed.add(record.txn)
                if record.payload is not None:
                    journal_history.append(record.payload)
            elif record.kind in WORK_KINDS:
                seen_work.add(record.txn)
        losers = seen_work - committed
        report.committed_txns = len(committed)
        report.loser_txns = len(losers)
        report.app_journal_history = journal_history
        report.app_journal = journal_history[-1] if journal_history else None
        return records, losers

    # -- redo (repeat history) -------------------------------------------

    def _redo(self, records: list[WalRecord],
              report: RecoveryReport) -> None:
        db = self.db
        for record in records:
            if record.lsn <= report.image_lsn:
                continue
            if record.kind == K_INSERT:
                assert record.row is not None
                db.catalog.table(record.table).apply_insert(
                    record.rowid, record.row)
            elif record.kind == K_UPDATE:
                assert record.row is not None
                db.catalog.table(record.table).update(
                    record.rowid, record.row)
            elif record.kind == K_DELETE:
                db.catalog.table(record.table).delete(record.rowid)
            elif record.kind == K_DDL:
                db._apply_ddl(record.payload)
                report.ddl_replayed += 1
            else:
                continue
            report.redo_applied += 1

    # -- undo (roll back losers) ------------------------------------------

    def _undo(self, records: list[WalRecord], losers: set[int],
              report: RecoveryReport) -> None:
        if not losers:
            return
        db = self.db
        for record in reversed(records):
            if record.txn not in losers or record.kind not in WORK_KINDS:
                continue
            if record.kind == K_INSERT:
                db.catalog.table(record.table).delete(record.rowid)
            elif record.kind == K_UPDATE:
                assert record.old is not None
                db.catalog.table(record.table).update(
                    record.rowid, record.old)
            elif record.kind == K_DELETE:
                assert record.old is not None
                db.catalog.table(record.table).apply_insert(
                    record.rowid, record.old)
            else:
                db._undo_ddl(record.payload)
            report.undo_applied += 1

    # -- epilogue ---------------------------------------------------------

    def _reset_wal_heads(self, records: list[WalRecord],
                         report: RecoveryReport) -> None:
        """Continue LSN/txn numbering past everything the log has seen."""
        wal = self.wal
        image = self.store.image
        max_lsn = max(
            [report.image_lsn] + [record.lsn for record in records]
        )
        max_txn = max(
            [0]
            + [record.txn for record in records]
            + (list(image.att) if image is not None else []),
        )
        report.max_lsn = max_lsn
        wal.next_lsn = max_lsn + 1
        wal.next_txn = max_txn + 1
        wal._txn_first_lsn.clear()
        wal._last_journal = report.app_journal
