"""The batch-input facility.

Batch input "simulates" interactive data entry: for every record it
drives the same Dynpro screens a human would fill, runs every
consistency check of the business application, and then inserts the
resulting rows **one tuple at a time** — never through the RDBMS's
bulk loader.  This is the whole explanation of the paper's Table 3
(a month to load 1.7 GB): per-record screen processing + check queries
+ tuple-wise index maintenance.

A month-long load does not survive the real world without crashes, so
the facility also supports **checkpointed execution**: transactions are
grouped into commit batches of ``commit_interval``; after each batch a
checkpoint record is written to a :class:`LoadJournal` (its cost
charged to the simulated clock).  If the work process crashes — or any
error escapes mid-batch — every row inserted since the last checkpoint
is rolled back before the exception propagates, leaving the database
exactly at the journalled state.  A later session resumes from the
journal, skipping committed transactions, so replay is idempotent: the
recovered load produces the same rows as a fault-free one, with zero
duplicates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.engine.errors import TornWriteError
from repro.engine.wal import frame_payload, unframe_payload
from repro.r3.errors import BatchInputError


@dataclass
class BatchTransaction:
    """One logical business transaction (e.g. 'create order 4711')."""

    #: how many Dynpro screens the transaction walks through
    screens: int
    #: SELECT SINGLE checks: (open_sql_text, host_vars); every check
    #: must find a row or the transaction fails
    checks: list[tuple[str, dict]] = field(default_factory=list)
    #: plain logical inserts: (table, row-without-mandt)
    inserts: list[tuple[str, tuple]] = field(default_factory=list)
    #: cluster inserts: (table, cluster_key, rows)
    cluster_inserts: list[tuple[str, tuple, list[tuple]]] = \
        field(default_factory=list)
    #: parameterized deletes: (delete_sql, params) run through the DBIF
    deletes: list[tuple[str, tuple]] = field(default_factory=list)


@dataclass
class BatchInputStats:
    transactions: int = 0
    records_inserted: int = 0
    checks_run: int = 0
    failures: int = 0


@dataclass
class PhaseProgress:
    """Journalled progress of one load phase (one TPC-D entity)."""

    transactions_committed: int = 0
    batches_committed: int = 0
    complete: bool = False


class LoadJournal:
    """In-memory stand-in for the on-disk batch-input restart journal.

    One record per phase; writing a checkpoint record is charged to the
    simulated clock by the session (``checkpoint_s``), reading it on
    resume costs ``journal_read_s``.
    """

    def __init__(self) -> None:
        self.setup_done = False
        self.phases: dict[str, PhaseProgress] = {}

    def phase(self, name: str) -> PhaseProgress:
        return self.phases.setdefault(name, PhaseProgress())

    # -- wire format (rides inside engine COMMIT records) -----------------

    def to_wire(self) -> bytes:
        """Serialize to one CRC-framed record.

        With engine durability on, every batch-input checkpoint commits
        this payload atomically with the batch's rows (it rides in the
        WAL COMMIT record), so the restart journal can never describe
        rows the database does not have, or vice versa.
        """
        state = {
            "setup_done": self.setup_done,
            "phases": {
                name: (p.transactions_committed, p.batches_committed,
                       p.complete)
                for name, p in self.phases.items()
            },
        }
        return frame_payload(repr(state).encode("utf-8"))

    @classmethod
    def from_wire(cls, data: bytes) -> "LoadJournal":
        """Parse one wire record; :class:`TornWriteError` on any damage.

        A truncated or bit-flipped record — the residue of a crash in
        the middle of the checkpoint write — is reported as torn rather
        than crashing the resume path; callers fall back to an earlier
        record via :meth:`recover`.
        """
        payload = unframe_payload(data)
        try:
            state = ast.literal_eval(payload.decode("utf-8"))
            phase_states = dict(state["phases"])
        except (ValueError, SyntaxError, UnicodeDecodeError, KeyError,
                TypeError) as exc:
            raise TornWriteError(
                f"undecodable journal record: {exc}"
            ) from exc
        journal = cls()
        journal.setup_done = bool(state.get("setup_done", False))
        for name, (committed, batches, complete) in phase_states.items():
            journal.phases[name] = PhaseProgress(
                transactions_committed=committed,
                batches_committed=batches,
                complete=complete,
            )
        return journal

    @classmethod
    def recover(cls, history) -> "LoadJournal":
        """Latest readable journal from a history of wire records.

        Walks the history backwards past torn entries: a crash during a
        checkpoint's journal write must fall back to the *previous*
        checkpoint, not raise.  An empty or wholly unreadable history
        yields a fresh journal (the load restarts from scratch, which
        is always safe — replay is idempotent).
        """
        for data in reversed(list(history)):
            if data is None:
                continue
            try:
                return cls.from_wire(data)
            except TornWriteError:
                continue
        return cls()


class BatchInputSession:
    """Processes batch transactions against one R/3 system.

    Without a journal the session behaves exactly as before: every
    transaction commits individually and errors propagate immediately.
    With ``journal`` + ``commit_interval`` set, :meth:`run_phase`
    checkpoints every ``commit_interval`` transactions and rolls
    uncommitted work back when an exception (including an injected
    :class:`~repro.r3.errors.WorkProcessCrash`) escapes.
    """

    def __init__(self, r3, commit_interval: int | None = None,
                 journal: LoadJournal | None = None) -> None:
        if commit_interval is not None and commit_interval < 1:
            raise ValueError("commit_interval must be >= 1")
        self._r3 = r3
        self.commit_interval = commit_interval
        self.journal = journal
        self.stats = BatchInputStats()
        #: physical (table, rowid) pairs inserted since the last checkpoint
        self._undo: list[tuple[str, int]] = []
        self._uncommitted = 0
        #: engine-level durability: when the backing Database runs with
        #: a WAL, batch work is wrapped in engine transactions and every
        #: checkpoint commits the journal payload atomically with its
        #: rows.  With durability off this flag is False and the session
        #: behaves tick-for-tick as before.
        self._durable = getattr(r3.db, "wal", None) is not None

    @property
    def _checkpointing(self) -> bool:
        return self.journal is not None

    def run(self, transaction: BatchTransaction) -> None:
        db = self._r3.db
        own_txn = self._durable and not db.wal.dead and not db.wal.in_txn
        if own_txn:
            db.begin()
        try:
            self._run_transaction(transaction)
        finally:
            if own_txn:
                # Commit even when the transaction failed mid-way: the
                # log must mirror whatever reached memory (there is no
                # statement-level undo; app rollback is compensation).
                db.commit()

    def _run_transaction(self, transaction: BatchTransaction) -> None:
        r3 = self._r3
        params = r3.params
        # Work-process crash hook: crashes land on transaction
        # boundaries, the granularity at which R/3 dispatches work.
        if r3.faults is not None:
            r3.faults.maybe_crash()
        # Screen simulation + fixed per-record machinery.
        r3.clock.charge(transaction.screens * params.screen_s)
        r3.clock.charge(params.batch_record_overhead_s)
        r3.metrics.count("batchinput.screens", transaction.screens)
        # Consistency checks: real SELECT SINGLEs through Open SQL.
        for check_sql, host_vars in transaction.checks:
            self.stats.checks_run += 1
            row = r3.open_sql.select_single(check_sql, host_vars)
            if row is None:
                self.stats.failures += 1
                raise BatchInputError(
                    f"consistency check failed: {check_sql} "
                    f"with {host_vars}"
                )
        # Tuple-at-a-time inserts (no bulk path, full index maintenance).
        for table, row in transaction.inserts:
            written = r3.insert_logical(table, row, bulk=False)
            if self._checkpointing:
                self._undo.append(written)
            self.stats.records_inserted += 1
        for table, cluster_key, rows in transaction.cluster_inserts:
            written_rows = r3.insert_cluster(table, cluster_key, rows,
                                             bulk=False)
            if self._checkpointing:
                self._undo.extend(written_rows)
            self.stats.records_inserted += len(rows)
        for delete_sql, delete_params in transaction.deletes:
            r3.dbif.execute_param(delete_sql, delete_params)
        r3.clock.charge(params.commit_s)
        self.stats.transactions += 1
        r3.metrics.count("batchinput.transactions")

    def run_all(self, transactions) -> BatchInputStats:
        for transaction in transactions:
            self.run(transaction)
        return self.stats

    # -- checkpointed execution ------------------------------------------------

    def run_phase(self, name: str, transactions) -> BatchInputStats:
        """Run one journalled phase; resumes past committed work.

        Transactions the journal already records as committed are
        regenerated and discarded without charging the clock (the work
        itself was paid for — and journalled — by the crashed run).
        Any exception escaping mid-batch triggers a rollback to the
        last checkpoint before it propagates.
        """
        if not self._checkpointing:
            return self.run_all(transactions)
        r3 = self._r3
        progress = self.journal.phase(name)
        if progress.complete:
            r3.metrics.count("batchinput.journal_phase_skips")
            return self.stats
        if progress.transactions_committed:
            r3.clock.charge(r3.params.journal_read_s)
            r3.metrics.count("batchinput.journal_resumes")
        iterator = iter(transactions)
        for _ in range(progress.transactions_committed):
            next(iterator)
        self._undo.clear()
        self._uncommitted = 0
        try:
            for transaction in iterator:
                if self._durable and not r3.db.wal.dead \
                        and not r3.db.wal.in_txn:
                    # One engine transaction per commit batch: recovery
                    # undoes exactly the rows the journal does not yet
                    # record as committed.
                    r3.db.begin()
                self.run(transaction)
                self._uncommitted += 1
                if self.commit_interval is not None \
                        and self._uncommitted >= self.commit_interval:
                    self._checkpoint(progress)
            self._checkpoint(progress, final=True)
            progress.complete = True
        except BaseException:
            self._rollback_uncommitted()
            raise
        return self.stats

    def _checkpoint(self, progress: PhaseProgress,
                    final: bool = False) -> None:
        """Commit the open batch: journal write + undo-log reset.

        With engine durability on, the journal's wire record rides in
        the engine COMMIT that makes the batch's rows durable — one
        atomic unit.  ``final`` additionally commits the phase's
        ``complete`` flag even when the last batch was empty.
        """
        if not self._uncommitted and not (final and self._durable):
            return
        r3 = self._r3
        if self._uncommitted:
            r3.clock.charge(r3.params.checkpoint_s)
            r3.metrics.count("batchinput.checkpoints")
            r3.metrics.count("batchinput.checkpoint_overhead_s",
                             r3.params.checkpoint_s)
            progress.transactions_committed += self._uncommitted
            progress.batches_committed += 1
            self._uncommitted = 0
            self._undo.clear()
        if final:
            progress.complete = True
        if self._durable and not r3.db.wal.dead:
            if not r3.db.wal.in_txn:
                r3.db.begin()
            r3.db.commit(journal=self.journal.to_wire())

    def _rollback_uncommitted(self) -> None:
        """Undo every row inserted since the last checkpoint."""
        r3 = self._r3
        if self._undo:
            r3.metrics.count("batchinput.rollbacks")
            r3.rollback_rows(self._undo)
            self._undo.clear()
        self._uncommitted = 0
        if self._durable and not r3.db.wal.dead and r3.db.wal.in_txn:
            # Make the compensation deletes durable and close the open
            # engine transaction; the journal payload re-asserts the
            # last checkpointed state.
            r3.db.commit(
                journal=self.journal.to_wire()
                if self.journal is not None else None
            )


def effective_parallel_time(elapsed: float, processes: int) -> float:
    """Wall-clock estimate when ``processes`` batch-input jobs share
    the work (the paper ran two in parallel)."""
    if processes < 1:
        raise ValueError("processes must be >= 1")
    return elapsed / processes
