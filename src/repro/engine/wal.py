"""Write-ahead logging: LSN-stamped redo/undo records + fuzzy checkpoints.

The durable half of the engine.  A :class:`WriteAheadLog` sits between
the tables and a :class:`DurableStore` (the simulator's stand-in for
the log disk): every insert/update/delete/DDL appends an LSN-stamped
record to an in-memory buffer; COMMIT forces the buffer to the store as
CRC-framed bytes (group commit — one fsync per transaction batch, not
per record), charging page writes plus a log force through the shared
:class:`~repro.sim.disk.DiskModel`.

Checkpoints follow the classic fuzzy protocol: a ``ckpt_begin`` record
snapshots the active-transaction table, dirty pages are written behind
ongoing activity, and a ``ckpt_end`` record seals the checkpoint; the
slot-level image is installed in the store only after the end record is
durable, so a crash anywhere inside the protocol falls back to the
previous image.  Log segments wholly below
``min(image LSN, oldest active transaction's first LSN)`` are truncated
after every checkpoint, which is what bounds recovery time by the
checkpoint interval.

Crash semantics are explicit: an injected
:class:`~repro.engine.errors.SimulatedCrash` at any durability boundary
freezes the store (nothing later can touch it — the process is dead)
and may leave a *torn* truncated frame on the log tail, exactly the
state a real power failure leaves behind.  Recovery lives in
:mod:`repro.engine.recovery`.
"""

from __future__ import annotations

import ast
import datetime
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.errors import (
    ExecutionError,
    SimulatedCrash,
    TornWriteError,
    WalCorruptionError,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType, TypeKind
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams
from repro.trace.tracer import Tracer

# -- record kinds ------------------------------------------------------------

K_INSERT = "insert"
K_UPDATE = "update"
K_DELETE = "delete"
K_DDL = "ddl"
K_COMMIT = "commit"
K_CKPT_BEGIN = "ckpt_begin"
K_CKPT_END = "ckpt_end"

#: kinds that represent transaction work (and therefore need undo)
WORK_KINDS = (K_INSERT, K_UPDATE, K_DELETE, K_DDL)


@dataclass
class WalRecord:
    """One log record.  ``lsn`` is stamped at append time."""

    kind: str
    txn: int
    lsn: int = 0
    table: str = ""
    rowid: int = -1
    row: tuple | None = None
    old: tuple | None = None
    payload: Any = None


# -- value / frame serialization ---------------------------------------------
#
# Records are serialized via ``repr`` of plain literals and parsed back
# with ``ast.literal_eval`` — deterministic, dependency-free, and exact
# for every type the engine stores (int, float, str, None, bytes).
# ``datetime.date`` is not a literal, so dates travel as a
# ``("__date__", iso)`` marker tuple.

_DATE_MARK = "__date__"
_LEN = struct.Struct("<I")
#: frame overhead: 4-byte length prefix + 4-byte CRC32 trailer
FRAME_OVERHEAD = 8


def _encode_value(value: Any) -> Any:
    if isinstance(value, datetime.date):
        return (_DATE_MARK, value.isoformat())
    if isinstance(value, tuple):
        return tuple(_encode_value(v) for v in value)
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _DATE_MARK \
                and isinstance(value[1], str):
            return datetime.date.fromisoformat(value[1])
        return tuple(_decode_value(v) for v in value)
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _decode_value(v) for k, v in value.items()}
    return value


def frame_payload(payload: bytes) -> bytes:
    """Wrap ``payload`` in the on-disk frame: length + bytes + CRC32."""
    return _LEN.pack(len(payload)) + payload + _LEN.pack(zlib.crc32(payload))


def unframe_payload(frame: bytes) -> bytes:
    """Unwrap one frame, raising :class:`TornWriteError` on any damage.

    Every failure mode of a single frame — short length prefix, fewer
    bytes than declared, CRC mismatch, trailing garbage — looks the
    same from one frame's perspective: the write did not complete as
    acknowledged.  Whether that is a recoverable torn *tail* or fatal
    mid-log corruption is the log reader's call (it knows the frame's
    position), so this function always raises the transient flavour.
    """
    if len(frame) < _LEN.size:
        raise TornWriteError("frame shorter than its length prefix")
    (length,) = _LEN.unpack_from(frame, 0)
    if len(frame) != _LEN.size + length + _LEN.size:
        raise TornWriteError(
            f"frame declares {length} payload bytes, "
            f"carries {len(frame) - FRAME_OVERHEAD}"
        )
    payload = frame[_LEN.size:_LEN.size + length]
    (crc,) = _LEN.unpack_from(frame, _LEN.size + length)
    if crc != zlib.crc32(payload):
        raise TornWriteError("frame CRC mismatch")
    return payload


def encode_record(record: WalRecord) -> bytes:
    """Serialize one record into its framed on-disk bytes."""
    literal = (
        record.kind, record.txn, record.lsn, record.table, record.rowid,
        _encode_value(record.row), _encode_value(record.old),
        _encode_value(record.payload),
    )
    return frame_payload(repr(literal).encode("utf-8"))


def decode_record(frame: bytes) -> WalRecord:
    """Parse one framed record; raises :class:`TornWriteError` on damage."""
    payload = unframe_payload(frame)
    try:
        literal = ast.literal_eval(payload.decode("utf-8"))
        kind, txn, lsn, table, rowid, row, old, extra = literal
    except (ValueError, SyntaxError, UnicodeDecodeError) as exc:
        # CRC passed but the payload does not parse: the frame itself
        # was manufactured wrong, not damaged in flight.
        raise WalCorruptionError(f"undecodable WAL payload: {exc}") from exc
    return WalRecord(
        kind=kind, txn=txn, lsn=lsn, table=table, rowid=rowid,
        row=_decode_value(row), old=_decode_value(old),
        payload=_decode_value(extra),
    )


# -- catalog serialization helpers -------------------------------------------

def schema_to_payload(schema: TableSchema) -> dict[str, Any]:
    """A literal-only description of a table schema (for DDL records
    and checkpoint images)."""
    return {
        "name": schema.name,
        "columns": [
            (c.name, c.sql_type.kind.value, c.sql_type.length,
             c.sql_type.scale, c.nullable)
            for c in schema.columns
        ],
        "primary_key": list(schema.primary_key),
    }


def schema_from_payload(payload: dict[str, Any]) -> TableSchema:
    columns = [
        Column(name, SqlType(TypeKind(kind), length=length, scale=scale),
               nullable=nullable)
        for name, kind, length, scale, nullable in payload["columns"]
    ]
    return TableSchema(payload["name"], columns,
                       list(payload["primary_key"]))


# -- the durable store -------------------------------------------------------

@dataclass
class CheckpointImage:
    """The slot-level database image sealed by one fuzzy checkpoint.

    ``lsn`` is the checkpoint's *begin* LSN: every record at or below
    it is reflected in the image, redo starts just above it.  ``att``
    snapshots the active-transaction table (txn -> first LSN) so
    recovery knows which in-image effects may need undo.  ``journal``
    carries the application's last committed journal payload (batch
    input's restart journal) across log truncation.
    """

    lsn: int
    catalog: dict[str, Any]
    tables: dict[str, list[tuple | None]]
    att: dict[int, int]
    journal: bytes | None = None


@dataclass
class WalSegment:
    """One log segment: an ordered run of framed records."""

    index: int
    frames: list[tuple[int, bytes]] = field(default_factory=list)

    @property
    def max_lsn(self) -> int:
        return self.frames[-1][0] if self.frames else 0


class DurableStore:
    """What survives a crash: flushed log frames + the last checkpoint.

    The store models the log disk(s): bytes that reached it before a
    crash stay readable, everything else is gone.  ``freeze()`` is
    called when the owning engine dies — a dead process cannot write,
    so every later mutation attempt becomes a silent no-op, which keeps
    post-crash cleanup code (app-level rollback handlers unwinding
    through the same ``except`` ladders) from polluting durable state.
    """

    #: storage backend the owning database was created with; recorded
    #: by Database so Database.open reopens with the same backend
    storage = "heap"

    def __init__(self, params: SimParams | None = None) -> None:
        self.params = params or SimParams()
        self.segments: list[WalSegment] = [WalSegment(0)]
        self.image: CheckpointImage | None = None
        self.frozen = False
        self._next_segment = 1

    # -- writes (all gated on the freeze flag) --------------------------

    def append_frame(self, lsn: int, frame: bytes) -> None:
        if self.frozen:
            return
        self.segments[-1].frames.append((lsn, frame))

    def rotate(self) -> None:
        if self.frozen:
            return
        self.segments.append(WalSegment(self._next_segment))
        self._next_segment += 1

    def install_image(self, image: CheckpointImage) -> None:
        if self.frozen:
            return
        self.image = image

    def truncate_below(self, lsn: int) -> int:
        """Drop whole segments whose every frame is below ``lsn``.

        The active (last) segment always survives.  Returns the number
        of segments reclaimed.
        """
        if self.frozen:
            return 0
        dropped = 0
        while len(self.segments) > 1 and self.segments[0].frames \
                and self.segments[0].max_lsn < lsn:
            self.segments.pop(0)
            dropped += 1
        return dropped

    def freeze(self) -> None:
        """The owning engine died; no further writes can reach disk."""
        self.frozen = True

    def thaw(self) -> None:
        """A new engine instance reopened the store (recovery path)."""
        self.frozen = False

    # -- reads ----------------------------------------------------------

    def frames(self) -> list[tuple[int, bytes]]:
        return [frame for seg in self.segments for frame in seg.frames]

    def records(self) -> tuple[list[WalRecord], int]:
        """Decode the whole log; returns ``(records, torn_dropped)``.

        A damaged frame at the very tail is the expected crash
        signature: it is dropped and counted.  A damaged frame anywhere
        earlier means acknowledged history is unreadable and raises
        :class:`WalCorruptionError`.
        """
        frames = self.frames()
        out: list[WalRecord] = []
        for position, (lsn, frame) in enumerate(frames):
            try:
                record = decode_record(frame)
            except TornWriteError as exc:
                if position == len(frames) - 1:
                    return out, 1
                raise WalCorruptionError(
                    f"corrupt WAL frame at LSN {lsn}, "
                    f"{len(frames) - 1 - position} frames before the tail"
                ) from exc
            if record.lsn != lsn:
                raise WalCorruptionError(
                    f"frame indexed at LSN {lsn} decodes to LSN {record.lsn}"
                )
            out.append(record)
        return out, 0

    @property
    def frame_count(self) -> int:
        return sum(len(seg.frames) for seg in self.segments)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def log_bytes(self) -> int:
        return sum(
            len(frame) for seg in self.segments for _, frame in seg.frames
        )

    # -- damage helpers (tests / corruption injection) ------------------

    def tear_tail_frame(self, keep_bytes: int = 3) -> None:
        """Truncate the last frame, as an interrupted write would."""
        lsn, frame = self._tail()
        self.segments[-1].frames[-1] = (lsn, frame[:keep_bytes])

    def corrupt_tail_frame(self) -> None:
        """Flip one payload byte of the last frame (CRC now fails)."""
        lsn, frame = self._tail()
        at = len(frame) // 2
        damaged = frame[:at] + bytes([frame[at] ^ 0xFF]) + frame[at + 1:]
        self.segments[-1].frames[-1] = (lsn, damaged)

    def corrupt_mid_frame(self) -> None:
        """Flip a byte in the *middle* of the log (permanent damage)."""
        frames = self.frames()
        if len(frames) < 2:
            raise ExecutionError("need at least two frames to corrupt mid-log")
        target = frames[len(frames) // 2 - 1][0]
        for seg in self.segments:
            for i, (lsn, frame) in enumerate(seg.frames):
                if lsn == target:
                    at = len(frame) // 2
                    seg.frames[i] = (
                        lsn,
                        frame[:at] + bytes([frame[at] ^ 0xFF])
                        + frame[at + 1:],
                    )
                    return

    def _tail(self) -> tuple[int, bytes]:
        for seg in reversed(self.segments):
            if seg.frames:
                return seg.frames[-1]
        raise ExecutionError("cannot damage an empty log")


# -- the write-ahead log -----------------------------------------------------

SnapshotProvider = Callable[
    [], tuple[dict[str, Any], dict[str, list[tuple | None]]]
]


class WriteAheadLog:
    """Buffered, group-committed logging over a :class:`DurableStore`."""

    def __init__(
        self,
        store: DurableStore,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        disk: DiskModel,
        params: SimParams,
        tracer: Tracer,
    ) -> None:
        self.store = store
        self._clock = clock
        self._metrics = metrics
        self._disk = disk
        self._params = params
        #: optional FaultInjector; drives crash/torn-write injection
        self.faults = None
        #: flushes run under its ``commit`` layer
        self.tracer = tracer
        #: set once a SimulatedCrash killed this engine instance
        self.dead = False
        #: set while recovery replays history (suppresses re-logging)
        self.recovering = False
        #: set by the direct-path loader: mutations are NOT logged (the
        #: sealing checkpoint afterwards is the one durable boundary)
        self.bypass = False
        #: builds (catalog payload, table slots) for checkpoint images;
        #: wired up by the owning Database
        self.snapshot_provider: SnapshotProvider | None = None
        self.next_lsn = 1
        self.next_txn = 1
        self._buffer: list[WalRecord] = []
        self._current_txn: int | None = None
        #: active-transaction table: txn -> LSN of its first record
        self._txn_first_lsn: dict[int, int] = {}
        #: dirty-page table: table name -> pages dirtied since last ckpt
        self._dirty_pages: dict[str, set[int]] = {}
        self._last_journal: bytes | None = None
        self._records_since_ckpt = 0
        self._segment_records = 0

    # -- transaction demarcation ----------------------------------------

    @property
    def in_txn(self) -> bool:
        return self._current_txn is not None

    def begin(self) -> int:
        """Open an explicit transaction; returns its id."""
        if self.dead or self.recovering or self.bypass:
            return 0
        if self._current_txn is not None:
            raise ExecutionError(
                "transaction already open (transactions do not nest)"
            )
        txn = self.next_txn
        self.next_txn += 1
        self._current_txn = txn
        self._metrics.count("wal.txn_begins")
        return txn

    def commit(self, journal: bytes | None = None) -> None:
        """Log COMMIT and force the group to disk (one fsync).

        ``journal`` rides inside the COMMIT record: an opaque
        application payload (batch input's restart journal) made
        durable *atomically* with the transaction it describes — a torn
        COMMIT frame loses both together, never one without the other.
        """
        if self.dead or self.recovering or self.bypass:
            return
        if self._current_txn is None:
            raise ExecutionError("commit without an open transaction")
        txn = self._current_txn
        self._append(WalRecord(kind=K_COMMIT, txn=txn, payload=journal))
        self._current_txn = None
        self._txn_first_lsn.pop(txn, None)
        if journal is not None:
            self._last_journal = journal
        self.flush()
        self._metrics.count("wal.commits")
        self._maybe_auto_checkpoint()

    # -- logging hooks (called by Table / Database) ---------------------

    def log_insert(self, table: str, rowid: int, row: tuple,
                   page: int) -> None:
        self._log_work(
            WalRecord(kind=K_INSERT, txn=0, table=table, rowid=rowid,
                      row=row),
            page,
        )

    def log_update(self, table: str, rowid: int, old: tuple, new: tuple,
                   page: int) -> None:
        self._log_work(
            WalRecord(kind=K_UPDATE, txn=0, table=table, rowid=rowid,
                      row=new, old=old),
            page,
        )

    def log_delete(self, table: str, rowid: int, old: tuple,
                   page: int) -> None:
        self._log_work(
            WalRecord(kind=K_DELETE, txn=0, table=table, rowid=rowid,
                      old=old),
            page,
        )

    def log_ddl(self, op: tuple) -> None:
        """Log one DDL operation; ``op`` is ``(verb, payload...)``."""
        if op and op[0] in ("drop_table",):
            self._dirty_pages.pop(str(op[1]).lower(), None)
        self._log_work(WalRecord(kind=K_DDL, txn=0, payload=op), page=None)

    def _log_work(self, record: WalRecord, page: int | None) -> None:
        """Append one work record, autocommitting when no transaction
        is open (tuple-at-a-time durability: an own COMMIT + log force
        per record, the expensive path batch input's group commit
        exists to avoid)."""
        if self.dead or self.recovering or self.bypass:
            return
        implicit = self._current_txn is None
        if implicit:
            record.txn = self.next_txn
            self.next_txn += 1
            self._metrics.count("wal.autocommits")
        else:
            assert self._current_txn is not None
            record.txn = self._current_txn
        self._append(record)
        if page is not None and record.table:
            self._dirty_pages.setdefault(record.table, set()).add(page)
        if implicit:
            txn = record.txn
            self._append(WalRecord(kind=K_COMMIT, txn=txn))
            self._txn_first_lsn.pop(txn, None)
            self.flush()
            self._maybe_auto_checkpoint()

    def _append(self, record: WalRecord) -> None:
        record.lsn = self.next_lsn
        self.next_lsn += 1
        if record.kind in WORK_KINDS \
                and record.txn not in self._txn_first_lsn:
            self._txn_first_lsn[record.txn] = record.lsn
        self._buffer.append(record)
        self._clock.charge(self._params.wal_append_cpu_s)
        self._metrics.count("wal.appends")
        if record.kind not in (K_CKPT_BEGIN, K_CKPT_END):
            self._records_since_ckpt += 1
        self._boundary("wal.append")
        if len(self._buffer) >= self._params.wal_buffer_records:
            self.flush()

    # -- flushing --------------------------------------------------------

    def flush(self) -> None:
        """Force buffered records to the durable store + one fsync.

        A :class:`SimulatedCrash` at any per-frame boundary loses this
        and all later buffered records; with ``torn_write_prob`` armed
        the frame in flight may additionally land truncated on the log
        tail — the state recovery's torn-tail handling exists for.
        """
        if self.dead or not self._buffer:
            return
        with self.tracer.layer("commit"):
            self._flush_buffer()

    def _flush_buffer(self) -> None:
        buffered = self._buffer
        self._buffer = []
        total_bytes = 0
        for record in buffered:
            frame = encode_record(record)
            if self.faults is not None:
                try:
                    self.faults.on_durability_op("wal.flush")
                except SimulatedCrash:
                    torn = self.faults.torn_write_bytes(frame)
                    if torn is not None:
                        self.store.append_frame(record.lsn, torn)
                        self._metrics.count("wal.torn_frames_written")
                    self.die()
                    raise
            self.store.append_frame(record.lsn, frame)
            total_bytes += len(frame)
            self._segment_records += 1
            if self._segment_records >= self._params.wal_segment_records:
                self.store.rotate()
                self._segment_records = 0
                self._metrics.count("wal.segments_rotated")
        pages = max(1, -(-total_bytes // self._params.page_size_bytes))
        for _ in range(pages):
            self._disk.write_page()
        self._disk.fsync()
        self._metrics.count("wal.flushes")
        self._metrics.count("wal.records_flushed", len(buffered))
        self._metrics.count("wal.pages_written", pages)
        self._metrics.count("wal.bytes_flushed", total_bytes)
        self._boundary("wal.fsync")

    # -- fuzzy checkpoints ----------------------------------------------

    def checkpoint(self) -> None:
        """Write one fuzzy checkpoint and truncate reclaimable segments.

        Protocol: flush; log ``ckpt_begin`` carrying the ATT; write the
        dirty pages; log ``ckpt_end``; only once the end record is
        durable, install the slot image in the store.  Active
        transactions are *not* quiesced — their uncommitted effects are
        inside the image and the ATT tells recovery what to undo.
        """
        if self.dead or self.recovering or self.bypass:
            return
        if self.snapshot_provider is None:
            raise ExecutionError("checkpoint without a snapshot provider")
        self.flush()
        att = dict(self._txn_first_lsn)
        begin = WalRecord(kind=K_CKPT_BEGIN, txn=0, payload=dict(att))
        self._append(begin)
        self._boundary("checkpoint.begin")
        self.flush()
        catalog_payload, table_slots = self.snapshot_provider()
        dirty_page_count = sum(
            len(pages) for pages in self._dirty_pages.values()
        )
        for _ in range(dirty_page_count):
            self._disk.write_page()
            self._boundary("checkpoint.page")
        image = CheckpointImage(
            lsn=begin.lsn, catalog=catalog_payload, tables=table_slots,
            att=att, journal=self._last_journal,
        )
        self._boundary("checkpoint.end")
        self._append(WalRecord(kind=K_CKPT_END, txn=0, payload=begin.lsn))
        self.flush()
        # The end record is durable; sealing the image is atomic with it.
        self.store.install_image(image)
        keep_from = min([begin.lsn, *att.values()])
        dropped = self.store.truncate_below(keep_from)
        if dropped:
            self._metrics.count("wal.segments_truncated", dropped)
        self._dirty_pages.clear()
        self._records_since_ckpt = 0
        self._metrics.count("wal.checkpoints")
        self._metrics.count("wal.checkpoint_pages", dirty_page_count)

    def _maybe_auto_checkpoint(self) -> None:
        every = self._params.wal_checkpoint_every_records
        if every is not None and self._records_since_ckpt >= every:
            self.checkpoint()

    # -- crash ----------------------------------------------------------

    def die(self) -> None:
        """This engine instance is dead; freeze durable state."""
        self.dead = True
        self.store.freeze()

    def _boundary(self, kind: str) -> None:
        if self.faults is None:
            return
        try:
            self.faults.on_durability_op(kind)
        except SimulatedCrash:
            self.die()
            raise
