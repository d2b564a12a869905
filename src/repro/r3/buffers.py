"""Application-server table buffers.

SAP R/3 can buffer table contents in the application server so that
repeated small queries never reach the RDBMS (paper Section 4.3,
Table 8).  The buffer is byte-budgeted with LRU eviction; every lookup
pays a management cost, which is why a too-small buffer (11 % hit
ratio in the paper) is a wash while a large one wins 3x.

Coherency (paper Section 2.3): in a distributed installation updates
propagate only periodically.  A single-server system invalidates its
buffers explicitly via :meth:`TableBufferManager.invalidate`; in a
multi-server cluster each server additionally replays the shared DDLOG
before buffered reads (see :mod:`repro.r3.cluster`), so a read is
never staler than one sync period.

Buffer *quality* (the SAP hit-ratio figure) is reported per
*generation*: invalidating or swapping a buffer resets its quality
window, so the post-invalidation cold period shows up as a visible
dip instead of being averaged away by the warm history — and
deactivated buffers drop out of the denominator entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class BufferStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_ratio(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class TableBuffer:
    """Single-record buffer for one table, LRU by byte budget.

    ``stats`` accumulates over the buffer's whole lifetime; ``window``
    covers only the current *generation* — it restarts empty at every
    invalidation, so a generation's hit ratio reflects the refill
    period instead of averaging it away against the warm history.
    """

    def __init__(self, max_bytes: int, row_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.row_bytes = max(1, row_bytes)
        self._entries: OrderedDict[tuple, tuple | None] = OrderedDict()
        self.stats = BufferStats()
        self.window = BufferStats()

    @property
    def capacity_rows(self) -> int:
        return max(1, self.max_bytes // self.row_bytes)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> tuple[bool, tuple | None]:
        self.stats.lookups += 1
        self.window.lookups += 1
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.window.hits += 1
            return True, self._entries[key]
        return False, None

    def store(self, key: tuple, row: tuple | None) -> None:
        self.stats.inserts += 1
        self.window.inserts += 1
        self._entries[key] = row
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity_rows:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.window.evictions += 1

    def clear(self) -> None:
        """Invalidate: drop all entries and start a fresh generation."""
        self._entries.clear()
        self.stats.invalidations += 1
        self.window = BufferStats(invalidations=1)


class TableBufferManager:
    def __init__(self, r3) -> None:
        self._r3 = r3
        self._buffers: dict[str, TableBuffer] = {}
        r3.monitor.attach_source(
            f"buffer_quality_total{r3.gauge_suffix}", self._quality)

    def _quality(self) -> float | None:
        return self.quality

    @property
    def quality(self) -> float | None:
        """Hit ratio across *active* buffers, current generation only.

        Deactivated buffers are gone from the denominator and an
        invalidation resets a buffer's window, so a post-invalidation
        dip is visible in the figure instead of being diluted by every
        lookup the buffer ever served.  ``None`` before the first
        lookup of the current generations.
        """
        lookups = sum(b.window.lookups for b in self._buffers.values())
        if not lookups:
            return None
        hits = sum(b.window.hits for b in self._buffers.values())
        return hits / lookups

    def configure(self, table_name: str, max_bytes: int) -> TableBuffer:
        """Activate single-record buffering for one table."""
        ddic_table = self._r3.ddic.lookup(table_name)
        row_bytes = sum(f.sql_type.byte_width for f in ddic_table.fields) + 16
        buffer = TableBuffer(max_bytes, row_bytes)
        self._buffers[table_name.lower()] = buffer
        return buffer

    def deactivate(self, table_name: str) -> None:
        self._buffers.pop(table_name.lower(), None)

    def active_for(self, table_name: str) -> TableBuffer | None:
        return self._buffers.get(table_name.lower())

    def active_tables(self) -> list[str]:
        return sorted(self._buffers)

    def lookup(self, table_name: str, key: tuple) -> tuple[bool, bool, tuple | None]:
        """Returns (buffer_active, hit, row)."""
        buffer = self._buffers.get(table_name.lower())
        if buffer is None:
            return False, False, None
        r3 = self._r3
        # Cluster coherence: replay pending DDLOG invalidations before
        # serving from the buffer, so no read is staler than one sync
        # period.  Single-server systems skip this attribute check-only
        # path with zero clock cost.
        if r3.coherence is not None:
            r3.coherence.before_read()
        if not r3.tracer.enabled:
            return True, *self._probe(buffer, key)
        with r3.tracer.span("buffer.lookup", table=table_name) as span:
            hit, row = self._probe(buffer, key)
            span.set(hit=hit)
        return True, hit, row

    def _probe(self, buffer: TableBuffer, key: tuple
               ) -> tuple[bool, tuple | None]:
        """(hit, row) of one charged, counted buffer lookup."""
        r3 = self._r3
        r3.clock.charge(r3.params.cache_lookup_s)
        r3.metrics.count("buffer_mgr.lookups")
        hit, row = buffer.lookup(key)
        if hit:
            r3.metrics.count("buffer_mgr.hits")
        return hit, row

    def store(self, table_name: str, key: tuple, row: tuple | None) -> None:
        buffer = self._buffers.get(table_name.lower())
        if buffer is None:
            return
        r3 = self._r3
        r3.clock.charge(r3.params.cache_insert_s)
        buffer.store(key, row)

    def invalidate(self, table_name: str) -> bool:
        """Clear one table's buffer; returns True if it held entries
        (the signal the DDLOG replay uses to count prevented stale
        reads)."""
        buffer = self._buffers.get(table_name.lower())
        if buffer is None:
            return False
        had_entries = len(buffer) > 0
        buffer.clear()
        return had_entries

    def clear_all(self) -> None:
        """Cold start: every active buffer drops its entries (an app
        server crash loses the whole buffer memory)."""
        for buffer in self._buffers.values():
            buffer.clear()

    def stats(self, table_name: str) -> BufferStats | None:
        # ``is None``, not truthiness: an empty buffer has len() == 0
        # but its (lifetime) stats are still live.
        buffer = self._buffers.get(table_name.lower())
        return buffer.stats if buffer is not None else None
