"""The B-tree index.

The B-tree is modelled as a sorted array of ``(key, rowid)`` entries
with page-accurate accounting: entries-per-page follows from the key
byte width, traversals charge upper-level page touches through the
buffer pool, and leaf walks charge one (mostly cached) page per
``entries_per_page`` entries.  Fetching the *heap* rows an index scan
produces is the caller's job — that is where the paper's Table 6
random-I/O trap lives.

A key is the plain tuple of the indexed column values, so that every
comparison a bisect makes runs inside ``tuple``'s own C loop; the one
value a column type cannot order, NULL, is ``NULL_FIRST`` in a key
(DESIGN.md §20).
"""

from __future__ import annotations

import bisect
import math
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator

from repro.engine.buffer import BufferPool
from repro.engine.errors import ExecutionError
from repro.engine.schema import TableSchema
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector

#: bytes per entry beyond the key itself (rowid + slot overhead)
ENTRY_OVERHEAD_BYTES = 8

#: sorted runs of deferred bulk entries an index keeps before it merges
#: them into one (DESIGN.md §32)
MAX_RUNS = 32


class _NullFirst:
    """What SQL NULL is inside an index key: below every value, equal
    to itself alone.  Every other type answers ``NotImplemented`` to a
    comparison with it, so Python asks the reflected method here."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return other is not self

    def __le__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False

    def __ge__(self, other: object) -> bool:
        return other is self

    def __repr__(self) -> str:
        return "NULL_FIRST"

    def __reduce__(self) -> str:
        # copies and pickles as the one instance: ``is`` keeps working
        return "NULL_FIRST"


NULL_FIRST = _NullFirst()


def key_getter(positions: list[int]) -> Callable[[tuple], tuple]:
    """``row -> the columns at positions``, always a tuple, taken at C
    speed; NULLs come out as ``None`` (see :func:`make_key`)."""
    if len(positions) == 1:
        position, = positions
        return itemgetter(slice(position, position + 1))  # a 1-tuple
    return itemgetter(*positions)


def make_key(values: tuple) -> tuple:
    """The index key of column values: the values themselves, in a
    plain tuple that compares at C speed, NULL as ``NULL_FIRST``."""
    if None in values:
        return tuple([NULL_FIRST if v is None else v for v in values])
    return tuple(values)


class BTreeIndex:
    """Ordered index over one or more columns of a table."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        column_names: list[str],
        unique: bool,
        buffer_pool: BufferPool,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        traverse_cpu_s: float,
        page_size_bytes: int,
    ) -> None:
        self.name = name
        self.table_name = schema.name
        self.column_names = [c.lower() for c in column_names]
        self.column_positions = [schema.column_index(c) for c in column_names]
        self.unique = unique
        self._buffer = buffer_pool
        self._clock = clock
        self._metrics = metrics
        self._counts = metrics.counts
        self._traverse_cpu_s = traverse_cpu_s
        key_bytes = sum(
            schema.columns[pos].byte_width for pos in self.column_positions
        )
        self.entry_byte_width = key_bytes + ENTRY_OVERHEAD_BYTES
        self.entries_per_page = max(2, page_size_bytes // self.entry_byte_width)
        self._file_name = f"idx:{name}"
        #: ``row -> indexed column values``, NULL still ``None``
        self.columns_of_row = key_getter(self.column_positions)
        # the all-NULL key, which a unique index admits any number of
        self._null_key = (NULL_FIRST,) * len(self.column_positions)
        # ``(key, rowid)`` entries in sort order
        self._sorted: list[tuple[tuple, int]] = []
        self._bulk_pending = 0
        # bulk entries not yet in ``_sorted`` (DESIGN.md §32): the
        # unsorted ones since the last leaf write, and sorted runs; the
        # first reader of ``_entries`` merges them
        self._tail: list[tuple[tuple, int]] = []
        self._runs: list[list[tuple[tuple, int]]] = []
        self._deferred = 0

    def key_of_row(self, row: tuple) -> tuple:
        """The indexed columns of a row as :func:`make_key` has them."""
        key = self.columns_of_row(row)
        return make_key(key) if None in key else key

    # -- maintenance -----------------------------------------------------

    def insert(self, row: tuple, rowid: int, bulk: bool = False,
               pos: int | None = None) -> None:
        """``pos`` is where :meth:`locate` put the row's key, when it
        found the key free and nothing has touched the index since: the
        insert of a probed row descends once, not twice.

        A bulk insert into a non-unique index that cannot append is
        deferred: it joins the unsorted tail, and the leaf write of every
        ``entries_per_page``-th bulk insert goes to the page of the rank
        :meth:`_cut_run` finds, which is the position a bisect of the
        sorted array would have found."""
        key = self.columns_of_row(row)
        if None in key:
            key = make_key(key)
        entries = self._sorted
        entry = (key, rowid)
        if pos is None:
            if not self._deferred and (not entries or entries[-1] < entry):
                # what sorted input (bulk load, direct path,
                # ingest_sorted) delivers: the position a bisect would
                # find, without one
                pos = len(entries)
            elif bulk and not self.unique:
                self._tail.append(entry)
                self._deferred += 1
                self._bulk_pending += 1
                if self._bulk_pending >= self.entries_per_page:
                    self._bulk_pending = 0
                    self._buffer.write(
                        self._file_name,
                        self._cut_run() // self.entries_per_page, fresh=True)
                return
            else:
                if self._deferred:
                    self.merge()
                pos = bisect.bisect_left(entries, entry)
            # Entries of one key are adjacent and ``pos`` lies among
            # them.
            if self.unique and key != self._null_key and (
                    (pos < len(entries) and entries[pos][0] == key)
                    or (pos and entries[pos - 1][0] == key)):
                raise self._violation(key)
        entries.insert(pos, entry)
        if bulk:
            # Deferred index build: page writes amortise over a full
            # leaf, as a bulk loader's sort-and-build pass would.
            self._bulk_pending += 1
            if self._bulk_pending >= self.entries_per_page:
                self._bulk_pending = 0
                self._buffer.write(self._file_name,
                                   pos // self.entries_per_page, fresh=True)
            return
        self._charge_traverse()
        self._buffer.write(self._file_name, pos // self.entries_per_page)

    def _cut_run(self) -> int:
        """Sort the tail into a run and return the rank of the tail's
        last entry among all entries, deferred ones included: the number
        of entries below it, which is what ``bisect_left`` over the one
        sorted array counts, summed over the tail, ``_sorted`` and each
        run.  Where the entry lies past a sorted list's end, as rising
        keys do, the count is its length, found without a bisect."""
        tail, entries, runs = self._tail, self._sorted, self._runs
        last = tail[-1]
        tail.sort()
        rank = len(tail) - 1 if tail[-1] is last \
            else bisect.bisect_left(tail, last)
        for run in (entries, *runs):
            rank += len(run) if not run or run[-1] < last \
                else bisect.bisect_left(run, last)
        self._tail = []
        if not runs and (not entries or entries[-1] < tail[0]):
            entries += tail  # past the end: merged as it stands
            self._deferred = 0
        else:
            runs.append(tail)
            if len(runs) > MAX_RUNS:  # a rank bisects each run: one again
                runs[:] = [sorted(chain.from_iterable(runs))]
        return rank

    def merge(self) -> None:
        """Put the deferred bulk entries into ``_sorted``, in order.
        Touches nothing simulated."""
        if self._deferred:
            self._sorted += chain(self._tail, *self._runs)
            self._sorted.sort()
            self._tail, self._runs, self._deferred = [], [], 0

    @property
    def _entries(self) -> list[tuple[tuple, int]]:
        """Every ``(key, rowid)`` entry in sort order: what each reader
        reads, the deferred entries merged in first."""
        if self._deferred:
            self.merge()
        return self._sorted

    def delete(self, row: tuple, rowid: int) -> None:
        entry, entries = (self.key_of_row(row), rowid), self._entries
        pos = bisect.bisect_left(entries, entry)
        if pos >= len(entries) or entries[pos] != entry:
            raise ExecutionError(
                f"index {self.name}: missing entry for rowid {rowid}"
            )
        del entries[pos]
        self._charge_traverse()
        self._buffer.write(self._file_name, self._leaf_page(pos))

    def check_unique(self, row: tuple, own_rowid: int | None = None) -> None:
        """Raise what ``insert(row, ...)`` would raise on a unique
        violation, before anything is mutated and without touching the
        clock, the metrics or the buffer pool.  An update passes the
        row's ``own_rowid``: its old entry is no conflict."""
        if not self.unique:
            return
        key = self.key_of_row(row)
        if key == self._null_key:
            return
        entries = self._entries
        idx = bisect.bisect_left(entries, (key, -1))
        while idx < len(entries) and entries[idx][0] == key:
            if entries[idx][1] != own_rowid:
                raise self._violation(key)
            idx += 1

    def _violation(self, key: tuple) -> ExecutionError:
        return ExecutionError(
            f"unique index {self.name} violated for key {key}"
        )

    # -- lookups -----------------------------------------------------------

    def search_eq(self, values: tuple) -> list[int]:
        """Rowids whose key equals ``values`` (full-key match)."""
        return self.locate(values)[1]

    def locate(self, values: tuple) -> tuple[int, list[int]]:
        """``search_eq`` that also says where it looked: the position
        of the first entry not below ``values``, and the rowids."""
        key = make_key(values) if None in values else tuple(values)
        self._charge_traverse()
        entries = self._entries
        entries_per_page = self.entries_per_page
        access, file_name = self._buffer.access, self._file_name
        probe = (key, -1)
        out: list[int] = []
        if not entries or entries[-1] < probe:
            # past the last entry, where an ascending load probes (and
            # :meth:`insert` appends): nothing there to equal the key
            lo = len(entries)
            page = max(lo - 1, 0) // entries_per_page
        else:
            lo = idx = bisect.bisect_left(entries, probe)
            page = -1
            while idx < len(entries) and entries[idx][0] == key:
                if idx // entries_per_page != page:
                    page = idx // entries_per_page
                    access(file_name, page, sequential=True)
                out.append(entries[idx][1])
                idx += 1
            page = lo // entries_per_page  # of an entry: the last is no lower
        if not out:
            access(file_name, page, sequential=False)
        self._counts["index.eq_lookups"] += 1
        return lo, out

    def prefix_run(self, values: tuple) -> tuple[int, list[int]]:
        """Where :meth:`search_prefix` starts its leaf walk and the
        rowids it yields, found by two bisects on the plain keys without
        touching the clock, a counter or the buffer pool."""
        prefix = make_key(values)
        entries, width = self._entries, len(prefix)
        lo = bisect.bisect_left(entries, (prefix, -1))
        hi = bisect.bisect_right(entries, prefix, lo,
                                 key=lambda entry: entry[0][:width])
        return lo, [rowid for _key, rowid in entries[lo:hi]]

    def charge_prefix_scan(self) -> None:
        """What :meth:`search_prefix` charges before its first entry."""
        self._charge_traverse()
        self._counts["index.prefix_scans"] += 1

    def search_prefix(self, values: tuple) -> Iterator[tuple[tuple, int]]:
        """All entries whose key starts with ``values`` (prefix match)."""
        prefix = make_key(values)
        self.charge_prefix_scan()
        entries = self._entries
        lo = bisect.bisect_left(entries, (prefix, -1))
        width, entries_per_page = len(prefix), self.entries_per_page
        touched_page = -1
        # its own leaf walk: two calls an entry less than the helper
        for idx in range(lo, len(entries)):
            key, rowid = entries[idx]
            if key[:width] != prefix:
                break
            page = idx // entries_per_page
            if page != touched_page:
                touched_page = page
                self._buffer.access(self._file_name, page, sequential=True)
            yield key, rowid

    def search_range(
        self,
        low: tuple | None,
        high: tuple | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[tuple, int]]:
        """Entries with ``low <= key <= high`` on the first key column.

        ``low``/``high`` are single-column value tuples; None means
        unbounded on that side.
        """
        self._charge_traverse()
        self._metrics.count("index.range_scans")
        if low is not None:
            low_key = make_key(low)
            if low_inclusive:
                start = bisect.bisect_left(self._entries, (low_key, -1))
            else:
                start = self._advance_past(low_key)
        else:
            start = self._first_non_null()
        high_key = make_key(high) if high is not None else None

        def in_range(key: tuple) -> bool:
            if high_key is None:
                return True
            head = key[: len(high_key)]
            if high_inclusive:
                return head <= high_key
            return head < high_key

        yield from self._walk_leaves_while(start, in_range)

    def scan_all(self) -> Iterator[tuple[tuple, int]]:
        """Full leaf walk in key order (sequential page charges)."""
        self._charge_traverse()
        yield from self._walk_leaves_while(0, lambda key: True)

    # -- internals ---------------------------------------------------------

    def _advance_past(self, low_key: tuple) -> int:
        entries = self._entries
        idx = bisect.bisect_left(entries, (low_key, -1))
        while idx < len(entries) and \
                entries[idx][0][: len(low_key)] == low_key:
            idx += 1
        return idx

    def _first_non_null(self) -> int:
        # Unbounded-low scans include NULL keys (they sort first); the
        # executor's predicate re-check filters them out where needed.
        return 0

    def _walk_leaves_while(self, start: int, predicate) -> Iterator[tuple[tuple, int]]:
        touched_page, entries = -1, self._entries
        for idx in range(start, len(entries)):
            key, rowid = entries[idx]
            if not predicate(key):
                break
            page = self._leaf_page(idx)
            if page != touched_page:
                touched_page = page
                self._buffer.access(self._file_name, page, sequential=True)
            yield key, rowid

    def _leaf_page(self, position: int) -> int:
        return position // self.entries_per_page

    def _charge_traverse(self) -> None:
        self._clock.charge(self._traverse_cpu_s)
        # Touch the non-leaf levels (root is level 1); these are small
        # and almost always buffer-resident.
        for level in range(self.height - 1):
            self._buffer.access(self._file_name, -(level + 1), sequential=False)

    # -- accounting ----------------------------------------------------------

    # Counts include the deferred entries and merge nothing.

    @property
    def entry_count(self) -> int:
        return len(self._sorted) + self._deferred

    @property
    def leaf_page_count(self) -> int:
        return -(-self.entry_count // self.entries_per_page)

    @property
    def page_count(self) -> int:
        """Leaf pages plus the (geometric) upper levels."""
        leaves = self.leaf_page_count
        total = leaves
        level = leaves
        while level > 1:
            level = -(-level // self.entries_per_page)
            total += level
        return total

    @property
    def size_bytes(self) -> int:
        return self.entry_count * self.entry_byte_width

    @property
    def height(self) -> int:
        leaves = -(-(len(self._sorted) + self._deferred)
                   // self.entries_per_page)
        if leaves <= 1:
            return 1
        return 1 + math.ceil(math.log(leaves, self.entries_per_page))
