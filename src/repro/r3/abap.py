"""Mini-ABAP runtime: internal tables and EXTRACT/SORT/LOOP grouping.

Reports that cannot push joins or aggregations to the RDBMS do the
work here, paying the interpreter costs the paper measures:

* nested SELECT loops — one database round trip per outer row (the
  2.2 join idiom; see :mod:`repro.r3.dbif` for the per-call costs),
* ``EXTRACT`` / ``SORT`` / ``LOOP ... AT END OF`` — the two-phase
  grouping idiom of Figure 4: extract records, sort them *via
  secondary storage*, re-read and fold groups.  The intermediate
  materialization is exactly what the RDBMS's pipelined sort-group
  avoids (Table 7).

Internal tables cannot have indexes (paper Section 2.3); sorted
binary-search reads are the 2.2-era substitute.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Iterator

#: bytes per field for extract-area accounting
FIELD_BYTES = 16


class InternalTable:
    """An ABAP internal table of tuples."""

    def __init__(self, r3) -> None:
        self._r3 = r3
        self.rows: list[tuple] = []
        self._sorted_keys: list[tuple] | None = None
        self._key_fn: Callable[[tuple], tuple] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    # -- building ----------------------------------------------------------

    def append(self, row: tuple) -> None:
        self._r3.charge_abap(1)
        self.rows.append(row)
        self._sorted_keys = None

    def extract(self, row: tuple) -> None:
        """EXTRACT: append a record to the extract dataset."""
        self._r3.clock.charge(self._r3.params.abap_extract_s)
        self._r3.metrics.count("abap.extracts")
        self.rows.append(row)
        self._sorted_keys = None

    def extract_each(self, rows: list[tuple]) -> None:
        """:meth:`extract` of each of ``rows``, charged as one run: the
        rows are already materialised, so no charge comes between."""
        r3 = self._r3
        r3.clock.charge_each(r3.params.abap_extract_s, len(rows),
                             r3.metrics.counts, "abap.extracts")
        self.rows.extend(rows)
        self._sorted_keys = None

    def extend(self, rows: Iterable[tuple]) -> None:
        for row in rows:
            self.append(row)

    # -- sorting ---------------------------------------------------------------

    def sort(self, key_fn: Callable[[tuple], tuple] | None = None,
             via_disk: bool = True) -> None:
        """SORT: order the table; the extract-style sort spools to disk.

        ``via_disk=True`` reproduces the Figure 4 behaviour: the sorted
        dataset is written to secondary storage and re-read before the
        group loop.  The RDBMS never pays this for its own grouping.
        """
        r3 = self._r3
        count = len(self.rows)
        key_fn = key_fn or (lambda row: row)
        with r3.tracer.span("abap.sort", rows=count, via_disk=via_disk):
            if count > 1:
                r3.clock.charge(
                    r3.params.sort_cmp_s * count * math.log2(count))
            if via_disk and count:
                byte_count = count * self._row_bytes()
                r3.db.ctx.charge_spill(byte_count, "abap-sort")
                r3.metrics.count("abap.sort_spills")
            self.rows.sort(key=key_fn)
        self._key_fn = key_fn
        self._sorted_keys = [key_fn(row) for row in self.rows]

    def _row_bytes(self) -> int:
        if not self.rows:
            return FIELD_BYTES
        return len(self.rows[0]) * FIELD_BYTES

    # -- reading ------------------------------------------------------------------

    def loop(self) -> Iterator[tuple]:
        """LOOP AT itab: iterate, charging interpreter cost per row."""
        for row in self.rows:
            self._r3.charge_abap(1)
            yield row

    def read_binary(self, key: tuple) -> tuple | None:
        """READ TABLE ... BINARY SEARCH: first row whose sort key
        starts with ``key`` (table must be sorted by a prefix key)."""
        r3 = self._r3
        r3.charge_abap(1)
        if self._sorted_keys is None or self._key_fn is None:
            raise RuntimeError("read_binary requires a sorted table")
        pos = bisect.bisect_left(self._sorted_keys, key)
        if pos < len(self.rows):
            candidate = self._sorted_keys[pos]
            if candidate[: len(key)] == tuple(key):
                return self.rows[pos]
        return None

    def read_binary_all(self, key: tuple) -> list[tuple]:
        """All rows whose sort key starts with ``key``."""
        r3 = self._r3
        r3.charge_abap(1)
        if self._sorted_keys is None or self._key_fn is None:
            raise RuntimeError("read_binary_all requires a sorted table")
        pos = bisect.bisect_left(self._sorted_keys, tuple(key))
        out: list[tuple] = []
        while pos < len(self.rows) and \
                self._sorted_keys[pos][: len(key)] == tuple(key):
            out.append(self.rows[pos])
            pos += 1
        if out:
            r3.charge_abap(len(out) - 1)
        return out


def group_aggregate(
    r3,
    records: list[tuple],
    key_fn: Callable[[tuple], tuple],
    fold_fn: Callable[[tuple, list[tuple]], tuple],
) -> list[tuple]:
    """The complete Figure 4 idiom: EXTRACT → SORT (via disk) → LOOP
    with AT END, folding each group with ``fold_fn(key, rows)``.

    The LOOP charges each row before it reads the row's key (the SORT's
    keys), so when it reaches AT END of a group it has charged the next
    group's first row too: one run of charges a group, of the rows read
    since the last fold, before the fold (DESIGN.md §31)."""
    with r3.tracer.span("abap.group_aggregate") as span:
        itab = InternalTable(r3)
        itab.extract_each(records)
        itab.sort(key_fn)
        rows, keys = itab.rows, itab._sorted_keys
        assert keys is not None
        out: list[tuple] = []
        start = charged = 0
        for at in range(1, len(keys)):
            if keys[at] != keys[start]:
                r3.charge_abap_each(at + 1 - charged)
                charged = at + 1
                out.append(fold_fn(keys[start], rows[start:at]))
                start = at
        if rows:
            r3.charge_abap_each(len(rows) - charged)
            out.append(fold_fn(keys[start], rows[start:]))
        span.set(records=len(itab), groups=len(out))
    return out
