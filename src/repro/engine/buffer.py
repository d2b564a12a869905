"""Buffer pool with LRU replacement.

Every page touch in the engine flows through here.  Hits charge a tiny
CPU cost; misses charge the disk model (sequential or random, as
declared by the caller).  The pool's capacity defaults to the paper's
SAP-default 10 MB.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector


class BufferPool:
    """LRU page cache keyed by ``(file_name, page_no)``."""

    def __init__(
        self,
        capacity_pages: int,
        disk: DiskModel,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        hit_cpu_s: float,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one page")
        self.capacity_pages = capacity_pages
        self._disk = disk
        self._clock = clock
        self._counts = metrics.counts
        self._hit_cpu_s = hit_cpu_s
        self._pages: OrderedDict[tuple[str, int], None] = OrderedDict()

    def access(self, file_name: str, page_no: int, sequential: bool) -> bool:
        """Touch a page; returns True on hit.  Misses charge the disk."""
        key = (file_name, page_no)
        if key in self._pages:
            self._pages.move_to_end(key)
            self._counts["buffer.hits"] += 1
            self._clock.charge(self._hit_cpu_s)
            return True
        self._counts["buffer.misses"] += 1
        self._disk.read_page(sequential)
        self._pages[key] = None
        if len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)
        return False

    def hit_again(self, n: int) -> None:
        """``n`` more accesses of the page the last :meth:`access`
        touched, nothing touched in between: certain hits on the most
        recently used page, which no LRU move can change — the hits
        counted and one clock addition each (DESIGN.md §24)."""
        self._counts["buffer.hits"] += n
        self._clock.charge_each(self._hit_cpu_s, n)

    def write(self, file_name: str, page_no: int,
              fresh: bool = False) -> None:
        """Dirty-page write-through (simplified: charge immediately).

        ``fresh`` marks newly allocated pages (spill runs, bulk-load
        extents): they are installed without the read-modify-write a
        non-resident existing page would need.
        """
        key = (file_name, page_no)
        if key not in self._pages:
            if fresh:
                self._pages[key] = None
                if len(self._pages) > self.capacity_pages:
                    self._pages.popitem(last=False)
            else:
                self.access(file_name, page_no, sequential=False)
        self._disk.write_page()

    def invalidate_file(self, file_name: str) -> None:
        """Drop all cached pages of one file (e.g. after reorganisation)."""
        stale = [key for key in self._pages if key[0] == file_name]
        for key in stale:
            del self._pages[key]

    def clear(self) -> None:
        self._pages.clear()

    def resize(self, capacity_pages: int) -> None:
        """Change the pool size (evicting LRU pages if shrinking)."""
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one page")
        self.capacity_pages = capacity_pages
        while len(self._pages) > capacity_pages:
            self._pages.popitem(last=False)

    @property
    def resident_pages(self) -> int:
        return len(self._pages)
