"""Named operation counters with scoped snapshots.

Every layer of the stack counts what it does (pages read, tuples
shipped, round trips, cache hits, ...).  Counters feed both the
simulated clock (via the calibration table) and the experiment reports
(e.g. hit ratios in the paper's Table 8).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator


class MetricsSnapshot:
    """Delta view of a :class:`MetricsCollector` since snapshot creation."""

    def __init__(self, collector: "MetricsCollector") -> None:
        self._collector = collector
        self._base = dict(collector.counts)

    def delta(self) -> dict[str, float]:
        """Counter deltas accumulated since the snapshot was taken,
        in name order (the order is part of every trace file).  A
        counter is never removed, so every name at the base is still
        current."""
        current = self._collector.counts
        out: dict[str, float] = {}
        for name in sorted(current):
            change = current[name] - self._base.get(name, 0)
            if change:
                out[name] = change
        return out

    def get(self, name: str) -> float:
        return self._collector.counts.get(name, 0) - self._base.get(name, 0)


class MetricsScope:
    """Context manager freezing the counter deltas over a ``with`` block.

    After exit, :attr:`delta` holds the per-counter changes accumulated
    inside the block.  The tracer uses one scope per span to attach
    counter deltas (round trips, pages, shipped tuples) to the span.
    """

    def __init__(self, collector: "MetricsCollector") -> None:
        self._collector = collector
        self._snapshot: MetricsSnapshot | None = None
        self.delta: dict[str, float] = {}

    def __enter__(self) -> "MetricsScope":
        self._snapshot = self._collector.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._snapshot is not None
        self.delta = self._snapshot.delta()

    def get(self, name: str) -> float:
        if self._snapshot is None:
            return 0
        return self._snapshot.get(name)


class MetricsCollector:
    """A bag of named, monotonically increasing counters.

    :attr:`counts` is the write surface: ``counts[name] += n`` is all
    that :meth:`count` does, and a loop that counts per tuple binds the
    mapping once and writes that statement inline instead of paying a
    call per increment.  The mapping object lives as long as the
    collector, and no counter is ever removed from it.  Read through
    :meth:`get`, :meth:`all`, a snapshot or iteration, never by
    subscript: a subscript read of a missing name would create it.
    """

    def __init__(self) -> None:
        self.counts: defaultdict[str, float] = defaultdict(int)

    def count(self, name: str, amount: float = 1) -> None:
        """Increase counter ``name`` by ``amount`` (default 1)."""
        self.counts[name] += amount

    def get(self, name: str) -> float:
        return self.counts.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        """Mark the current state; deltas are measured against it."""
        return MetricsSnapshot(self)

    def scoped(self) -> MetricsScope:
        """Scope counters over a ``with`` block (see :class:`MetricsScope`)."""
        return MetricsScope(self)

    def all(self) -> dict[str, float]:
        return dict(self.counts)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self.counts.items()))
