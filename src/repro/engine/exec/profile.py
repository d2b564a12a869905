"""EXPLAIN ANALYZE-style per-operator execution profiling.

``attach_profile`` instruments a physical operator tree in place: each
operator's ``rows()`` is shadowed by a wrapper that accounts, per
``next()`` pull, the inclusive simulated seconds, rows produced, and
pages read (from the disk counters); its ``materialize()`` is shadowed
by the base drain through that wrapper, so a scan under a hash build
keeps its entry.  Parent measurements naturally
include child work — exclusive time falls out as inclusive minus the
children's inclusive.

A prepared statement's profile accumulates across its executions,
which is exactly what a cursor cache needs: a nested SELECT loop
re-executes one plan thousands of times, and the aggregate profile
shows the total cost of each operator over the whole loop.  A plan
that ``Database.execute`` reuses gets a new profile each execution,
as a fresh plan would (DESIGN.md §29).

The wrapper only *reads* the clock and the metrics — it never charges
— so profiling changes simulated durations by zero ticks.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Sequence

from repro.engine.exec.base import Operator
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector

_PAGE_COUNTERS = ("disk.seq_reads", "disk.random_reads")


class OperatorProfile:
    """Accumulated execution statistics for one plan operator."""

    __slots__ = ("label", "loops", "rows_out", "pages_read",
                 "inclusive_s", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        #: times the operator was opened (executions of the plan, or
        #: rescans when a parent re-opens its input)
        self.loops = 0
        self.rows_out = 0
        #: pages read while this operator (incl. children) was pulling
        self.pages_read = 0.0
        #: simulated seconds spent inside this operator incl. children
        self.inclusive_s = 0.0
        self.children: list[OperatorProfile] = []

    @property
    def rows_in(self) -> int:
        """Rows delivered by the child operators (0 for leaf scans)."""
        return sum(child.rows_out for child in self.children)

    @property
    def exclusive_s(self) -> float:
        return self.inclusive_s - sum(c.inclusive_s for c in self.children)

    def walk(self) -> Iterator["OperatorProfile"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "operator": self.label,
            "loops": self.loops,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "pages_read": self.pages_read,
            "inclusive_s": self.inclusive_s,
            "exclusive_s": self.exclusive_s,
            "children": [child.to_dict() for child in self.children],
        }


def _pages(metrics: MetricsCollector) -> float:
    return sum(metrics.get(name) for name in _PAGE_COUNTERS)


def attach_profile(root: Operator, clock: SimulatedClock,
                   metrics: MetricsCollector) -> OperatorProfile:
    """Instrument ``root`` (idempotently) and return its profile tree."""
    existing = getattr(root, "_profile", None)
    if existing is not None:
        return existing

    def wrap(op: Operator) -> OperatorProfile:
        profile = OperatorProfile(op.describe())
        original_rows = op.rows

        def rows(params: Sequence[object],
                 _orig=original_rows, _prof=profile) -> Iterator[tuple]:
            _prof.loops += 1
            source = _orig(params)
            while True:
                t0 = clock.now
                p0 = _pages(metrics)
                try:
                    row = next(source)
                except StopIteration:
                    _prof.inclusive_s += clock.now - t0
                    _prof.pages_read += _pages(metrics) - p0
                    return
                except BaseException:
                    # Deadline/timeout fired mid-pull: keep the
                    # partial charge visible in the profile.
                    _prof.inclusive_s += clock.now - t0
                    _prof.pages_read += _pages(metrics) - p0
                    raise
                _prof.inclusive_s += clock.now - t0
                _prof.pages_read += _pages(metrics) - p0
                _prof.rows_out += 1
                yield row

        op.rows = rows  # type: ignore[method-assign]
        # a drain that bypassed ``rows`` would drop the operator from
        # the profile: pin it to the row path while instrumented
        op.materialize = partial(  # type: ignore[method-assign]
            Operator.materialize, op)
        op._profile = profile  # type: ignore[attr-defined]
        for child in op.child_operators():
            profile.children.append(wrap(child))
        return profile

    return wrap(root)


def detach_profile(root: Operator) -> None:
    """Remove instrumentation installed by :func:`attach_profile`."""
    def unwrap(op: Operator) -> None:
        if getattr(op, "_profile", None) is not None:
            del op.rows  # restore the class-level methods
            del op.materialize
            del op._profile
        for child in op.child_operators():
            unwrap(child)

    unwrap(root)
