"""Deterministic simulated clock.

All performance-relevant components charge costs (in simulated seconds)
to a shared :class:`SimulatedClock`.  The clock supports nested *spans*
so a harness can measure the simulated duration of a query while the
same clock keeps accumulating globally.

For parallel execution the clock additionally supports *charge
redirection*: while a :class:`LaneSink` is installed (via
:meth:`SimulatedClock.redirect`), every ``charge`` accumulates into the
sink instead of advancing global time, and ``now`` reads as global time
plus the sink's accumulation — i.e. time becomes lane-local.  The
parallel executor runs each worker lane under its own sink and then
advances the global clock by ``max(lane totals)`` at the barrier, which
is what makes a fragment's elapsed time the slowest lane's time instead
of the sum.

One cost is charged lazily.  Every tuple the executor touches costs the
same constant, so it only *counts* tuples, on a metrics counter the
clock is bound to (:meth:`SimulatedClock.bind_unit_charge`), and the
clock replays the counted additions one by one before anything can
observe or interleave with them: a ``charge``, a read of ``now``, a lane
switch, a reset.  The same float additions in the same order give the
same bits whenever they are made.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.metrics import MetricsCollector


class LaneSink:
    """Accumulator for one worker lane's simulated seconds."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


class _Redirect:
    """Context manager installing a :class:`LaneSink` on the clock."""

    __slots__ = ("_clock", "_sink")

    def __init__(self, clock: "SimulatedClock", sink: LaneSink) -> None:
        self._clock = clock
        self._sink = sink

    def __enter__(self) -> LaneSink:
        if self._clock._sink is not None:
            raise RuntimeError("clock charges are already redirected "
                               "(worker lanes do not nest)")
        self._clock._settle()  # counted before the lane: global time
        self._clock._sink = self._sink
        return self._sink

    def __exit__(self, *exc_info: object) -> None:
        self._clock._settle()  # counted inside the lane: its sink
        self._clock._sink = None


class ClockSpan:
    """A window over the clock; ``elapsed`` is time charged since entry."""

    def __init__(self, clock: "SimulatedClock") -> None:
        self._clock = clock
        self._start = clock.now
        self._end: float | None = None

    def stop(self) -> float:
        """Freeze the span and return the elapsed simulated seconds."""
        if self._end is None:
            self._end = self._clock.now
        return self.elapsed

    @property
    def elapsed(self) -> float:
        end = self._end if self._end is not None else self._clock.now
        return end - self._start

    def __enter__(self) -> "ClockSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class SimulatedClock:
    """Accumulates simulated seconds charged by components.

    The clock is purely additive and deterministic: identical operation
    sequences always produce identical readings.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sink: LaneSink | None = None
        self._deadlines: dict[int, tuple[float, Callable[[], Exception]]] = {}
        self._next_deadline_token = 0
        #: the lazily replayed charge: ``_settled`` of the units counted
        #: in ``_counts[_unit_name]`` are on the clock (unbound: none)
        self._metrics: MetricsCollector | None = None
        self._counts: dict[str, float] = {}
        self._unit_name = ""
        self._unit_s = 0.0
        self._settled = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds since clock creation.

        While charges are redirected into a lane sink this reads as
        *lane-local* time (global time plus the lane's accumulation),
        so spans and profiles opened inside a lane measure the lane's
        own progress.  Never raises: reading settles pending unit
        charges, but a deadline only fires from ``charge``.
        """
        if self._counts.get(self._unit_name, 0) != self._settled:
            self._settle()
        if self._sink is not None:
            return self._now + self._sink.seconds
        return self._now

    @property
    def redirected(self) -> bool:
        """True while a lane sink is installed."""
        return self._sink is not None

    def charge(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` of simulated work.

        If the advance crosses an armed deadline, the deadline fires:
        its entry is removed and its exception raised.  The charge
        itself still lands first, so the caller sees the *partial*
        simulated cost accrued up to the abort — exactly how a timed-out
        query shows up in the power-test reports.

        While redirected, the charge lands in the lane sink and global
        time does not move; armed deadlines are only evaluated against
        global time, so they fire at the fragment barrier (when the
        lanes' max is charged for real), not inside a lane.

        Pending unit charges are settled first, and settling checks no
        deadline: one crossed by unit charges alone fires here, at the
        next charge of any other kind (in a scan, the next page access
        at the latest), late by at most the pending units' cost.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        if self._counts.get(self._unit_name, 0) != self._settled:
            self._settle()
        if self._sink is not None:
            self._sink.seconds += seconds
            return
        self._now += seconds
        if self._deadlines:
            self._check_deadlines()

    def bind_unit_charge(self, metrics: MetricsCollector, name: str,
                         seconds: float) -> None:
        """Make counter ``name`` of ``metrics`` a ledger of unit charges.

        Every later increment is ``seconds`` of work the clock has yet
        to add: a hot loop charges a unit with ``counts[name] += 1`` and
        nothing else.  Binding again settles the previous binding first.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._settle()
        if self._metrics is not None:
            self._metrics.before_reset.remove(self._rebase)
        metrics.before_reset.append(self._rebase)
        self._metrics = metrics
        self._counts = metrics.counts
        self._unit_name = name
        self._unit_s = seconds
        self._settled = self._counts.get(name, 0)

    def charge_units(self, count: int) -> None:
        """Count and charge ``count`` bound units in **one** addition:
        the product differs from ``count`` additions in the last bits,
        and a site that has always charged a batch keeps its bits."""
        self.charge(self._unit_s * count)
        self._counts[self._unit_name] += count
        self._settled += count

    def _settle(self) -> None:
        """Replay the unit charges counted since the last settle: one
        addition each, onto what ``charge`` would add to right now —
        what an eager ``charge`` per unit would have done.  Never
        ``pending * unit``, never ``sum()`` (compensated since CPython
        3.12): either changes the bits."""
        # ``.get``: a read must not create the counter
        counted = self._counts.get(self._unit_name, 0)
        unit_s, sink = self._unit_s, self._sink
        total = self._now if sink is None else sink.seconds
        for _ in range(counted - self._settled):
            total += unit_s
        if sink is None:
            self._now = total
        else:
            sink.seconds = total
        self._settled = counted

    def _rebase(self) -> None:
        """The bound counters are about to be emptied: what is pending
        is work done, so it is settled, not dropped."""
        self._settle()
        self._settled = 0

    def redirect(self, sink: LaneSink) -> _Redirect:
        """Redirect subsequent charges into ``sink`` (context manager)."""
        return _Redirect(self, sink)

    def span(self) -> ClockSpan:
        """Open a measurement window (usable as a context manager)."""
        return ClockSpan(self)

    def reset(self) -> None:
        """Rewind to zero.  Only meant for harness setup, not mid-run.
        Pending unit charges are settled first: they go with the time
        they belong to instead of landing after it."""
        self._settle()
        self._now = 0.0
        self._sink = None
        self._deadlines.clear()

    # -- deadlines (statement/query timeouts) --------------------------------

    def push_deadline(self, at: float,
                      exc_factory: Callable[[], Exception]) -> int:
        """Arm a deadline at absolute simulated time ``at``.

        Returns a token for :meth:`pop_deadline`.  When a ``charge``
        crosses ``at``, ``exc_factory()`` is raised from inside the
        charging call — aborting whatever simulated work was in flight,
        wherever in the stack it happened.  Deadlines nest; the earliest
        armed one fires first; one crossed by lazily replayed unit
        charges alone fires late, see :meth:`charge`.
        """
        token = self._next_deadline_token
        self._next_deadline_token += 1
        self._deadlines[token] = (at, exc_factory)
        return token

    def pop_deadline(self, token: int) -> None:
        """Disarm a deadline; a no-op if it already fired."""
        self._deadlines.pop(token, None)

    def _check_deadlines(self) -> None:
        expired = [
            (at, token) for token, (at, _) in self._deadlines.items()
            if self._now >= at
        ]
        if not expired:
            return
        expired.sort()
        _, token = expired[0]
        _, factory = self._deadlines.pop(token)
        raise factory()


def format_duration(seconds: float) -> str:
    """Render simulated seconds the way the paper prints durations.

    The paper uses ``25d 19h 55m``, ``2h 14m 56s``, ``5m 17s``, ``34s``
    style strings; we mirror that so benchmark output lines up visually
    with the published tables.
    """
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    total = int(round(seconds))
    days, rem = divmod(total, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    if days:
        return f"{days}d {hours}h {minutes:02d}m"
    if hours:
        return f"{hours}h {minutes:02d}m {secs:02d}s"
    if minutes:
        return f"{minutes}m {secs:02d}s"
    return f"{secs}s"
