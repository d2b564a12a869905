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
switch.  The same float additions in the same order give the
same bits whenever they are made.

A run of equal additions is made in closed form where that gives the
loop's bits (DESIGN.md §31): inside one binade — the floats between two
neighbouring powers of two, all one ulp apart — each addition of the
same step adds the same multiple of the ulp once a tie has settled on
even, so after three real additions the rest is one exact product.
"""

from __future__ import annotations

from math import frexp, ldexp
from typing import Callable

from repro.sim.metrics import MetricsCollector

#: the smallest normal float: below it, zero and the subnormals are all
#: one spacing apart, so they count as one binade
_TINY = 2.2250738585072014e-308


def _binade(x: float) -> tuple[float, float]:
    """``[low, high)``: the binade holding ``x`` (``x`` >= 0)."""
    if x < _TINY:
        return 0.0, _TINY
    low = ldexp(0.5, frexp(x)[1])
    return low, low * 2.0  # inf above the largest binade, no raise


class RunAdder:
    """Makes runs of equal float additions; keeps the binade ``[low,
    high)`` the last run ended in (none yet), so that the next run
    inside it makes no call — a hot caller can test it inline."""

    __slots__ = ("low", "high")

    def __init__(self) -> None:
        self.low = self.high = 0.0

    def add_each(self, total: float, seconds: float, n: int) -> float:
        """``total`` after ``n`` additions of ``seconds`` (>= 0), one by
        one: the loop's bits, in closed form where it is exact
        (DESIGN.md §31).  Three real additions settle a tie on even; if
        the first of them and the run's end lie in one binade, every
        later addition adds the third's step, and ``n`` steps are one
        exact product.  A run that leaves the binade is cut at its last
        addition inside it, and the rest goes on in the next one."""
        while n > 3:
            t1 = total + seconds
            t2 = t1 + seconds
            total = t2 + seconds
            n -= 3
            step = total - t2
            end = total + n * step
            if self.low <= t1 and end < self.high:
                return end
            if not (self.low <= t1 and total < self.high):
                self.low, self.high = _binade(total)
                continue
            # step > 0: the end is not inside; stop one step short of
            # the top (the quotient may round up to the next integer)
            inside = int((self.high - total) / step) - 1
            if inside > 0:
                total += inside * step
                n -= inside
        while n > 0:
            total += seconds
            n -= 1
        return total


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
        #: makes the runs of equal additions onto the clock
        self._runs = RunAdder()

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
        self._metrics = metrics
        self._counts = metrics.counts
        self._unit_name = name
        self._unit_s = seconds
        self._settled = self._counts.get(name, 0)

    def charge_units(self, count: int) -> None:
        """Count and charge ``count`` bound units in **one** addition:
        the product differs from ``count`` additions in the last bits,
        and a site that has always charged a batch keeps its bits."""
        if self._metrics is None:
            raise ValueError("no unit charge is bound to the clock")
        self.charge(self._unit_s * count)
        self._counts[self._unit_name] += count
        self._settled += count

    @property
    def deadline_armed(self) -> bool:
        """True while a ``charge`` can fire a deadline: one is armed
        and charges reach global time."""
        return bool(self._deadlines) and self._sink is None

    def charge_each(self, seconds: float, n: int,
                    counts: dict[str, float] | None = None,
                    name: str = "") -> None:
        """``n`` calls of ``charge(seconds)`` in one: the same ``n``
        additions, in the same order, onto the same value.  With
        ``counts``, each call is followed by ``counts[name] += 1``: one
        add of ``n``.  While a deadline is armed they *are* ``n`` calls
        of ``charge``: it fires at the one that crosses it, the rest are
        not made, and only the calls before it are counted."""
        if n < 0:
            raise ValueError(f"cannot charge a negative run: {n}")
        if self.deadline_armed:
            for _ in range(n):
                self.charge(seconds)
                if counts is not None:
                    counts[name] += 1
            return
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        if self._counts.get(self._unit_name, 0) != self._settled:
            self._settle()
        sink = self._sink
        add_each = self._runs.add_each
        if sink is None:
            self._now = add_each(self._now, seconds, n)
        else:
            sink.seconds = add_each(sink.seconds, seconds, n)
        if counts is not None and n:
            counts[name] += n

    def _settle(self) -> None:
        """Replay the unit charges counted since the last settle: one
        addition each, onto what ``charge`` would add to right now —
        what an eager ``charge`` per unit would have done.  Never
        ``sum()`` (compensated since CPython 3.12), and a product only
        where it is exact: the run's last additions are one, inside the
        binade the run stays in (:meth:`RunAdder.add_each`).  The common
        case — a run inside the cached binade — makes no call."""
        # ``.get``: a read must not create the counter
        counted = self._counts.get(self._unit_name, 0)
        n = counted - self._settled
        unit_s, sink = self._unit_s, self._sink
        total = self._now if sink is None else sink.seconds
        if n > 3:
            # ``RunAdder.add_each``'s first step, inline
            runs = self._runs
            t1 = total + unit_s
            t2 = t1 + unit_s
            total = t2 + unit_s
            end = total + (n - 3) * (total - t2)
            if runs.low <= t1 and end < runs.high:
                total = end
            else:
                total = runs.add_each(total, unit_s, n - 3)
        else:
            while n > 0:
                total += unit_s
                n -= 1
        if sink is None:
            self._now = total
        else:
            sink.seconds = total
        self._settled = counted

    def redirect(self, sink: LaneSink) -> _Redirect:
        """Redirect subsequent charges into ``sink`` (context manager)."""
        return _Redirect(self, sink)

    def span(self) -> ClockSpan:
        """Open a measurement window (usable as a context manager)."""
        return ClockSpan(self)

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
