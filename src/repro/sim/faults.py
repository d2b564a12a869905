"""Deterministic fault injection.

The paper's operational numbers come from the real world — a
batch-input load that takes a month (Table 3) does not run on 1996
hardware without disk hiccups, dropped connections and crashed work
processes.  This module injects exactly those three fault classes into
the simulator, **deterministically**: faults are scheduled from the
operation counts and the simulated clock that the components already
maintain, plus a seeded PRNG for interval jitter.  Same seed + same
workload ⇒ bit-identical fault sequence, clocks and metrics.

Fault classes (exception types live in :mod:`repro.engine.errors` /
:mod:`repro.r3.errors`):

* ``DiskIOError`` — transient page-transfer failure; the
  :class:`~repro.sim.disk.DiskModel` retries it on the spot.
* ``ConnectionLostError`` — the app-server/DB connection drops at a
  round-trip boundary; :class:`~repro.r3.dbif.DatabaseInterface`
  retries with exponential backoff.
* ``WorkProcessCrash`` — the work process dies at a transaction
  boundary; batch input rolls back to its last checkpoint and the
  caller resumes from the journal.

A :class:`FaultProfile` is declarative ("a connection drop every ~N
round trips", "a crash at T simulated seconds"); the
:class:`FaultInjector` turns it into raised exceptions at the
instrumented hook points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import UsageError
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector


@dataclass(frozen=True)
class FaultProfile:
    """A declarative fault schedule.

    ``*_every`` values are mean operation-count intervals; ``jitter``
    spreads each actual interval uniformly within ``±jitter`` of the
    mean using the seeded PRNG (0 ⇒ exact periods).  ``None`` disables
    a fault class entirely.
    """

    name: str = "none"
    seed: int = 0
    #: transient disk I/O error every ~N physical page transfers
    disk_error_every: int | None = None
    #: connection drop every ~N DBIF round trips
    connection_drop_every: int | None = None
    #: consecutive round-trip failures per connection fault (a burst
    #: longer than the DBIF retry budget exhausts the retry loop)
    connection_drop_burst: int = 1
    #: work-process crashes at these absolute simulated times (seconds)
    crash_at_s: tuple[float, ...] = ()
    #: work-process crash every ~N dispatched requests (pool workers)
    work_process_crash_every: int | None = None
    #: kill the whole engine at the Nth durability boundary (WAL
    #: append/flush/fsync or checkpoint begin/page/end); None disables.
    #: Crash-point fuzzing sweeps this index across every boundary.
    crash_at_durability_op: int | None = None
    #: probability that the frame in flight when the engine crashes is
    #: left truncated (torn) on the durable log tail
    torn_write_prob: float = 0.0
    #: relative interval spread, 0.0..0.9
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter < 1.0:
            raise UsageError(f"jitter must be in [0, 1): {self.jitter}")
        if self.connection_drop_burst < 1:
            raise UsageError("connection_drop_burst must be >= 1")
        if not 0.0 <= self.torn_write_prob <= 1.0:
            raise UsageError(
                f"torn_write_prob must be in [0, 1]: {self.torn_write_prob}"
            )
        if self.crash_at_durability_op is not None \
                and self.crash_at_durability_op < 1:
            raise UsageError("crash_at_durability_op must be >= 1")


#: the three standard profiles used by the robustness benchmark
PROFILE_NONE = FaultProfile(name="none")
PROFILE_LIGHT = FaultProfile(
    name="light", seed=1996,
    disk_error_every=25_000, connection_drop_every=8_000, jitter=0.25,
)
PROFILE_HEAVY = FaultProfile(
    name="heavy", seed=1996,
    disk_error_every=5_000, connection_drop_every=1_500, jitter=0.25,
)


class FaultInjector:
    """Raises scheduled faults from component hook points.

    Components call the ``on_*``/``maybe_*`` hooks at well-defined
    operation boundaries; the injector counts the operations and raises
    the scheduled exception when a fault comes due.  All scheduling
    state derives from the profile's seed and the hook call sequence —
    no wall clock, no global randomness.
    """

    def __init__(self, profile: FaultProfile, clock: SimulatedClock,
                 metrics: MetricsCollector) -> None:
        self.profile = profile
        self._clock = clock
        self._metrics = metrics
        self._rng = random.Random(profile.seed)
        self.disk_ops = 0
        self.roundtrips = 0
        self.wp_requests = 0
        self.durability_ops = 0
        #: boundary kind of the most recent durability hook call
        self.last_durability_kind = ""
        #: how often each boundary kind fired (crash-fuzz census)
        self.durability_kinds: dict[str, int] = {}
        self._next_disk_fault = self._next_after(0, profile.disk_error_every)
        self._next_conn_fault = self._next_after(
            0, profile.connection_drop_every)
        self._next_wp_crash = self._next_after(
            0, profile.work_process_crash_every)
        self._conn_burst_left = 0
        self._crashes = sorted(profile.crash_at_s)
        self._crash_index = 0

    # -- schedule arithmetic -------------------------------------------------

    def _next_after(self, count: int, every: int | None) -> int | None:
        """Operation count at which the next fault of a class fires."""
        if every is None:
            return None
        if self.profile.jitter:
            spread = int(every * self.profile.jitter)
            every = every + self._rng.randint(-spread, spread)
        return count + max(1, every)

    # -- hook points ---------------------------------------------------------

    def on_disk_op(self) -> None:
        """Called by the disk model once per attempted page transfer."""
        self.disk_ops += 1
        if self._next_disk_fault is None \
                or self.disk_ops < self._next_disk_fault:
            return
        self._next_disk_fault = self._next_after(
            self.disk_ops, self.profile.disk_error_every)
        self._metrics.count("faults.disk_io_injected")
        from repro.engine.errors import DiskIOError
        raise DiskIOError(
            f"injected disk I/O error at op {self.disk_ops} "
            f"(profile {self.profile.name!r})"
        )

    def on_roundtrip(self) -> None:
        """Called by the DBIF once per attempted round trip."""
        self.roundtrips += 1
        if self._conn_burst_left > 0:
            self._conn_burst_left -= 1
            self._metrics.count("faults.connection_drops_injected")
            from repro.engine.errors import ConnectionLostError
            raise ConnectionLostError(
                f"injected connection drop (burst) at round trip "
                f"{self.roundtrips} (profile {self.profile.name!r})"
            )
        if self._next_conn_fault is None \
                or self.roundtrips < self._next_conn_fault:
            return
        self._conn_burst_left = self.profile.connection_drop_burst - 1
        # The burst is one fault event; the next period starts after it.
        self._next_conn_fault = self._next_after(
            self.roundtrips + self._conn_burst_left,
            self.profile.connection_drop_every)
        self._metrics.count("faults.connection_drops_injected")
        from repro.engine.errors import ConnectionLostError
        raise ConnectionLostError(
            f"injected connection drop at round trip {self.roundtrips} "
            f"(profile {self.profile.name!r})"
        )

    def on_wp_request(self) -> None:
        """Called by the dispatcher once per request rolled into a
        work process (at the transaction boundary, before any work, so
        a crashed request can be requeued idempotently)."""
        self.wp_requests += 1
        if self._next_wp_crash is None \
                or self.wp_requests < self._next_wp_crash:
            return
        self._next_wp_crash = self._next_after(
            self.wp_requests, self.profile.work_process_crash_every)
        self._metrics.count("faults.crashes_injected")
        from repro.r3.errors import WorkProcessCrash
        raise WorkProcessCrash(
            f"injected work-process crash at request {self.wp_requests} "
            f"(profile {self.profile.name!r})"
        )

    def on_durability_op(self, kind: str) -> None:
        """Called by the WAL at every durability boundary.

        ``kind`` names the boundary (``wal.append``, ``wal.flush``,
        ``wal.fsync``, ``checkpoint.begin``, ``checkpoint.page``,
        ``checkpoint.end``).  When the profile arms
        ``crash_at_durability_op``, the Nth call kills the engine with
        a :class:`~repro.engine.errors.SimulatedCrash` — exactly once,
        so post-crash cleanup paths do not re-crash.
        """
        self.durability_ops += 1
        self.last_durability_kind = kind
        self.durability_kinds[kind] = \
            self.durability_kinds.get(kind, 0) + 1
        target = self.profile.crash_at_durability_op
        if target is None or self.durability_ops != target:
            return
        self._metrics.count("faults.engine_crashes_injected")
        from repro.engine.errors import SimulatedCrash
        raise SimulatedCrash(
            f"injected engine crash at durability op {self.durability_ops} "
            f"({kind}, profile {self.profile.name!r})"
        )

    def torn_write_bytes(self, frame: bytes) -> bytes | None:
        """The truncated prefix a crashed flush leaves on disk, if any.

        Consulted by the WAL after an injected engine crash interrupted
        a frame write.  Returns ``None`` for a clean cut (the frame
        never reached the platter) or a strict prefix of ``frame`` for
        a torn write, per the profile's ``torn_write_prob`` and the
        seeded PRNG.
        """
        if self.profile.torn_write_prob <= 0.0 or len(frame) < 2:
            return None
        if self._rng.random() >= self.profile.torn_write_prob:
            return None
        cut = self._rng.randint(1, len(frame) - 1)
        self._metrics.count("faults.torn_writes_injected")
        return frame[:cut]

    def maybe_crash(self) -> None:
        """Called at work-process transaction boundaries.

        Fires once per scheduled crash time, as soon as the simulated
        clock has passed it.
        """
        if self._crash_index >= len(self._crashes):
            return
        if self._clock.now < self._crashes[self._crash_index]:
            return
        due = self._crashes[self._crash_index]
        self._crash_index += 1
        self._metrics.count("faults.crashes_injected")
        from repro.r3.errors import WorkProcessCrash
        raise WorkProcessCrash(
            f"injected work-process crash scheduled at "
            f"{due:.1f}s simulated (now {self._clock.now:.1f}s, "
            f"profile {self.profile.name!r})"
        )
