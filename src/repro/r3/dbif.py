"""The ABAP/4 database interface layer.

Every call from the application server to the RDBMS crosses this
interface (paper Figure 2).  The interface charges a round-trip per
call plus per-tuple/per-byte shipping for results — the costs that
dominate nested SELECT loops in 2.2-era Open SQL reports.

Open SQL statements arrive here already translated into parameterized
SQL; the interface keeps a cursor cache so re-executing the same
statement text reuses the prepared plan (cursor REOPEN), which is also
why the RDBMS optimizer never sees Open SQL literals.

Robustness: when the R/3 system has a fault injector attached, a round
trip may fail with a ``ConnectionLostError``.  The interface then
reconnects and retries with exponential backoff — every backoff second
is charged to the simulated clock (it is real elapsed time for the
user) and counted in the metrics.  Only after ``dbif_max_retries``
consecutive failures does the loss propagate, chained to the injected
fault.  A per-statement timeout (``statement_timeout_s``) arms a clock
deadline around execution and raises ``StatementTimeout`` with the
partial cost already charged.

A :class:`CircuitBreaker` guards the whole interface: when several
consecutive calls still fail *after* the retry ladder (a fault storm —
the backend is down, not hiccuping), the breaker opens and every
subsequent call fails fast with :class:`CircuitOpenError` instead of
walking one caller after another through the full backoff sequence
into the same dead backend.  After a cooldown of simulated time the
breaker half-opens and lets a probe through; a successful probe closes
it again.  On the happy path the breaker costs zero simulated ticks.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Sequence

from repro.engine.database import PreparedStatement, Result
from repro.engine.errors import (
    CircuitOpenError,
    ConnectionLostError,
    StatementTimeout,
    TransientError,
)


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed → open → half-open state machine over DBIF calls.

    *Closed*: calls flow; ``failure_threshold`` consecutive post-retry
    failures open the breaker.  *Open*: calls raise
    :class:`CircuitOpenError` immediately (no round trip, no backoff)
    until ``cooldown_s`` simulated seconds have passed.  *Half-open*:
    calls are let through as probes; ``halfopen_probes`` consecutive
    successes close the breaker, any failure reopens it with a fresh
    cooldown.  Statement timeouts are **not** failures — a slow query
    says nothing about the backend being down.

    Transitions count ``dbif.breaker.*`` metrics and emit a
    ``dbif.breaker`` trace span so a trace shows exactly when the
    breaker flipped relative to the workload.
    """

    def __init__(self, clock, metrics, tracer=None,
                 failure_threshold: int = 3, cooldown_s: float = 30.0,
                 halfopen_probes: int = 1) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1: {failure_threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0: {cooldown_s}")
        if halfopen_probes < 1:
            raise ValueError(
                f"halfopen_probes must be >= 1: {halfopen_probes}")
        self._clock = clock
        self._metrics = metrics
        self._tracer = tracer
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.halfopen_probes = halfopen_probes
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_count = 0
        self._open_until = 0.0
        self._probe_successes = 0

    # -- call protocol -------------------------------------------------------

    def before_call(self) -> None:
        """Gate a DBIF call; raises ``CircuitOpenError`` while open."""
        if self.state is BreakerState.CLOSED:
            return
        if self.state is BreakerState.OPEN:
            if self._clock.now >= self._open_until:
                self._transition(BreakerState.HALF_OPEN,
                                 "cooldown elapsed")
                self._probe_successes = 0
                return
            self._metrics.count("dbif.breaker.fast_fails")
            raise CircuitOpenError(
                f"circuit open for another "
                f"{self._open_until - self._clock.now:.3f}s (simulated); "
                f"call shed without a round trip")
        # HALF_OPEN: let the probe through.

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.halfopen_probes:
                self._transition(BreakerState.CLOSED,
                                 f"{self._probe_successes} probe(s) "
                                 f"succeeded")
                self.consecutive_failures = 0
        elif self.state is BreakerState.CLOSED:
            self.consecutive_failures = 0

    def record_failure(self) -> None:
        self._metrics.count("dbif.breaker.failures")
        if self.state is BreakerState.HALF_OPEN:
            self._open(reason="half-open probe failed")
        elif self.state is BreakerState.CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.failure_threshold:
                self._open(reason=f"{self.consecutive_failures} "
                                  f"consecutive failures")

    # -- transitions ---------------------------------------------------------

    def _open(self, reason: str) -> None:
        self._open_until = self._clock.now + self.cooldown_s
        self.opened_count += 1
        self._transition(BreakerState.OPEN, reason)

    def _transition(self, new: BreakerState, reason: str) -> None:
        old = self.state
        self.state = new
        self._metrics.count(f"dbif.breaker.{new.value}")
        if self._tracer is not None:
            with self._tracer.span("dbif.breaker",
                                   transition=f"{old.value}->{new.value}",
                                   reason=reason):
                pass


class DatabaseInterface:
    def __init__(self, r3) -> None:
        self._r3 = r3
        self._cursor_cache: dict[str, PreparedStatement] = {}
        #: global switch (ablation A2 turns cursor caching off)
        self.cache_enabled = True
        #: simulated-seconds budget per statement (None = no timeout)
        self.statement_timeout_s: float | None = None
        self.breaker = self._closed_breaker()

    def _closed_breaker(self) -> CircuitBreaker:
        r3 = self._r3
        return CircuitBreaker(
            r3.clock, r3.metrics, tracer=r3.tracer,
            failure_threshold=r3.params.breaker_failure_threshold,
            cooldown_s=r3.params.breaker_cooldown_s,
            halfopen_probes=r3.params.breaker_halfopen_probes)

    def execute_param(self, sql: str,
                      params: Sequence[object] = ()) -> Result:
        """Round trip with a parameterized statement (plan cached): the
        path of Open SQL and of cluster/pool physical reads."""
        return self._call("param", sql, params, self._cursor)

    def execute_literal(self, sql: str) -> Result:
        """Round trip with literal SQL (Native SQL / EXEC SQL): charged
        as planned fresh, literals visible to the optimizer; the engine
        re-plans the text only when what its plan read has changed
        (DESIGN.md §29)."""
        return self._call(
            "literal", sql, (),
            lambda sql: (None, partial(self._r3.db.execute, sql)))

    def _call(self, mode: str, sql: str, params: Sequence[object],
              obtain: Callable[[str], tuple]) -> Result:
        """One call across the interface, in a ``dbif.call`` span while
        traced, in the ``dbif`` layer while only monitored, bare while
        nobody reads it (DESIGN.md §34)."""
        tracer = self._r3.tracer
        if tracer.enabled:
            with tracer.span("dbif.call", layer="dbif", mode=mode,
                             sql=sql) as span:
                result, attempts = self._cross(sql, params, obtain, span)
                span.set(rows=len(result.rows), roundtrips=attempts)
                return result
        if tracer.monitored:
            with tracer.layer("dbif"):
                return self._cross(sql, params, obtain)[0]
        return self._cross(sql, params, obtain)[0]

    def _cross(self, sql: str, params: Sequence[object],
               obtain: Callable[[str], tuple], span=None
               ) -> tuple[Result, int]:
        """The call's work and its round trips.  ``obtain(sql)`` is paid
        for after the round trip and outside the statement deadline; it
        returns how it found the cursor (noted on ``span``, if any) and
        what executes the statement with ``params``."""
        r3 = self._r3
        monitor = r3.monitor
        started_at = r3.clock.now if monitor.enabled else 0.0
        self.breaker.before_call()
        try:
            attempts = self._roundtrip()
            cursor, execute = obtain(sql)
            if span is not None and cursor is not None:
                span.set(cursor=cursor)
            result = self._execute_timed(sql, lambda: execute(params))
        except StatementTimeout:
            raise  # slow ≠ down: never trips the breaker
        except TransientError:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        self._charge_shipping(result)
        if monitor.enabled:
            monitor.record_statement(
                sql, r3.clock.now - started_at, len(result.rows))
        return result, attempts

    def _cursor(self, sql: str) -> tuple[str, Callable[..., Result]]:
        """How the statement's cursor was found, and its ``execute``:
        reopened from the cache ("hit"), or prepared ("miss", kept;
        "bypass" while caching is off)."""
        r3 = self._r3
        if not self.cache_enabled:
            r3.metrics.count("dbif.cursor_cache_bypassed")
            return "bypass", r3.db.prepare(sql).execute
        if (stmt := self._cursor_cache.get(sql)) is None:
            r3.metrics.count("dbif.cursor_cache_misses")
            stmt = self._cursor_cache[sql] = r3.db.prepare(sql)
            return "miss", stmt.execute
        r3.metrics.count("dbif.cursor_cache_hits")
        return "hit", stmt.execute

    def flush_cursor_cache(self) -> None:
        self._cursor_cache.clear()

    def cold_start(self) -> None:
        """Reset all per-process state after an app-server restart.

        Cursor cache, compiled Open SQL statements and circuit-breaker
        history live in the crashed work processes' memory; a restarted
        server comes back with empty caches and a fresh (closed) breaker.
        """
        self.flush_cursor_cache()
        self._r3.open_sql.flush_statements()
        self.breaker = self._closed_breaker()

    # -- internals ------------------------------------------------------------

    def _roundtrip(self) -> int:
        """Charge one round trip, reconnecting through injected drops.

        Each attempt pays the round-trip latency; each failure pays an
        exponentially growing backoff before the reconnect.  Retry
        exhaustion re-raises the loss chained to the injected fault.
        Returns the number of round trips taken (1 on the happy path).
        """
        r3 = self._r3
        attempt = 0
        while True:
            r3.clock.charge(r3.params.roundtrip_s)
            r3.metrics.count("dbif.roundtrips")
            if r3.faults is None:
                return attempt + 1
            try:
                r3.faults.on_roundtrip()
                return attempt + 1
            except ConnectionLostError as exc:
                attempt += 1
                r3.metrics.count("dbif.connection_drops")
                if attempt > r3.params.dbif_max_retries:
                    raise ConnectionLostError(
                        f"connection lost; {attempt} attempts exhausted"
                    ) from exc
                backoff = (r3.params.dbif_backoff_base_s
                           * 2 ** (attempt - 1))
                r3.clock.charge(backoff)
                r3.metrics.count("dbif.retries")
                r3.metrics.count("dbif.backoff_s", backoff)

    def _execute_timed(self, sql: str, run) -> Result:
        """Execute under the per-statement deadline, if one is set."""
        r3 = self._r3
        if self.statement_timeout_s is None:
            return run()
        budget = self.statement_timeout_s

        def timed_out() -> Exception:
            return StatementTimeout(
                f"statement exceeded {budget}s (simulated): {sql[:80]}"
            )

        token = r3.clock.push_deadline(r3.clock.now + budget, timed_out)
        try:
            return run()
        except StatementTimeout:
            r3.metrics.count("dbif.statement_timeouts")
            raise
        finally:
            r3.clock.pop_deadline(token)

    def _charge_shipping(self, result: Result) -> None:
        r3 = self._r3
        row_count = len(result.rows)
        if not row_count:
            return
        byte_estimate = row_count * len(result.columns) * 16
        r3.clock.charge(
            row_count * r3.params.ship_tuple_s
            + byte_estimate * r3.params.ship_byte_s
        )
        r3.metrics.count("dbif.tuples_shipped", row_count)
