"""DBIF circuit breaker: state machine, metrics, trace, integration."""

import pytest

from repro.engine.errors import CircuitOpenError, ConnectionLostError
from repro.r3.appserver import R3System, R3Version
from repro.r3.dbif import BreakerState, CircuitBreaker
from repro.sim.clock import SimulatedClock
from repro.sim.faults import FaultProfile
from repro.sim.metrics import MetricsCollector
from repro.trace.tracer import Tracer


def _breaker(**kwargs):
    clock = SimulatedClock()
    metrics = MetricsCollector()
    breaker = CircuitBreaker(clock, metrics, **kwargs)
    return clock, metrics, breaker


def _trip(breaker):
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()


class TestStateMachine:
    def test_starts_closed_and_tolerates_sub_threshold_failures(self):
        _clock, _metrics, breaker = _breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.before_call()  # does not raise

    def test_success_resets_the_failure_streak(self):
        _clock, _metrics, breaker = _breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.consecutive_failures == 0
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_threshold_opens(self):
        _clock, metrics, breaker = _breaker(failure_threshold=3)
        _trip(breaker)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1
        assert metrics.get("dbif.breaker.open") == 1
        assert metrics.get("dbif.breaker.failures") == 3

    def test_open_fails_fast(self):
        _clock, metrics, breaker = _breaker(failure_threshold=1,
                                            cooldown_s=10.0)
        _trip(breaker)
        for _ in range(3):
            with pytest.raises(CircuitOpenError):
                breaker.before_call()
        assert metrics.get("dbif.breaker.fast_fails") == 3

    def test_cooldown_elapses_to_half_open_then_probe_closes(self):
        clock, metrics, breaker = _breaker(failure_threshold=1,
                                           cooldown_s=10.0)
        _trip(breaker)
        clock.charge(10.0)
        breaker.before_call()  # cooldown over: probe allowed
        assert breaker.state is BreakerState.HALF_OPEN
        assert metrics.get("dbif.breaker.half_open") == 1
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        assert metrics.get("dbif.breaker.closed") == 1

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock, _metrics, breaker = _breaker(failure_threshold=1,
                                            cooldown_s=10.0)
        _trip(breaker)
        clock.charge(10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        # the new cooldown starts now, not at the first opening
        clock.charge(9.0)
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        clock.charge(1.0)
        breaker.before_call()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_multiple_probes_required_when_configured(self):
        clock, _metrics, breaker = _breaker(failure_threshold=1,
                                            cooldown_s=5.0,
                                            halfopen_probes=2)
        _trip(breaker)
        clock.charge(5.0)
        breaker.before_call()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.before_call()  # half-open lets further probes through
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_parameter_validation(self):
        clock, metrics = SimulatedClock(), MetricsCollector()
        with pytest.raises(ValueError):
            CircuitBreaker(clock, metrics, failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, metrics, cooldown_s=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, metrics, halfopen_probes=0)


class TestTraceSpans:
    def test_transitions_emit_spans(self):
        clock = SimulatedClock()
        tracer = Tracer(clock).enable()
        breaker = CircuitBreaker(clock, MetricsCollector(), tracer=tracer,
                                 failure_threshold=1, cooldown_s=5.0)
        _trip(breaker)
        clock.charge(5.0)
        breaker.before_call()
        breaker.record_success()
        transitions = [span.attrs["transition"]
                       for root in tracer.roots
                       for span in root.walk()
                       if span.name == "dbif.breaker"]
        assert transitions == ["closed->open", "open->half_open",
                               "half_open->closed"]
        # the spans read the clock but never charge it
        assert all(span.elapsed_s == 0.0
                   for root in tracer.roots
                   for span in root.walk())


class TestDbifIntegration:
    """The breaker wired into DatabaseInterface, driven by PR 1's
    deterministic fault injector."""

    @pytest.fixture()
    def r3(self):
        system = R3System(R3Version.V30)
        system.params.breaker_failure_threshold = 3
        system.dbif.breaker.failure_threshold = 3
        return system

    def _storm(self, r3):
        """Every round trip drops: each DBIF call exhausts its retries."""
        r3.attach_faults(FaultProfile(connection_drop_every=1,
                                      connection_drop_burst=10_000))

    def test_fault_storm_trips_breaker_then_fails_fast(self, r3):
        self._storm(r3)
        for _ in range(3):
            with pytest.raises(ConnectionLostError):
                r3.dbif.execute_param("SELECT x FROM t", ())
        assert r3.dbif.breaker.state is BreakerState.OPEN
        roundtrips = r3.metrics.get("dbif.roundtrips")
        # the open breaker sheds the call before any round trip
        with pytest.raises(CircuitOpenError):
            r3.dbif.execute_param("SELECT x FROM t", ())
        assert r3.metrics.get("dbif.roundtrips") == roundtrips
        assert r3.metrics.get("dbif.breaker.fast_fails") == 1

    def test_breaker_recloses_after_storm(self, r3):
        from repro.engine import Column, SqlType, TableSchema

        r3.db.create_table(TableSchema("t", [
            Column("x", SqlType.integer()),
        ]))
        r3.db.execute("INSERT INTO t VALUES (1)")
        self._storm(r3)
        for _ in range(3):
            with pytest.raises(ConnectionLostError):
                r3.dbif.execute_param("SELECT x FROM t", ())
        r3.detach_faults()
        r3.clock.charge(r3.dbif.breaker.cooldown_s)
        result = r3.dbif.execute_param("SELECT x FROM t", ())
        assert result.rows == [(1,)]
        assert r3.dbif.breaker.state is BreakerState.CLOSED

    def test_statement_timeout_does_not_trip_breaker(self, r3):
        from repro.engine import Column, SqlType, TableSchema
        from repro.engine.errors import StatementTimeout

        r3.db.create_table(TableSchema("t", [
            Column("x", SqlType.integer()),
        ]))
        for i in range(50):
            r3.db.execute("INSERT INTO t VALUES (?)", (i,))
        r3.dbif.statement_timeout_s = 1e-9
        for _ in range(5):
            with pytest.raises(StatementTimeout):
                r3.dbif.execute_param("SELECT x FROM t", ())
        # slow is not down: five timeouts, zero breaker failures
        assert r3.dbif.breaker.state is BreakerState.CLOSED
        assert r3.metrics.get("dbif.breaker.failures") == 0

    def test_literal_path_also_guarded(self, r3):
        self._storm(r3)
        for _ in range(3):
            with pytest.raises(ConnectionLostError):
                r3.dbif.execute_literal("SELECT x FROM t")
        with pytest.raises(CircuitOpenError):
            r3.dbif.execute_literal("SELECT x FROM t")
