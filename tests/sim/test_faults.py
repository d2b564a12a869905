"""FaultInjector scheduling, determinism and metrics."""

import pytest

from repro.engine.errors import ConnectionLostError, DiskIOError
from repro.r3.errors import WorkProcessCrash
from repro.sim.clock import SimulatedClock
from repro.sim.faults import (
    FaultInjector,
    FaultProfile,
    PROFILE_HEAVY,
    PROFILE_LIGHT,
    PROFILE_NONE,
)
from repro.sim.metrics import MetricsCollector


def _injector(profile):
    return FaultInjector(profile, SimulatedClock(), MetricsCollector())


class TestProfiles:
    def test_standard_profiles(self):
        assert PROFILE_NONE.disk_error_every is None
        assert PROFILE_NONE.connection_drop_every is None
        assert PROFILE_NONE.crash_at_s == ()
        assert PROFILE_HEAVY.disk_error_every < PROFILE_LIGHT.disk_error_every
        assert (PROFILE_HEAVY.connection_drop_every
                < PROFILE_LIGHT.connection_drop_every)

    def test_jitter_bounds(self):
        with pytest.raises(ValueError):
            FaultProfile(jitter=1.0)
        with pytest.raises(ValueError):
            FaultProfile(jitter=-0.1)

    def test_burst_bounds(self):
        with pytest.raises(ValueError):
            FaultProfile(connection_drop_burst=0)


class TestSchedules:
    def test_none_profile_never_fires(self):
        injector = _injector(PROFILE_NONE)
        for _ in range(1000):
            injector.on_disk_op()
            injector.on_roundtrip()
            injector.maybe_crash()

    def test_disk_faults_fire_on_exact_period_without_jitter(self):
        injector = _injector(FaultProfile(disk_error_every=5))
        fired = []
        for _ in range(20):
            try:
                injector.on_disk_op()
            except DiskIOError:
                fired.append(injector.disk_ops)
        assert fired == [5, 10, 15, 20]

    def test_connection_faults_fire_on_period(self):
        injector = _injector(FaultProfile(connection_drop_every=4))
        fired = []
        for _ in range(12):
            try:
                injector.on_roundtrip()
            except ConnectionLostError:
                fired.append(injector.roundtrips)
        assert fired == [4, 8, 12]

    def test_connection_burst_fails_consecutive_roundtrips(self):
        injector = _injector(FaultProfile(connection_drop_every=3,
                                          connection_drop_burst=3))
        outcomes = []
        for _ in range(7):
            try:
                injector.on_roundtrip()
                outcomes.append("ok")
            except ConnectionLostError:
                outcomes.append("drop")
        # Event at trip 3 bursts through trips 3-5; the next period
        # (3 trips) counts from the end of the burst -> next at 8.
        assert outcomes == ["ok", "ok", "drop", "drop", "drop",
                            "ok", "ok"]

    def test_crash_fires_once_per_schedule_entry(self):
        clock = SimulatedClock()
        injector = FaultInjector(FaultProfile(crash_at_s=(10.0, 20.0)),
                                 clock, MetricsCollector())
        injector.maybe_crash()  # clock at 0: nothing due
        clock.charge(12)
        with pytest.raises(WorkProcessCrash):
            injector.maybe_crash()
        injector.maybe_crash()  # first crash consumed
        clock.charge(12)
        with pytest.raises(WorkProcessCrash):
            injector.maybe_crash()
        injector.maybe_crash()
        clock.charge(100)
        injector.maybe_crash()  # the schedule is spent

    def test_wp_crashes_fire_on_period(self):
        injector = _injector(FaultProfile(work_process_crash_every=3))
        fired = []
        for _ in range(9):
            try:
                injector.on_wp_request()
            except WorkProcessCrash:
                fired.append(injector.wp_requests)
        assert fired == [3, 6, 9]

    def test_wp_crash_disabled_by_default(self):
        injector = _injector(FaultProfile(disk_error_every=5))
        for _ in range(100):
            injector.on_wp_request()
        assert injector.wp_requests == 100

    def test_wp_crash_schedule_is_seeded(self):
        profile = FaultProfile(seed=11, work_process_crash_every=40,
                               jitter=0.3)

        def sequence():
            injector = _injector(profile)
            fired = []
            for _ in range(1000):
                try:
                    injector.on_wp_request()
                except WorkProcessCrash:
                    fired.append(injector.wp_requests)
            return fired

        first = sequence()
        assert first and first == sequence()
        gaps = [b - a for a, b in zip(first, first[1:])]
        assert all(28 <= gap <= 52 for gap in gaps)

    def test_metrics_count_injected_faults(self):
        metrics = MetricsCollector()
        injector = FaultInjector(
            FaultProfile(disk_error_every=2, connection_drop_every=2),
            SimulatedClock(), metrics)
        for _ in range(4):
            try:
                injector.on_disk_op()
            except DiskIOError:
                pass
            try:
                injector.on_roundtrip()
            except ConnectionLostError:
                pass
        assert metrics.get("faults.disk_io_injected") == 2
        assert metrics.get("faults.connection_drops_injected") == 2

    def test_metrics_count_wp_crashes(self):
        metrics = MetricsCollector()
        injector = FaultInjector(FaultProfile(work_process_crash_every=2),
                                 SimulatedClock(), metrics)
        for _ in range(4):
            try:
                injector.on_wp_request()
            except WorkProcessCrash:
                pass
        assert metrics.get("faults.crashes_injected") == 2


class TestDeterminism:
    def _fire_sequence(self, profile, ops=5000):
        injector = _injector(profile)
        fired = []
        for _ in range(ops):
            try:
                injector.on_disk_op()
            except DiskIOError:
                fired.append(injector.disk_ops)
            try:
                injector.on_roundtrip()
            except ConnectionLostError:
                fired.append(-injector.roundtrips)
        return fired

    def test_same_seed_same_schedule(self):
        profile = FaultProfile(seed=42, disk_error_every=70,
                               connection_drop_every=110, jitter=0.3)
        assert self._fire_sequence(profile) == self._fire_sequence(profile)

    def test_different_seed_different_schedule(self):
        a = FaultProfile(seed=1, disk_error_every=70,
                         connection_drop_every=110, jitter=0.3)
        b = FaultProfile(seed=2, disk_error_every=70,
                         connection_drop_every=110, jitter=0.3)
        assert self._fire_sequence(a) != self._fire_sequence(b)

    def test_jitter_stays_near_mean(self):
        profile = FaultProfile(seed=7, disk_error_every=100, jitter=0.2)
        injector = _injector(profile)
        fired = []
        for _ in range(10_000):
            try:
                injector.on_disk_op()
            except DiskIOError:
                fired.append(injector.disk_ops)
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert gaps and all(80 <= gap <= 120 for gap in gaps)
