"""Multi-app-server cluster: DDLOG coherence, balancer, failover."""

import pytest

from repro.engine.errors import CircuitOpenError
from repro.engine.types import SqlType
from repro.r3.appserver import R3System, R3Version
from repro.r3.cluster import (
    ClusterDownError,
    DdLog,
    LoginBalancer,
    R3Cluster,
)
from repro.r3.dbif import BreakerState
from repro.r3.ddic import DDicField, DDicTable, TableKind


def make_cluster(n_servers=2, sync_period_s=5.0, routing="round_robin"):
    """A small loaded installation scaled out to ``n_servers``."""
    primary = R3System(R3Version.V30)
    primary.activate_table(DDicTable("mara", TableKind.TRANSPARENT, [
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("mtart", SqlType.char(25)),
    ]))
    for i in range(20):
        primary.insert_logical("mara", (f"M{i:03d}", f"T{i % 5}"))
    primary.db.analyze()
    cluster = R3Cluster(primary, n_servers=n_servers,
                        sync_period_s=sync_period_s, routing=routing)
    cluster.configure_buffers({"mara": 1 << 20})
    return cluster


def buffered_read(server, matnr="M001"):
    """One buffered single-record read on one server."""
    return server.buffers.lookup("mara", (server.client, matnr))


def warm(server, matnr="M001"):
    """Put one row in a server's table buffer."""
    row = server.open_sql.select_single(
        "SELECT SINGLE mtart FROM mara WHERE matnr = :m", {"m": matnr})
    assert row is not None
    active, hit, _row = buffered_read(server, matnr)
    assert active and hit


class TestDdLog:
    def test_append_assigns_dense_sequence(self):
        log = DdLog()
        first = log.append("VBAK", origin="as0", t=1.0)
        second = log.append("vbap", origin="as1", t=2.0)
        assert (first.seq, second.seq) == (1, 2)
        assert first.table == "vbak"  # normalized like the DDIC
        assert log.head_seq == 2

    def test_records_since_position(self):
        log = DdLog()
        for i in range(4):
            log.append("mara", origin="as0", t=float(i))
        assert [r.seq for r in log.records_since(2)] == [3, 4]
        assert log.records_since(4) == []


class TestBufferCoherence:
    def test_single_server_cluster_disables_coherence(self):
        cluster = make_cluster(n_servers=1, sync_period_s=5.0)
        assert cluster.servers[0].coherence is None
        assert cluster.max_read_staleness_s == 0.0

    def test_sync_period_must_be_positive(self):
        cluster = make_cluster(n_servers=1, sync_period_s=None)
        from repro.r3.cluster import BufferCoherence

        with pytest.raises(ValueError):
            BufferCoherence(cluster.primary, cluster.ddlog, 0.0)

    def test_writer_invalidates_own_buffer_synchronously(self):
        cluster = make_cluster()
        as0 = cluster.servers[0]
        warm(as0)
        as0.insert_logical("mara", ("M998", "T8"))
        _active, hit, _row = buffered_read(as0)
        assert hit is False  # local reads see local writes immediately
        assert cluster.ddlog.head_seq == 1
        assert cluster.ddlog.records[0].origin == "as0"

    def test_peer_replays_after_sync_period(self):
        cluster = make_cluster(sync_period_s=5.0)
        as0, as1 = cluster.servers
        warm(as1)
        before = cluster.metrics.get("cluster.stale_reads_prevented")
        as0.insert_logical("mara", ("M997", "T7"))
        # Within the sync period the peer still serves the (stale)
        # buffered row — that is the R/3 coherence trade-off.
        _active, hit, _row = buffered_read(as1)
        assert hit is True
        cluster.clock.charge(5.0)
        _active, hit, _row = buffered_read(as1)
        assert hit is False  # replay invalidated before the read
        assert as1.coherence.replayed >= 1
        assert cluster.metrics.get("cluster.stale_reads_prevented") \
            == before + 1

    def test_own_records_are_skipped_on_replay(self):
        cluster = make_cluster(sync_period_s=5.0)
        as0 = cluster.servers[0]
        as0.insert_logical("mara", ("M996", "T6"))
        cluster.clock.charge(5.0)
        replayed = as0.coherence.sync()
        assert replayed == 0  # own writes were applied synchronously
        assert as0.coherence.applied_seq == cluster.ddlog.head_seq

    def test_no_read_staler_than_one_sync_period(self):
        cluster = make_cluster(sync_period_s=5.0)
        as0, as1 = cluster.servers
        warm(as1)
        for step in (1.0, 2.5, 4.9, 0.3, 6.0, 2.0):
            cluster.clock.charge(step)
            as0.insert_logical("mara", (f"MX{step}", "T0"))
            buffered_read(as1)
        assert cluster.max_read_staleness_s < 5.0

    def test_ddlog_invalidations_counted(self):
        cluster = make_cluster()
        before = cluster.metrics.get("cluster.ddlog_invalidations")
        cluster.servers[1].insert_logical("mara", ("M995", "T5"))
        assert cluster.metrics.get("cluster.ddlog_invalidations") \
            == before + 1

    def test_cold_start_jumps_to_head(self):
        cluster = make_cluster()
        as0, as1 = cluster.servers
        for i in range(3):
            as0.insert_logical("mara", (f"MC{i}", "T1"))
        assert as1.coherence.applied_seq == 0
        as1.coherence.cold_start()
        assert as1.coherence.applied_seq == cluster.ddlog.head_seq


class TestLoginBalancer:
    def test_round_robin_cycles_servers(self):
        cluster = make_cluster(n_servers=3, routing="round_robin")
        names = [cluster.balancer.route(i).name for i in range(6)]
        assert names == ["as0", "as1", "as2", "as0", "as1", "as2"]

    def test_round_robin_skips_down_server(self):
        cluster = make_cluster(n_servers=3, routing="round_robin")
        cluster.kill(1)
        names = [cluster.balancer.route(i).name for i in range(4)]
        assert names == ["as0", "as2", "as0", "as2"]

    def test_sticky_pins_session(self):
        cluster = make_cluster(routing="sticky")
        balancer = cluster.balancer
        assert balancer.route("alice").name == "as0"
        assert balancer.route("bob").name == "as1"
        # every later login goes back to the pinned server
        assert balancer.route("alice").name == "as0"
        assert balancer.route("bob").name == "as1"
        assert balancer.sessions_rerouted == 0

    def test_sticky_reroutes_on_server_down(self):
        cluster = make_cluster(routing="sticky")
        balancer = cluster.balancer
        balancer.route("alice")          # as0
        balancer.route("bob")            # as1
        cluster.kill(1)
        before = cluster.metrics.get("cluster.sessions_rerouted")
        assert balancer.route("bob").name == "as0"
        assert balancer.sessions_rerouted == 1
        assert cluster.metrics.get("cluster.sessions_rerouted") \
            == before + 1
        # re-pin is permanent: no further re-route counted
        assert balancer.route("bob").name == "as0"
        assert balancer.sessions_rerouted == 1

    def test_all_servers_down_raises(self):
        cluster = make_cluster()
        for server in cluster.servers:
            server.up = False
        with pytest.raises(ClusterDownError):
            cluster.balancer.route("alice")

    def test_unknown_policy_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            LoginBalancer(cluster, "random")


class TestClusterFailover:
    def test_primary_cannot_be_killed(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.kill(0)

    def test_kill_marks_down_and_counts(self):
        cluster = make_cluster()
        before = cluster.metrics.get("cluster.server_crashes")
        cluster.kill(1)
        assert not cluster.servers[1].up
        assert cluster.servers_down == 1
        assert cluster.healthy() == [cluster.servers[0]]
        assert cluster.metrics.get("cluster.server_crashes") == before + 1
        with pytest.raises(ValueError):
            cluster.kill(1)  # already down

    def test_rejoin_charges_restart_and_cold_starts(self):
        cluster = make_cluster()
        as1 = cluster.servers[1]
        warm(as1)
        as1.dbif.execute_param("SELECT matnr FROM mara WHERE mtart = ?",
                               ("T1",))
        for _ in range(as1.params.breaker_failure_threshold):
            as1.dbif.breaker.record_failure()
        assert as1.dbif.breaker.state is BreakerState.OPEN
        cluster.kill(1)
        with pytest.raises(ValueError):
            cluster.rejoin(0)  # still up
        t0 = cluster.clock.now
        cluster.rejoin(1)
        assert as1.up
        assert cluster.clock.now - t0 == pytest.approx(
            as1.params.appserver_restart_s)
        # cold start: empty buffers, empty cursor cache, fresh breaker
        _active, hit, _row = buffered_read(as1)
        assert hit is False
        assert as1.dbif._cursor_cache == {}
        assert as1.dbif.breaker.state is BreakerState.CLOSED
        assert as1.coherence.applied_seq == cluster.ddlog.head_seq

    def test_rejoin_counts_metric(self):
        cluster = make_cluster()
        cluster.kill(1)
        before = cluster.metrics.get("cluster.server_rejoins")
        cluster.rejoin(1)
        assert cluster.metrics.get("cluster.server_rejoins") == before + 1

    def test_server_count_validated(self):
        primary = R3System(R3Version.V30)
        with pytest.raises(ValueError):
            R3Cluster(primary, n_servers=0)


class TestPerServerIsolation:
    """Satellite: breaker and cursor cache are strictly per app server."""

    def test_open_breaker_does_not_fail_fast_peers(self):
        cluster = make_cluster()
        as0, as1 = cluster.servers
        for _ in range(as1.params.breaker_failure_threshold):
            as1.dbif.breaker.record_failure()
        assert as1.dbif.breaker.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            as1.dbif.execute_param("SELECT matnr FROM mara", ())
        # the peer's breaker is untouched and its calls go through
        assert as0.dbif.breaker.state is BreakerState.CLOSED
        result = as0.dbif.execute_param("SELECT matnr FROM mara", ())
        assert len(result.rows) == 20
        assert as0.dbif.breaker.consecutive_failures == 0

    def test_cursor_caches_are_private(self):
        cluster = make_cluster()
        as0, as1 = cluster.servers
        as0.dbif.execute_param("SELECT matnr FROM mara WHERE mtart = ?",
                               ("T1",))
        assert as0.dbif._cursor_cache
        assert as1.dbif._cursor_cache == {}

    def test_gauge_names_do_not_collide(self):
        cluster = make_cluster()
        as0, as1 = cluster.servers
        assert as0.gauge_suffix == ""
        assert as1.gauge_suffix == ".as1"
        sources = cluster.monitor._sources
        assert "breaker_open" in sources
        assert "breaker_open.as1" in sources
        assert "buffer_quality_total.as1" in sources


class TestBufferQualityWindow:
    """Satellite: quality is per generation over active buffers only."""

    @pytest.fixture()
    def r3(self):
        system = R3System(R3Version.V22)
        system.activate_table(DDicTable("mara", TableKind.TRANSPARENT, [
            DDicField("matnr", SqlType.char(18), key=True),
            DDicField("mtart", SqlType.char(25)),
        ]))
        for i in range(20):
            system.insert_logical("mara", (f"M{i:03d}", f"T{i % 5}"))
        system.db.analyze()
        system.buffers.configure("mara", 1 << 20)
        return system

    def read(self, r3, matnr="M001"):
        return r3.open_sql.select_single(
            "SELECT SINGLE mtart FROM mara WHERE matnr = :m",
            {"m": matnr})

    def test_invalidation_resets_the_window(self, r3):
        for _ in range(4):
            self.read(r3)
        assert r3.buffers.quality == pytest.approx(0.75)
        r3.buffers.invalidate("mara")
        # fresh generation: no lookups yet -> no quality figure
        assert r3.buffers.quality is None
        self.read(r3)
        # the post-invalidation dip is visible, not averaged away ...
        assert r3.buffers.quality == 0.0

    def test_deactivated_buffer_leaves_the_denominator(self, r3):
        for _ in range(2):
            self.read(r3)
        assert r3.buffers.quality == pytest.approx(0.5)
        r3.buffers.deactivate("mara")
        assert r3.buffers.quality is None

    def test_lifetime_stats_survive_invalidation(self, r3):
        for _ in range(3):
            self.read(r3)
        r3.buffers.invalidate("mara")
        stats = r3.buffers.stats("mara")
        assert stats.lookups == 3
        assert stats.invalidations == 1
        buffer = r3.buffers.active_for("mara")
        assert buffer.window.lookups == 0
        assert buffer.window.invalidations == 1

    def test_cluster_quality_aggregates_windows(self):
        cluster = make_cluster()
        as0, as1 = cluster.servers
        warm(as0)    # 1 miss + 1 hit on as0
        warm(as1)    # 1 miss + 1 hit on as1
        assert cluster.buffer_quality() == pytest.approx(0.5)
        as0.insert_logical("mara", ("M994", "T4"))
        # as0's window restarted; only as1's warm window still counts
        assert cluster.buffer_quality() == pytest.approx(0.5)
        _active, hit, _row = buffered_read(as1)
        assert hit
        assert cluster.buffer_quality() == pytest.approx(2 / 3)
