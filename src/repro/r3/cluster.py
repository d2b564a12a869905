"""Multi-app-server scale-out: balancer, DDLOG coherence, failover.

The paper measures one application server, but real R/3 installations
reach their user counts by adding app servers in front of the one
RDBMS (paper Figure 1 shows the tiers; Section 2.3 describes the
*periodic* buffer synchronisation that distribution forces).  This
module models that scale-out on the shared simulated clock:

* :class:`R3Cluster` — N :class:`~repro.r3.appserver.R3System`-style
  servers (each with its own dispatcher, work-process pool, table
  buffers, cursor cache and DBIF circuit breaker) attached to *one*
  engine/WAL.  Server 0 is the primary whose schema/dictionary the
  secondaries share.

* :class:`LoginBalancer` — routes sessions to healthy servers, either
  ``round_robin`` (each login picks the next healthy server) or
  ``sticky`` (a session is pinned at first login and re-pinned only
  when its server goes down — counted as a re-route).

* :class:`DdLog` / :class:`BufferCoherence` — R/3's DDLOG table: a
  write through any server appends an invalidation record that peer
  servers replay lazily, at buffered-read time, whenever more than one
  sync period has passed since their last replay.  Replay-before-read
  makes the staleness bound *structural*: a buffered read is served at
  most one sync period after the last replay, so no read can return
  data staler than ``sync_interval_s`` (tracked in
  ``max_read_staleness_s`` and asserted by the chaos scenario).  The
  writing server invalidates its own buffer synchronously — local
  reads always see local writes.

* Failover — :meth:`R3Cluster.kill` marks a server down (its queued
  dialog steps are drained by the throughput scheduler and re-routed
  through the balancer, spending the per-request requeue budget);
  :meth:`R3Cluster.rejoin` charges the restart time and cold-starts
  the server: empty table buffers, empty cursor cache, fresh circuit
  breaker, coherence cursor jumped to the DDLOG head.

A cluster of one server with coherence disabled leaves every hot path
untouched (the only cluster hook is an attribute-is-None check), so
``n_servers=1`` is tick-identical to the plain single-server system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitor.alerts import cluster_alert_rules
from repro.errors import UsageError
from repro.r3.appserver import R3System
from repro.r3.errors import R3Error

#: routing policies the login balancer understands
ROUTING_POLICIES = ("round_robin", "sticky")


class ClusterDownError(R3Error):
    """No healthy application server is left to route to."""


# -- DDLOG ----------------------------------------------------------------


@dataclass(frozen=True)
class DdLogRecord:
    """One invalidation record in the shared DDLOG."""

    seq: int
    table: str
    origin: str                #: name of the server that wrote
    t: float                   #: simulated append time


class DdLog:
    """The shared, append-only buffer-invalidation log (R/3's DDLOG).

    Lives on the database side: every server appends through its DBIF
    write path and replays from any position.  Records are totally
    ordered by ``seq``; the log is never truncated within a run (a run
    is minutes of simulated time — real DDLOG housekeeping is a
    background job out of scope here).
    """

    def __init__(self) -> None:
        self.records: list[DdLogRecord] = []

    @property
    def head_seq(self) -> int:
        return len(self.records)

    def append(self, table: str, origin: str, t: float) -> DdLogRecord:
        record = DdLogRecord(seq=len(self.records) + 1,
                             table=table.lower(), origin=origin, t=t)
        self.records.append(record)
        return record

    def records_since(self, seq: int) -> list[DdLogRecord]:
        """All records with ``seq`` greater than the given position."""
        return self.records[seq:]


class BufferCoherence:
    """One server's view of the shared DDLOG.

    Attached as ``r3.coherence``; the buffer manager calls
    :meth:`before_read` in front of every buffered lookup and the
    write path calls :meth:`note_write` after its synchronous local
    invalidation.  All costs are charged to the shared clock.
    """

    def __init__(self, r3, ddlog: DdLog, sync_interval_s: float) -> None:
        if sync_interval_s <= 0:
            raise UsageError(
                f"sync_interval_s must be > 0: {sync_interval_s}")
        self._r3 = r3
        self.ddlog = ddlog
        self.sync_interval_s = sync_interval_s
        #: DDLOG position this server has replayed up to
        self.applied_seq = 0
        #: simulated time of the last replay
        self.last_sync_t = r3.clock.now
        #: worst staleness bound any buffered read was served under
        self.max_read_staleness_s = 0.0
        self.syncs = 0
        self.replayed = 0

    # -- write side ------------------------------------------------------

    def note_write(self, table_name: str) -> None:
        """Append one invalidation record (the local buffer was already
        invalidated synchronously by the caller)."""
        r3 = self._r3
        r3.clock.charge(r3.params.ddlog_append_s)
        self.ddlog.append(table_name, origin=r3.name, t=r3.clock.now)
        r3.metrics.count("cluster.ddlog_invalidations")

    # -- read side -------------------------------------------------------

    def before_read(self) -> None:
        """Replay pending invalidations if the sync period elapsed.

        The lag between the last replay and this read is the upper
        bound on how stale the served buffer content can be; syncing
        whenever it reaches the period keeps every read's bound
        strictly below one sync period.
        """
        lag = self._r3.clock.now - self.last_sync_t
        if lag >= self.sync_interval_s:
            self.sync()
            lag = 0.0
        if lag > self.max_read_staleness_s:
            self.max_read_staleness_s = lag

    def sync(self) -> int:
        """Replay every pending peer record; returns how many."""
        r3 = self._r3
        now = r3.clock.now
        r3.clock.charge(r3.params.ddlog_sync_s)
        pending = self.ddlog.records_since(self.applied_seq)
        self.applied_seq = self.ddlog.head_seq
        self.last_sync_t = now
        self.syncs += 1
        replayed = 0
        for record in pending:
            if record.origin == r3.name:
                continue           # own writes were applied synchronously
            r3.clock.charge(r3.params.ddlog_replay_record_s)
            replayed += 1
            if r3.buffers.invalidate(record.table):
                # The buffer held (stale) entries for a table a peer
                # changed: without the replay the next lookup could
                # have returned them.
                r3.metrics.count("cluster.stale_reads_prevented")
        self.replayed += replayed
        return replayed

    def cold_start(self) -> None:
        """Rejoin after a crash: buffers are empty, so history in the
        DDLOG is moot — jump the cursor to the head."""
        self.applied_seq = self.ddlog.head_seq
        self.last_sync_t = self._r3.clock.now


# -- login load balancer --------------------------------------------------


class LoginBalancer:
    """Deterministic session routing over the cluster's healthy servers.

    ``round_robin``: every :meth:`route` call advances a cursor over
    the server list, skipping servers that are down.  ``sticky``: a
    session key is pinned to the server its first login picked (via
    the same cursor) and keeps going back there until that server goes
    down, at which point the next route re-pins it — one counted
    re-route per session per failover, the R/3 SMLG behaviour.
    """

    def __init__(self, cluster: "R3Cluster",
                 policy: str = "round_robin") -> None:
        if policy not in ROUTING_POLICIES:
            raise UsageError(f"unknown routing policy {policy!r} "
                             f"(choose from {ROUTING_POLICIES})")
        self._cluster = cluster
        self.policy = policy
        self.sessions: dict[object, int] = {}
        self.sessions_rerouted = 0
        self._cursor = 0

    def _next_healthy(self) -> int:
        servers = self._cluster.servers
        n = len(servers)
        for probe in range(n):
            index = (self._cursor + probe) % n
            if servers[index].up:
                self._cursor = (index + 1) % n
                return index
        raise ClusterDownError(
            f"all {n} application servers are down")

    def route(self, session: object):
        """Pick the server that serves this session's next dialog step."""
        cluster = self._cluster
        if self.policy == "sticky":
            index = self.sessions.get(session)
            if index is not None:
                if cluster.servers[index].up:
                    return cluster.servers[index]
                index = self._next_healthy()
                self.sessions[session] = index
                self.sessions_rerouted += 1
                cluster.metrics.count("cluster.sessions_rerouted")
                return cluster.servers[index]
            index = self._next_healthy()
            self.sessions[session] = index
            return cluster.servers[index]
        index = self._next_healthy()
        return cluster.servers[index]


# -- the cluster ----------------------------------------------------------


@dataclass
class ServerKill:
    """One failover event for a cluster throughput run.

    The scheduler checks events at round boundaries: once ``at_s``
    simulated seconds *of the run* have elapsed (the shared clock
    already carries load time, so event times are run-relative) the
    server is killed — queued steps drained and re-routed; if
    ``rejoin_after_s`` is set the server rejoins — buffer cold start,
    restart time charged — once that many further seconds have passed.
    """

    at_s: float
    server: int = 1
    rejoin_after_s: float | None = None
    killed: bool = field(default=False, compare=False)
    rejoined: bool = field(default=False, compare=False)
    #: simulated time the kill actually landed (a round boundary)
    kill_t: float = field(default=0.0, compare=False)


class R3Cluster:
    """N application servers sharing one engine on one clock."""

    def __init__(self, primary: R3System, n_servers: int = 2,
                 sync_period_s: float | None = None,
                 routing: str = "round_robin") -> None:
        if n_servers < 1:
            raise UsageError(f"n_servers must be >= 1: {n_servers}")
        self.primary = primary
        self.db = primary.db
        self.clock = primary.clock
        self.metrics = primary.metrics
        self.monitor = primary.monitor
        self.sync_period_s = sync_period_s
        self.servers: list[R3System] = [primary]
        for index in range(1, n_servers):
            server = R3System(version=primary.version,
                              client=primary.client,
                              database=primary.db,
                              name=f"as{index}")
            # Secondaries share the primary's activated schema: the
            # data dictionary and the pool/cluster containers are
            # metadata, identical on every server of an installation.
            server.ddic = primary.ddic
            server.pools = primary.pools
            server.clusters = primary.clusters
            self.servers.append(server)
        self.ddlog = DdLog()
        if sync_period_s is not None and n_servers > 1:
            for server in self.servers:
                server.coherence = BufferCoherence(
                    server, self.ddlog, sync_period_s)
        self.balancer = LoginBalancer(self, routing)
        self.monitor.attach_source(
            "servers_down", lambda: float(self.servers_down))
        if not any(rule.name == "appserver_down"
                   for rule in self.monitor.alerts.rules):
            self.monitor.alerts.add_rules(cluster_alert_rules())
        # Replicate the primary's buffer configuration so every server
        # starts with the same buffered-table set.
        for table in primary.buffers.active_tables():
            max_bytes = primary.buffers.active_for(table).max_bytes
            for server in self.servers[1:]:
                server.buffers.configure(table, max_bytes)

    # -- introspection ---------------------------------------------------

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def servers_down(self) -> int:
        return sum(1 for server in self.servers if not server.up)

    @property
    def max_read_staleness_s(self) -> float:
        """Worst staleness bound any buffered read on any server was
        served under (0.0 with coherence disabled)."""
        return max((server.coherence.max_read_staleness_s
                    for server in self.servers
                    if server.coherence is not None), default=0.0)

    def buffer_quality(self) -> float | None:
        """Current-generation buffer hit ratio across all servers."""
        lookups = 0
        hits = 0
        for server in self.servers:
            for table in server.buffers.active_tables():
                window = server.buffers.active_for(table).window
                lookups += window.lookups
                hits += window.hits
        if not lookups:
            return None
        return hits / lookups

    def configure_buffers(self, tables: dict[str, int]) -> None:
        """Activate table buffering for ``{table: max_bytes}`` on every
        server of the cluster."""
        for table, max_bytes in tables.items():
            for server in self.servers:
                server.buffers.configure(table, max_bytes)

    # -- failover --------------------------------------------------------

    def kill(self, index: int) -> R3System:
        """Crash one server: it stops taking and serving requests.

        The caller (the cluster scheduler) drains the dead server's
        dispatcher queue and re-routes through the balancer; queued
        steps never started (roll-in is the transaction boundary), so
        the re-route is idempotent.
        """
        server = self.servers[index]
        if index == 0:
            raise ValueError("server 0 is the primary instance "
                             "(message server); it cannot be killed")
        if not server.up:
            raise ValueError(f"{server.name} is already down")
        server.up = False
        self.metrics.count("cluster.server_crashes")
        with server.tracer.span("cluster.kill", server=server.name):
            pass
        return server

    def rejoin(self, index: int) -> R3System:
        """Restart a crashed server and put it back in rotation.

        Charges the restart time and cold-starts every per-process
        memory: table buffers, DBIF cursor cache, circuit breaker, and
        the DDLOG cursor (empty buffers have nothing stale to
        invalidate, so the cursor jumps to the head).
        """
        server = self.servers[index]
        if server.up:
            raise ValueError(f"{server.name} is already up")
        self.clock.charge(server.params.appserver_restart_s)
        server.buffers.clear_all()
        server.dbif.cold_start()
        if server.coherence is not None:
            server.coherence.cold_start()
        server.up = True
        self.metrics.count("cluster.server_rejoins")
        with server.tracer.span("cluster.rejoin", server=server.name):
            pass
        return server


def build_sap_cluster(data, version, n_servers: int = 2,
                      sync_period_s: float | None = None,
                      routing: str = "round_robin",
                      buffered_tables: dict[str, int] | None = None
                      ) -> R3Cluster:
    """A loaded SAP installation scaled out to ``n_servers``.

    Builds the primary exactly like
    :func:`~repro.core.powertest.build_sap_system` (so the engine-side
    state is identical to the single-server runs), then attaches the
    secondaries, the balancer, and — when ``sync_period_s`` is set and
    there is more than one server — DDLOG coherence.
    ``buffered_tables`` maps table names to buffer byte budgets,
    configured on every server.
    """
    from repro.core.powertest import build_sap_system

    primary = build_sap_system(data, version)
    cluster = R3Cluster(primary, n_servers=n_servers,
                        sync_period_s=sync_period_s, routing=routing)
    if buffered_tables:
        cluster.configure_buffers(buffered_tables)
    return cluster


__all__ = [
    "BufferCoherence",
    "ClusterDownError",
    "DdLog",
    "DdLogRecord",
    "LoginBalancer",
    "R3Cluster",
    "ROUTING_POLICIES",
    "ServerKill",
    "build_sap_cluster",
]
