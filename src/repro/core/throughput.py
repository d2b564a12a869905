"""The TPC-D throughput test (the paper's footnote 1 deferral).

The paper ran only the power test; the TPC-D specification also
defines a *throughput* test: S query streams run concurrently, each
executing all 17 queries in a stream-specific permutation, while an
update stream applies UF1/UF2 pairs.  This extension implements it on
the simulator.

Concurrency model: the paper's configuration is a single machine whose
app server multiplexes users over a fixed work-process pool behind a
dispatcher queue — so the streams are scheduled *through* a simulated
:class:`~repro.r3.dispatcher.Dispatcher`.  Each stream is a closed
loop: it submits its next query as soon as the previous one resolves;
the dispatcher admits it (or rejects it at a full queue), rolls it
into a free work process and serves it on the shared simulated clock.
The spec's metric shape is reported as::

    throughput ~ (completed * 3600) / elapsed_seconds   [queries/hour]

With an unconstrained pool (the default: pool ≥ S, unbounded-enough
queue, zero roll costs) the schedule degenerates to exactly the fair
round-robin interleaving of the pre-dispatcher implementation — same
clock ticks, same per-query times.  Constrained pools add queue waits;
bounded queues add rejections; fault profiles add shed queries and
crash requeues — all recorded per stream in :class:`ThroughputResult`.

Interleaving is not a no-op: later streams find the buffer pool and
cursor cache warm, which is exactly the effect a throughput test adds
over S independent power tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.r3.dispatcher import (
    PRIORITY_UPDATE,
    Dispatcher,
    DispatcherConfig,
    Request,
)
from repro.r3.errors import DispatcherOverload

# The TPC-D ordering rules give each stream its own permutation; these
# are the spec's first eight (trimmed to Q1-Q17).  Streams beyond the
# eighth cycle through them with a per-cycle rotation (stream 8 runs
# permutation 0 rotated by one position, stream 16 by two, ...), so
# any stream count gets a distinct, deterministic ordering.
_STREAM_PERMUTATIONS = [
    [14, 2, 9, 17, 5, 7, 12, 8, 16, 13, 3, 6, 10, 15, 4, 11, 1],
    [1, 3, 13, 16, 10, 2, 15, 14, 17, 7, 8, 12, 6, 9, 11, 4, 5],
    [6, 17, 14, 16, 13, 10, 3, 15, 9, 11, 1, 8, 4, 7, 12, 2, 5],
    [8, 5, 4, 6, 17, 7, 1, 13, 16, 2, 15, 3, 10, 12, 14, 9, 11],
    [5, 3, 12, 14, 6, 17, 1, 15, 4, 9, 8, 16, 11, 2, 10, 13, 7],
    [15, 14, 6, 17, 9, 2, 4, 8, 5, 13, 12, 7, 1, 10, 16, 11, 3],
    [2, 8, 17, 1, 13, 11, 3, 4, 12, 16, 9, 6, 15, 14, 7, 10, 5],
    [13, 11, 2, 15, 8, 1, 12, 6, 16, 9, 14, 17, 10, 3, 5, 4, 7],
]


def stream_permutation(stream: int) -> list[int]:
    """The query ordering for ``stream`` (any non-negative index)."""
    if stream < 0:
        raise ValueError(f"stream must be >= 0: {stream}")
    base = _STREAM_PERMUTATIONS[stream % len(_STREAM_PERMUTATIONS)]
    cycle = stream // len(_STREAM_PERMUTATIONS)
    rotation = cycle % len(base)
    return base[rotation:] + base[:rotation]


@dataclass
class StreamStats:
    """Per-stream dispatcher accounting for one throughput run."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    requeued: int = 0
    queue_wait_s: float = 0.0

    @property
    def resolved(self) -> int:
        return self.completed + self.shed + self.rejected


@dataclass
class ThroughputResult:
    streams: int
    scale_factor: float
    elapsed_s: float
    #: (stream, query name) -> simulated service seconds (completed only)
    per_query: dict[tuple[int, str], float] = field(default_factory=dict)
    update_s: float = 0.0
    #: stream index -> dispatcher accounting
    per_stream: dict[int, StreamStats] = field(default_factory=dict)
    updates_submitted: int = 0
    updates_run: int = 0
    updates_shed: int = 0
    #: shed-reason class -> count (e.g. ``CircuitOpenError``)
    shed_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def queries_run(self) -> int:
        return len(self.per_query)

    @property
    def queries_per_hour(self) -> float:
        if self.elapsed_s <= 0:
            return float("inf")
        return self.queries_run * 3600.0 / self.elapsed_s

    # -- dispatcher aggregates ----------------------------------------------

    @property
    def submitted(self) -> int:
        return sum(s.submitted for s in self.per_stream.values())

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.per_stream.values())

    @property
    def shed(self) -> int:
        return sum(s.shed for s in self.per_stream.values())

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.per_stream.values())

    @property
    def requeued(self) -> int:
        return sum(s.requeued for s in self.per_stream.values())

    @property
    def queue_wait_s(self) -> float:
        return sum(s.queue_wait_s for s in self.per_stream.values())

    def conservation_ok(self) -> bool:
        """No query lost, none double-counted: per stream and overall,
        submitted == completed + shed + rejected (and likewise for the
        update stream)."""
        for stats in self.per_stream.values():
            if stats.submitted != stats.resolved:
                return False
        if self.completed != self.queries_run:
            return False
        return self.updates_submitted == self.updates_run + self.updates_shed


@dataclass
class _StreamRequest(Request):
    """A request whose body is parameterized by the serving app server.

    The scheduler binds ``fn`` to the routed server at submission; when
    an app-server crash drains the request back to the balancer, the
    re-route re-binds ``body`` to the surviving server (the queued step
    never rolled in, so re-binding is idempotent).
    """

    body: Callable[[object], object] | None = None

    def bind(self, server) -> "_StreamRequest":
        body = self.body
        self.fn = lambda: body(server)
        return self

    @property
    def session(self):
        """The balancer session this request belongs to."""
        return "update-stream" if self.stream < 0 else self.stream


def _run_streams(result: ThroughputResult, suite: dict[int, object],
                 update_sets: list[tuple] | None, servers: list,
                 disps: list[Dispatcher], route: Callable,
                 failover: Callable | None = None) -> list[int]:
    """The scheduling loop both throughput tests share.

    ``route(session)`` names the server a session's next step runs on
    (one session per stream, plus the update stream's own) and
    ``disps[i]`` is the dispatcher of ``servers[i]``.  ``failover``, if
    given, runs at the top of every round and is handed the callback
    that sheds a drained request it could not re-route.  Fills
    ``result``; returns the dialog steps completed on each server.
    """
    streams = result.streams
    result.per_stream = {s: StreamStats() for s in range(streams)}
    disp_of = {server.name: disp for server, disp in zip(servers, disps)}
    completed_on = [0] * len(servers)
    permutations = [stream_permutation(s) for s in range(streams)]
    length = len(permutations[0])
    positions = [0] * streams
    waiting = [False] * streams
    pending_updates = list(update_sets or [])
    updates_taken = 0
    resolved_steps = 0

    def note_shed(reason: str | None) -> None:
        key = (reason or "unknown").split(":")[0].strip()
        result.shed_reasons[key] = result.shed_reasons.get(key, 0) + 1

    def step_resolved(stream: int) -> None:
        nonlocal resolved_steps
        positions[stream] += 1
        waiting[stream] = False
        resolved_steps += 1

    def resolve_shed(request: Request, reason: str | None) -> None:
        note_shed(reason)
        if request.stream < 0:
            result.updates_shed += 1
            return
        result.per_stream[request.stream].shed += 1
        step_resolved(request.stream)

    def submit(request: _StreamRequest) -> None:
        server = route(request.session)
        disp_of[server.name].submit(request.bind(server))

    def update_body(pair: tuple) -> Callable[[object], None]:
        refresh, doomed = pair

        def body(server) -> None:
            from repro.reports.updatefuncs import run_uf1_sap, run_uf2_sap

            if refresh is not None:
                run_uf1_sap(server, refresh)
            if doomed:
                run_uf2_sap(server, doomed)

        return body

    while True:
        if failover is not None:
            failover(resolve_shed)
        # 1. Submission: every idle stream offers its next query at the
        # server its session routes to.  A rejected query resolves on
        # the spot (the "user" moves on); one attempt per stream per
        # round bounds the reject rate.
        for stream in range(streams):
            if waiting[stream] or positions[stream] >= length:
                continue
            stats = result.per_stream[stream]
            stats.submitted += 1
            number = permutations[stream][positions[stream]]
            try:
                submit(_StreamRequest(stream=stream, label=f"Q{number}",
                                      fn=None, body=suite[number]))
                waiting[stream] = True
            except DispatcherOverload:
                stats.rejected += 1
                step_resolved(stream)
        # 2. Dispatch: every healthy server rolls its queue into its
        # own work-process pool, in server order on the shared clock.
        for index, server in enumerate(servers):
            if not server.up:
                continue
            for comp in disps[index].dispatch_round():
                request = comp.request
                if request.stream < 0:
                    if comp.kind == "completed":
                        result.updates_run += 1
                        result.update_s += comp.service_s
                    elif comp.kind == "shed":
                        resolve_shed(request, comp.reason)
                    continue  # "requeued" stays in the queue
                stats = result.per_stream[request.stream]
                if comp.kind == "requeued":
                    stats.requeued += 1
                    continue
                stats.queue_wait_s += comp.queue_wait_s
                if comp.kind == "completed":
                    stats.completed += 1
                    completed_on[index] += 1
                    result.per_query[(request.stream, request.label)] = \
                        comp.service_s
                    step_resolved(request.stream)
                else:
                    resolve_shed(request, comp.reason)
        # 3. Update slot: after each full round of resolved dialog
        # steps the update stream gets one (sheddable) low-priority
        # slot, as its own balancer session.
        if pending_updates and updates_taken < resolved_steps // streams:
            request = _StreamRequest(
                stream=-1, label=f"UF-pair-{updates_taken}", fn=None,
                priority=PRIORITY_UPDATE,
                body=update_body(pending_updates.pop(0)))
            updates_taken += 1
            result.updates_submitted += 1
            try:
                submit(request)
            except DispatcherOverload as exc:
                result.updates_shed += 1
                note_shed(f"admission {type(exc).__name__}")
        # 4. Done when every stream ran dry and every queue drained.
        if all(disp.queue_depth == 0 for disp in disps) \
                and all(pos >= length for pos in positions):
            return completed_on


def run_throughput_test(
    r3,
    suite: dict[int, object],
    streams: int = 2,
    update_sets: list[tuple] | None = None,
    dispatcher: Dispatcher | DispatcherConfig | None = None,
) -> ThroughputResult:
    """Run ``streams`` query streams through the dispatcher.

    ``suite`` is a report suite from e.g. ``open30.make_queries(sf)``.
    ``update_sets`` is a list of ``(refresh_data, delete_orderkeys)``
    pairs (one distinct pair per update-stream slot, as the spec
    requires); one pair is submitted — at low priority, sheddable
    under queue pressure — after each full round of resolved dialog
    steps.

    ``dispatcher`` may be a ready :class:`Dispatcher`, a
    :class:`DispatcherConfig`, or ``None`` for the identity-preserving
    unconstrained default (pool ≥ S, zero roll costs: tick-for-tick
    the old round-robin schedule).
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1: {streams}")
    if dispatcher is None:
        dispatcher = DispatcherConfig.unconstrained(streams)
    if isinstance(dispatcher, DispatcherConfig):
        dispatcher = Dispatcher(r3, dispatcher)
    result = ThroughputResult(streams=streams, scale_factor=0.0,
                              elapsed_s=0.0)
    total_span = r3.measure()
    _run_streams(result, suite, update_sets, [r3], [dispatcher],
                 route=lambda session: r3)
    r3.monitor.finish()
    result.elapsed_s = total_span.stop()
    return result


# -- multi-app-server scheduling ------------------------------------------


@dataclass
class ClusterThroughputResult(ThroughputResult):
    """Throughput-test result plus cluster-level accounting."""

    n_servers: int = 1
    routing: str = "round_robin"
    sync_period_s: float | None = None
    #: server name -> dialog steps completed there
    per_server_completed: dict[str, int] = field(default_factory=dict)
    kills: int = 0
    rejoins: int = 0
    sessions_rerouted: int = 0
    #: worst staleness bound any buffered read was served under
    max_read_staleness_s: float = 0.0
    #: cluster-wide current-generation buffer hit ratio
    buffer_quality: float | None = None


def run_cluster_throughput_test(
    cluster,
    suite: dict[int, object],
    streams: int = 2,
    update_sets: list[tuple] | None = None,
    dispatcher: DispatcherConfig | None = None,
    failover: list | None = None,
) -> ClusterThroughputResult:
    """Run ``streams`` query streams across the cluster's app servers.

    Each stream is one logged-in session: every submission asks the
    login balancer for a server (``sticky`` keeps going back; the
    update stream is its own session) and the step runs through that
    server's dispatcher, buffers and DBIF — all servers share one
    engine and one simulated clock, so the schedule is deterministic.

    ``dispatcher`` is one :class:`DispatcherConfig` instantiated *per
    server* (``None`` = the identity-preserving unconstrained config).
    ``failover`` is a list of :class:`~repro.r3.cluster.ServerKill`
    events, processed at round boundaries: a kill drains the dead
    server's queue back through the balancer (each drained step spends
    one unit of its crash-requeue budget), a rejoin charges the
    restart time and cold-starts the server.

    With one server and coherence disabled the schedule is
    tick-identical to :func:`run_throughput_test` (pinned by
    regression test).
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1: {streams}")
    servers = cluster.servers
    config = dispatcher or DispatcherConfig.unconstrained(streams)
    disps = [Dispatcher(server, config) for server in servers]
    disp_of = {server.name: disp for server, disp in zip(servers, disps)}
    balancer = cluster.balancer
    events = list(failover or [])
    result = ClusterThroughputResult(
        streams=streams, scale_factor=0.0, elapsed_s=0.0,
        n_servers=len(servers), routing=balancer.policy,
        sync_period_s=cluster.sync_period_s)
    clock = cluster.clock

    def process_failover(resolve_shed: Callable) -> None:
        # Event times are relative to the start of the run (the shared
        # clock already carries the load/upgrade time).
        for event in events:
            if not event.killed and clock.now - start_t >= event.at_s \
                    and servers[event.server].up:
                cluster.kill(event.server)
                event.killed = True
                event.kill_t = clock.now
                result.kills += 1
                for request in disps[event.server].drain():
                    request.requeues += 1
                    if request.requeues > config.max_requeues:
                        cluster.metrics.count("dispatcher.shed")
                        resolve_shed(
                            request,
                            f"requeue budget exhausted at "
                            f"{servers[event.server].name} crash")
                        continue
                    age = request.submitted_at
                    target = balancer.route(request.session)
                    try:
                        disp_of[target.name].submit(request.bind(target))
                    except DispatcherOverload:
                        resolve_shed(
                            request,
                            "failover overflow: surviving queue full")
                        continue
                    # The step keeps its original queue age across the
                    # re-route — the user has been waiting since then.
                    request.submitted_at = age
                    cluster.metrics.count("dispatcher.requeued")
                    if request.stream >= 0:
                        result.per_stream[request.stream].requeued += 1
            elif event.killed and not event.rejoined \
                    and event.rejoin_after_s is not None \
                    and clock.now >= event.kill_t + event.rejoin_after_s:
                cluster.rejoin(event.server)
                event.rejoined = True
                result.rejoins += 1

    start_t = clock.now
    total_span = cluster.primary.measure()
    completed_on = _run_streams(
        result, suite, update_sets, servers, disps, balancer.route,
        failover=process_failover if events else None)
    result.per_server_completed = {
        server.name: n for server, n in zip(servers, completed_on)}
    # Rejoins scheduled beyond the workload's end still happen: the
    # cluster idles (simulated time passes) until the restart window.
    for event in events:
        if event.killed and not event.rejoined \
                and event.rejoin_after_s is not None:
            target_t = event.kill_t + event.rejoin_after_s
            if clock.now < target_t:
                clock.charge(target_t - clock.now)
            cluster.rejoin(event.server)
            event.rejoined = True
            result.rejoins += 1
    cluster.monitor.finish()
    result.elapsed_s = total_span.stop()
    result.sessions_rerouted = balancer.sessions_rerouted
    result.max_read_staleness_s = cluster.max_read_staleness_s
    result.buffer_quality = cluster.buffer_quality()
    return result
