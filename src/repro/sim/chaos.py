"""Chaos harness: throughput under overload × fault storms.

Darmont's benchmark survey stresses that *multi-user runs under
saturation* — not single-stream power runs — are what expose a
system's real robustness.  This harness sweeps stream counts × fault
profiles over the dispatcher-scheduled throughput test and asserts the
invariants that make the overload machinery trustworthy:

1. **conservation** — per cell, every submitted query is accounted
   for exactly once (:func:`repro.sim.sweep.conservation`);
2. **breaker recovery** — after the fault storm ends, the DBIF
   circuit breaker returns to *closed* (a half-open probe after the
   cooldown succeeds against the healthy backend);
3. **monotone degradation** — at a fixed stream count, a strictly
   heavier fault profile never yields *more* queries/hour;
4. **alert silence** — the workload monitor's default CCMS rules fire
   zero alerts on ``none``-profile cells (no faults, no alarms; the
   heavy profile's breaker trip firing ≥ 1 alert is asserted in the
   test suite rather than as a sweep invariant, since tiny custom
   sweeps need not provoke the breaker).

The kill-appserver scenario in the second half runs the same machinery
over a multi-server cluster with a mid-run crash.  Both are data on the
core in :mod:`repro.sim.sweep`: a cell layout, a column list and a
tuple of invariants, each a pure function of the cells.
"""

from __future__ import annotations

from repro.errors import UsageError
from repro.r3.dbif import BreakerState
from repro.r3.dispatcher import DispatcherConfig
from repro.sim.faults import FaultProfile
from repro.sim.sweep import SweepCell, SweepReport, conservation

#: Chaos fault profiles, tuned to the operation counts of the open30
#: suite at small scale factors (~20 DBIF round trips and ~3000 disk
#: ops per stream at SF 0.001).  ``light`` is retryable noise: every
#: fault is absorbed by a retry ladder, the run completes with a time
#: penalty.  ``heavy`` is a storm: connection-drop bursts longer than
#: the DBIF retry budget trip the circuit breaker, work processes
#: crash and the dispatcher sheds — the run degrades instead of dying.
#: Listed lightest first.
CHAOS_PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "light": FaultProfile(
        name="chaos-light", seed=1996,
        disk_error_every=300, connection_drop_every=25,
        work_process_crash_every=30, jitter=0.2,
    ),
    "heavy": FaultProfile(
        name="chaos-heavy", seed=1996,
        disk_error_every=60, connection_drop_every=8,
        connection_drop_burst=18, work_process_crash_every=12, jitter=0.2,
    ),
}


def _constrained_pool(dialog_processes: int) -> DispatcherConfig:
    return DispatcherConfig(
        dialog_processes=dialog_processes,
        update_processes=1,
        queue_capacity=8,
        queue_wait_deadline_s=120.0,
        shed_highwater=0.75,
    )


def default_chaos_config() -> DispatcherConfig:
    """The constrained pool the sweep runs against: 4 dialog processes,
    a bounded queue and a queue-wait deadline, so stream counts past
    the pool size actually contend."""
    return _constrained_pool(4)


# -- fault-profile sweep: layout, columns, invariants ---------------------

_CHAOS_LAYOUT = {
    "wp_restarts": "wp_restarts",
    "breaker": {"opened": "breaker_opened", "final": "breaker_final",
                "recovered": "breaker_recovered"},
    "alerts": {"fired": "alerts_fired", "by_rule": "alerts_by_rule"},
}

_CHAOS_COLUMNS = (
    ("S", lambda c: c.streams),
    ("Profile", lambda c: c.profile),
    ("q/h", lambda c: f"{c.queries_per_hour:,.0f}"),
    ("Done", lambda c: c.completed),
    ("Shed", lambda c: c.shed),
    ("Rej", lambda c: c.rejected),
    ("Requeue", lambda c: c.requeued),
    ("Qwait s", lambda c: f"{c.queue_wait_s:.1f}"),
    ("Brk", lambda c: c.breaker_opened),
    ("Alerts", lambda c: c.alerts_fired),
    ("Invariants", lambda c: "ok" if c.conserved and c.breaker_recovered
     else "VIOLATED"),
)


def breaker_recovery(cells: list[SweepCell]) -> list[str]:
    """Once the storm is over the DBIF breaker is closed again."""
    return [
        f"{cell.tag}: breaker stuck {cell.breaker_final!r} after the "
        f"storm ended"
        for cell in cells if not cell.breaker_recovered]


def alert_silence(cells: list[SweepCell]) -> list[str]:
    """No injected faults, no CCMS alerts."""
    return [
        f"{cell.tag}: {cell.alerts_fired} alert(s) fired without "
        f"injected faults ({cell.alerts_by_rule})"
        for cell in cells
        if cell.profile == "none" and cell.alerts_fired]


def monotone_degradation(cells: list[SweepCell]) -> list[str]:
    """Within a stream count, a heavier profile must not complete more
    work per hour (tiny tolerance for float division noise)."""
    severity = list(CHAOS_PROFILES)
    found = []
    for streams in dict.fromkeys(cell.streams for cell in cells):
        ranked = sorted(
            (c for c in cells if c.streams == streams),
            key=lambda c: severity.index(c.profile)
            if c.profile in severity else len(severity))
        for lighter, heavier in zip(ranked, ranked[1:]):
            if heavier.queries_per_hour > lighter.queries_per_hour * (
                    1 + 1e-9):
                found.append(
                    f"S={streams}: {heavier.profile} yields "
                    f"{heavier.queries_per_hour:,.1f} q/h > "
                    f"{lighter.profile} "
                    f"{lighter.queries_per_hour:,.1f} q/h — "
                    f"degradation is not monotone")
    return found


def run_chaos_cell(data, streams: int, profile: FaultProfile,
                   scale_factor: float,
                   update_pairs: int = 2,
                   name: str | None = None) -> SweepCell:
    """Run one (streams, profile) cell on a fresh system.

    ``name`` is the sweep key recorded on the cell (defaults to the
    profile's own name).
    """
    from repro.core.powertest import build_sap_system
    from repro.core.throughput import run_throughput_test
    from repro.r3.appserver import R3Version
    from repro.reports import open30
    from repro.tpcd.dbgen import generate_update_pairs

    r3 = build_sap_system(data, R3Version.V30)
    r3.monitor.enable()
    suite = open30.make_queries(scale_factor)
    base = r3.metrics.snapshot()
    r3.attach_faults(profile)
    result = run_throughput_test(
        r3, suite, streams=streams,
        update_sets=generate_update_pairs(data, update_pairs),
        dispatcher=default_chaos_config())
    r3.detach_faults()

    breaker = r3.dbif.breaker
    # Breaker and alert totals are captured before the recovery probe
    # below: the probe is harness bookkeeping, not part of the measured
    # storm.
    storm = dict(
        wp_restarts=int(base.get("dispatcher.wp_restarts")),
        breaker_opened=breaker.opened_count,
        alerts_fired=r3.monitor.alerts.fired_total,
        alerts_by_rule=r3.monitor.alerts.fired_by_rule())

    # Breaker recovery: the storm is over (faults detached).  If the
    # breaker is not closed, wait out the cooldown on the simulated
    # clock and send a probe — against the healthy backend it must
    # succeed and re-close the breaker.
    if breaker.state is not BreakerState.CLOSED:
        r3.clock.charge(breaker.cooldown_s)
        suite[1](r3)
    name = name or profile.name
    return SweepCell(
        {"streams": streams, "profile": name}, f"S={streams} {name}",
        result, layout=_CHAOS_LAYOUT, facts=dict(
            storm, breaker_final=breaker.state.value,
            breaker_recovered=breaker.state is BreakerState.CLOSED))


def run_chaos(
    scale_factor: float = 0.001,
    stream_counts: tuple[int, ...] = (2, 4, 8),
    profiles: tuple[str, ...] = ("none", "light", "heavy"),
    data=None,
    update_pairs: int = 2,
) -> SweepReport:
    """Sweep ``stream_counts`` × ``profiles`` and check the invariants."""
    from repro.tpcd.dbgen import generate

    unknown = [p for p in profiles if p not in CHAOS_PROFILES]
    if unknown:
        raise UsageError(f"unknown chaos profile(s): {unknown}; "
                         f"choose from {sorted(CHAOS_PROFILES)}")
    data = data if data is not None else generate(scale_factor)
    report = SweepReport(
        format="repro-chaos-v1",
        header={"scale_factor": scale_factor},
        title=f"Chaos sweep at SF={scale_factor} "
              f"(dispatcher-scheduled throughput)",
        columns=_CHAOS_COLUMNS,
        invariants=(conservation, breaker_recovery, alert_silence,
                    monotone_degradation),
        key_fields=("streams", "profile"),
        all_clear="All invariants hold: conservation, breaker "
                  "recovery, monotone degradation.")
    report.cells = [
        run_chaos_cell(data, streams, CHAOS_PROFILES[name], scale_factor,
                       update_pairs=update_pairs, name=name)
        for streams in stream_counts for name in profiles]
    return report.check()


# -- kill-appserver scenario (multi-server scale-out) ---------------------

#: tables buffered on every server of a scale-out cell: the SELECT
#: SINGLE targets of the open30 suite (lfa1) and the update stream's
#: existence checks (vbak) — vbak is also what UF1/UF2 write, so the
#: DDLOG actually carries invalidations between servers.
SCALEOUT_BUFFERED_TABLES = {"vbak": 256 * 1024, "lfa1": 64 * 1024}


#: a kill cell's server crashes at this share of its baseline's elapsed
#: time, and rejoins this share of it later
KILL_FRACTION = 0.3
REJOIN_FRACTION = 0.25


def default_scaleout_config() -> DispatcherConfig:
    """The per-server pool for scale-out cells: 2 dialog processes and
    a bounded queue per server, so adding servers adds real service
    capacity (more pool slots, shorter queues) and losing one hurts."""
    return _constrained_pool(2)


_SCALEOUT_LAYOUT = {
    "per_server_completed": "per_server_completed",
    "failover": {name: name for name in (
        "server_crashes", "server_rejoins", "sessions_rerouted")},
    "coherence": {name: name for name in (
        "ddlog_invalidations", "stale_reads_prevented",
        "max_read_staleness_s", "buffer_quality")},
    "alerts_by_rule": "alerts_by_rule",
    "recovered": "recovered",
}

_SCALEOUT_COLUMNS = (
    ("N", lambda c: c.n_servers),
    ("Fail", lambda c: "kill" if c.kill else "-"),
    ("q/h", lambda c: f"{c.queries_per_hour:,.0f}"),
    ("Done", lambda c: c.completed),
    ("Shed", lambda c: c.shed),
    ("Rej", lambda c: c.rejected),
    ("Reroute", lambda c: c.sessions_rerouted),
    ("DDLOG", lambda c: c.ddlog_invalidations),
    ("StaleRd", lambda c: c.stale_reads_prevented),
    ("MaxStale s", lambda c: f"{c.max_read_staleness_s:.3f}"),
    ("BufQ", lambda c: f"{c.buffer_quality:.2f}"
     if c.buffer_quality is not None else "-"),
    ("Invariants", lambda c: "ok" if c.conserved and c.recovered
     else "VIOLATED"),
)


def bounded_staleness(cells: list[SweepCell]) -> list[str]:
    """No buffered read is served under a staleness bound of one sync
    period or more."""
    return [
        f"{cell.tag}: buffered read served "
        f"{cell.max_read_staleness_s:.3f}s stale >= sync period "
        f"{cell.sync_period_s}s"
        for cell in cells
        if cell.sync_period_s is not None
        and cell.max_read_staleness_s >= cell.sync_period_s]


def steady_state_after_recovery(cells: list[SweepCell]) -> list[str]:
    """After the run every server is up, breakers are closed and the
    rejoined server completes a probe query."""
    return [
        f"{cell.tag}: post-recovery steady state violated (server "
        f"down, breaker open, or probe failed)"
        for cell in cells if not cell.recovered]


def kill_is_observed(cells: list[SweepCell]) -> list[str]:
    """A kill cell sees its crash and the ``appserver_down`` alert; a
    baseline cell sees neither."""
    found = []
    for cell in cells:
        alerted = cell.alerts_by_rule.get("appserver_down")
        if cell.kill and cell.server_crashes < 1:
            found.append(f"{cell.tag}: kill cell saw no crash")
        if cell.kill and not alerted:
            found.append(f"{cell.tag}: appserver_down alert did not "
                         f"fire on a kill")
        if not cell.kill and alerted:
            found.append(f"{cell.tag}: appserver_down fired without "
                         f"a kill")
    return found


def _kill_pairs(cells: list[SweepCell]):
    """``(baseline, kill cell)`` per server count, in sweep order."""
    baselines = {c.n_servers: c for c in cells if not c.kill}
    return [(baselines[c.n_servers], c) for c in cells
            if c.kill and c.n_servers in baselines]


def kill_never_helps(cells: list[SweepCell]) -> list[str]:
    """A kill cell's queries/hour cannot exceed its own baseline's."""
    return [
        f"N={kill.n_servers}: kill cell yields "
        f"{kill.queries_per_hour:,.1f} q/h > baseline "
        f"{base.queries_per_hour:,.1f} q/h — a crash must not improve "
        f"throughput"
        for base, kill in _kill_pairs(cells)
        if kill.queries_per_hour > base.queries_per_hour * (1 + 1e-9)]


def shrinking_failover_impact(cells: list[SweepCell]) -> list[str]:
    """The *relative* throughput drop a single crash causes does not
    grow with the server count (losing 1 of 4 servers hurts no more
    than losing 1 of 2)."""
    drops = [
        (kill.n_servers,
         1.0 - kill.queries_per_hour / base.queries_per_hour)
        for base, kill in _kill_pairs(cells)
        if base.queries_per_hour > 0]
    return [
        f"failover impact grows with scale: losing 1 of {n_large} "
        f"costs {drop_large:.1%} > losing 1 of {n_small} costs "
        f"{drop_small:.1%}"
        for (n_small, drop_small), (n_large, drop_large)
        in zip(drops, drops[1:])
        if drop_large > drop_small + 1e-9]


def run_scaleout_cell(data, n_servers: int, streams: int,
                      scale_factor: float,
                      routing: str = "sticky",
                      sync_period_s: float = 5.0,
                      kill: bool = False,
                      kill_at_s: float = 0.0,
                      rejoin_after_s: float | None = None,
                      update_pairs: int = 2) -> SweepCell:
    """Run one scale-out cell on a fresh cluster.

    With ``kill`` set, server ``n_servers - 1`` crashes at
    ``kill_at_s`` and (optionally) rejoins ``rejoin_after_s`` later;
    afterwards the cell checks post-recovery steady state: every
    server back up with a closed breaker, and a probe query through
    the rejoined server completing.
    """
    from repro.core.throughput import run_cluster_throughput_test
    from repro.r3.appserver import R3Version
    from repro.r3.cluster import ServerKill, build_sap_cluster
    from repro.reports import open30
    from repro.tpcd.dbgen import generate_update_pairs

    if kill and n_servers < 2:
        raise UsageError("kill requires n_servers >= 2")
    cluster = build_sap_cluster(
        data, R3Version.V30, n_servers=n_servers,
        sync_period_s=sync_period_s if n_servers > 1 else None,
        routing=routing, buffered_tables=SCALEOUT_BUFFERED_TABLES)
    cluster.monitor.enable()
    suite = open30.make_queries(scale_factor)
    failover = [ServerKill(at_s=kill_at_s, server=n_servers - 1,
                           rejoin_after_s=rejoin_after_s)] if kill else None
    result = run_cluster_throughput_test(
        cluster, suite, streams=streams,
        update_sets=generate_update_pairs(data, update_pairs),
        dispatcher=default_scaleout_config(),
        failover=failover)

    # Counters and alerts are read before the probe below: the probe is
    # harness bookkeeping, not part of the measured run.
    facts = {name: int(cluster.metrics.get(f"cluster.{name}"))
             for name in ("server_crashes", "server_rejoins",
                          "ddlog_invalidations", "stale_reads_prevented")}
    facts["alerts_by_rule"] = cluster.monitor.alerts.fired_by_rule()
    # Post-recovery steady state: every server is back in rotation
    # with a closed breaker, and the crashed server itself serves a
    # probe query end to end (cold buffers, fresh cursor cache).
    recovered = all(
        server.up and server.dbif.breaker.state is BreakerState.CLOSED
        for server in cluster.servers)
    if kill and recovered:
        try:
            suite[1](cluster.servers[n_servers - 1])
        except Exception:          # noqa: BLE001 — any failure = not steady
            recovered = False
    facts["recovered"] = recovered
    return SweepCell(
        {"n_servers": n_servers, "kill": kill, "routing": routing,
         "sync_period_s": cluster.sync_period_s, "streams": streams},
        f"N={n_servers}{' kill' if kill else ''}",
        result, facts, _SCALEOUT_LAYOUT)


def run_kill_appserver(
    scale_factor: float = 0.001,
    server_counts: tuple[int, ...] = (1, 2, 4),
    streams: int = 6,
    routing: str = "sticky",
    sync_period_s: float = 5.0,
    update_pairs: int = 2,
) -> SweepReport:
    """Sweep server counts with and without a mid-run app-server crash.

    Per count N >= 2 the sweep runs a no-kill baseline and a kill cell
    (crash at :data:`KILL_FRACTION` of the baseline's elapsed time,
    rejoin :data:`REJOIN_FRACTION` of it later) and asserts
    **conservation** in every cell, :func:`bounded_staleness`,
    :func:`kill_never_helps`, :func:`shrinking_failover_impact` and
    :func:`steady_state_after_recovery`, plus the bookkeeping check
    :func:`kill_is_observed`.
    """
    from repro.tpcd.dbgen import generate

    data = generate(scale_factor)
    report = SweepReport(
        format="repro-scaleout-chaos-v1",
        header={"scale_factor": scale_factor, "streams": streams,
                "routing": routing, "sync_period_s": sync_period_s},
        title=f"Kill-appserver sweep at SF={scale_factor} "
              f"({streams} streams, {routing} routing, "
              f"sync={sync_period_s}s)",
        columns=_SCALEOUT_COLUMNS,
        invariants=(conservation, bounded_staleness,
                    steady_state_after_recovery, kill_is_observed,
                    kill_never_helps, shrinking_failover_impact),
        key_fields=("n_servers", "kill"),
        all_clear="All invariants hold: conservation, bounded "
                  "staleness, kill-never-helps, shrinking failover "
                  "impact, post-recovery steady state.")
    for n_servers in server_counts:
        cell = run_scaleout_cell(
            data, n_servers, streams, scale_factor, routing=routing,
            sync_period_s=sync_period_s, kill=False,
            update_pairs=update_pairs)
        report.cells.append(cell)
        if n_servers >= 2:
            report.cells.append(run_scaleout_cell(
                data, n_servers, streams, scale_factor, routing=routing,
                sync_period_s=sync_period_s, kill=True,
                kill_at_s=cell.elapsed_s * KILL_FRACTION,
                rejoin_after_s=cell.elapsed_s * REJOIN_FRACTION,
                update_pairs=update_pairs))
    return report.check()
