"""Chaos harness: sweep invariants, JSON report, CLI exit codes."""

import json

import pytest

from repro.sim import chaos
from repro.sim.chaos import (
    CHAOS_PROFILES,
    default_chaos_config,
    run_chaos,
    run_kill_appserver,
)
from repro.sim.sweep import SweepCell, conservation

#: tiny world so the full sweep stays fast in CI
CHAOS_SF = 0.0005


def throughput(qph=0, **stream_stats):
    """A throughput result with ``qph`` queries run in one hour on one
    stream whose dispatcher accounting is ``stream_stats``."""
    from repro.core.throughput import StreamStats, ThroughputResult

    stats = StreamStats(**(stream_stats
                           or {"submitted": qph, "completed": qph}))
    return ThroughputResult(
        streams=1, scale_factor=CHAOS_SF, elapsed_s=3600.0,
        per_query={(0, f"Q{i}"): 1.0 for i in range(qph)},
        per_stream={0: stats})


def chaos_cell(streams=2, profile="none", qph=0, **facts):
    """A synthetic fault-profile cell: healthy unless told otherwise."""
    healthy = dict(wp_restarts=0, breaker_opened=0, breaker_final="closed",
                   breaker_recovered=True, alerts_fired=0,
                   alerts_by_rule={})
    return SweepCell({"streams": streams, "profile": profile},
                     f"S={streams} {profile}", throughput(qph),
                     facts={**healthy, **facts})


def scaleout_cell(n_servers=2, kill=False, qph=1000, **facts):
    """A synthetic kill-appserver cell: healthy unless told otherwise."""
    healthy = dict(
        server_crashes=int(kill), max_read_staleness_s=0.0,
        alerts_by_rule={"appserver_down": 1} if kill else {},
        recovered=True)
    return SweepCell({"n_servers": n_servers, "kill": kill,
                      "sync_period_s": 5.0},
                     f"N={n_servers}{' kill' if kill else ''}",
                     throughput(qph), facts={**healthy, **facts})


#: a run that lost a query: 10 submitted, 7 + 1 + 1 accounted for
LOSSY = dict(qph=7, submitted=10, completed=7, shed=1, rejected=1)


@pytest.fixture(scope="module")
def report():
    return run_chaos(scale_factor=CHAOS_SF, stream_counts=(2,),
                     profiles=("none", "light", "heavy"),
                     update_pairs=1)


class TestInvariants:
    def test_sweep_holds_all_invariants(self, report):
        assert report.violations == []
        assert report.ok

    def test_conservation_per_cell(self, report):
        for cell in report.cells:
            assert cell.conserved
            assert cell.submitted == \
                cell.completed + cell.shed + cell.rejected
            assert cell.updates_submitted == \
                cell.updates_run + cell.updates_shed

    def test_heavy_storm_trips_and_recovers_breaker(self, report):
        heavy = report.cell(2, "heavy")
        assert heavy.breaker_opened >= 1
        assert heavy.breaker_recovered
        assert heavy.breaker_final == "closed"

    def test_monotone_degradation(self, report):
        none = report.cell(2, "none")
        light = report.cell(2, "light")
        heavy = report.cell(2, "heavy")
        assert none.queries_per_hour >= light.queries_per_hour
        assert light.queries_per_hour >= heavy.queries_per_hour

    def test_fault_free_cell_is_clean(self, report):
        none = report.cell(2, "none")
        assert none.shed == 0
        assert none.requeued == 0
        assert none.wp_restarts == 0
        assert none.breaker_opened == 0

    def test_crashes_surface_as_requeues(self, report):
        # both fault profiles crash work processes at this scale
        light = report.cell(2, "light")
        heavy = report.cell(2, "heavy")
        assert light.wp_restarts + heavy.wp_restarts >= 1
        assert light.requeued + heavy.requeued >= 1


class TestAlerts:
    def test_heavy_storm_fires_ccms_alerts(self, report):
        heavy = report.cell(2, "heavy")
        assert heavy.alerts_fired >= 1
        assert heavy.alerts_by_rule.get("breaker_tripped", 0) >= 1

    def test_none_profile_stays_silent(self, report):
        none = report.cell(2, "none")
        assert none.alerts_fired == 0
        assert none.alerts_by_rule == {}

    def test_json_carries_alert_firings(self, report):
        doc = report.to_json()
        for cell in doc["cells"]:
            assert "alerts" in cell
            assert set(cell["alerts"]) == {"fired", "by_rule"}
        heavy = next(c for c in doc["cells"] if c["profile"] == "heavy")
        assert heavy["alerts"]["fired"] >= 1

    def test_render_shows_alert_column(self, report):
        assert "Alerts" in report.render()

    def test_silent_none_cell_is_a_violation(self):
        noisy = chaos_cell(alerts_fired=1,
                           alerts_by_rule={"queue_wait_high": 1})
        assert chaos.alert_silence([chaos_cell(), noisy]) == [
            "S=2 none: 1 alert(s) fired without injected faults "
            "({'queue_wait_high': 1})"]
        # the same alert under an injected storm is expected, not flagged
        assert chaos.alert_silence(
            [chaos_cell(profile="heavy", alerts_fired=1)]) == []


class TestReport:
    def test_json_shape(self, report):
        doc = report.to_json()
        assert doc["format"] == "repro-chaos-v1"
        assert doc["scale_factor"] == CHAOS_SF
        assert doc["ok"] is True
        assert len(doc["cells"]) == 3
        cell = doc["cells"][0]
        for key in ("streams", "profile", "queries_per_hour",
                    "submitted", "completed", "shed", "rejected",
                    "updates", "breaker", "conserved"):
            assert key in cell
        json.dumps(doc)  # round-trippable

    def test_render_mentions_verdict(self, report):
        text = report.render()
        assert "Chaos sweep" in text
        assert "All invariants hold" in text
        assert "heavy" in text

    def test_cell_lookup(self, report):
        assert report.cell(2, "none").profile == "none"
        with pytest.raises(KeyError):
            report.cell(99, "none")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(scale_factor=CHAOS_SF, profiles=("nope",))

    def test_violations_render_when_present(self, report):
        import copy

        broken = copy.copy(report)
        broken.cells = [SweepCell(report.cells[0].key, "S=2 none",
                                  throughput(**LOSSY),
                                  report.cells[0].facts,
                                  report.cells[0].layout)]
        assert not broken.check().ok
        assert broken.to_json()["violations"] == broken.violations
        text = broken.render()
        assert "Invariant violations:" in text
        assert "S=2 none: conservation violated" in text
        assert "VIOLATED" in text and "All invariants hold" not in text
        assert report.ok  # the shared fixture was not touched


class TestProfiles:
    def test_profile_severity_ordering(self):
        light = CHAOS_PROFILES["light"]
        heavy = CHAOS_PROFILES["heavy"]
        assert heavy.disk_error_every < light.disk_error_every
        assert heavy.connection_drop_every < light.connection_drop_every
        assert heavy.work_process_crash_every < \
            light.work_process_crash_every

    def test_heavy_burst_exceeds_retry_budget(self):
        from repro.sim.params import SimParams

        params = SimParams()
        # the storm must outlast the per-call retry ladder long enough
        # to produce breaker_failure_threshold consecutive failures
        needed = (params.dbif_max_retries + 1) * \
            params.breaker_failure_threshold
        assert CHAOS_PROFILES["heavy"].connection_drop_burst >= needed

    def test_default_config_is_constrained(self):
        config = default_chaos_config()
        assert config.dialog_processes == 4
        assert config.queue_capacity == 8
        assert config.queue_wait_deadline_s is not None


class TestCli:
    def test_smoke_command_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out_file = tmp_path / "chaos.json"
        rc = main(["chaos", "--streams", "2", "--profile", "light",
                   "--sf", str(CHAOS_SF), "--format", "json",
                   "--chaos-out", str(out_file)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-chaos-v1"
        assert json.loads(out_file.read_text()) == doc

    def test_text_output(self, capsys):
        from repro.__main__ import main

        rc = main(["chaos", "--streams", "2", "--profile", "none",
                   "--sf", str(CHAOS_SF)])
        assert rc == 0
        assert "Chaos sweep" in capsys.readouterr().out

    @staticmethod
    def _exit_code(argv):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        return exit_info.value.code

    def test_bad_streams_value(self, capsys):
        assert self._exit_code(["chaos", "--streams", "two"]) == 2
        assert self._exit_code(["chaos", "--streams", "0"]) == 2

    def test_chrome_format_rejected(self, capsys):
        assert self._exit_code(["chaos", "--format", "chrome"]) == 2

    def test_unknown_profile_value_rejected(self, capsys):
        assert self._exit_code(["chaos", "--profile", "nope"]) == 2
        err = capsys.readouterr().err
        assert "--profile" in err and "'nope'" in err


class TestSyntheticInvariants:
    """Each invariant is a pure function of the cells: feed it one bad
    cell among healthy ones and it names exactly that cell."""

    def test_healthy_cells_pass_every_invariant(self):
        sweep = [chaos_cell(profile=p, qph=q) for p, q in
                 (("none", 900), ("light", 800), ("heavy", 100))]
        for invariant in (conservation, chaos.breaker_recovery,
                          chaos.alert_silence,
                          chaos.monotone_degradation):
            assert invariant(sweep) == []
        scaleout = [scaleout_cell(1), scaleout_cell(2, qph=2000),
                    scaleout_cell(2, kill=True, qph=1500),
                    scaleout_cell(4, qph=4000),
                    scaleout_cell(4, kill=True, qph=3600)]
        for invariant in (conservation, chaos.bounded_staleness,
                          chaos.steady_state_after_recovery,
                          chaos.kill_is_observed, chaos.kill_never_helps,
                          chaos.shrinking_failover_impact):
            assert invariant(scaleout) == []

    def test_non_conserved_cell(self):
        lossy = SweepCell({"streams": 4, "profile": "light"},
                          "S=4 light", throughput(**LOSSY))
        assert conservation([chaos_cell(qph=5), lossy]) == [
            "S=4 light: conservation violated — submitted 10 != "
            "completed 7 + shed 1 + rejected 1"]

    def test_stuck_breaker(self):
        stuck = chaos_cell(profile="heavy", breaker_final="open",
                           breaker_recovered=False)
        assert chaos.breaker_recovery([chaos_cell(), stuck]) == [
            "S=2 heavy: breaker stuck 'open' after the storm ended"]

    def test_heavier_profile_outruns_a_lighter_one(self):
        cells = [chaos_cell(profile="none", qph=900),
                 chaos_cell(profile="light", qph=950),
                 chaos_cell(profile="heavy", qph=100),
                 # another stream count is judged on its own
                 chaos_cell(streams=4, profile="none", qph=10)]
        (message,) = chaos.monotone_degradation(cells)
        assert message.startswith("S=2: light yields 950.0 q/h > none "
                                  "900.0 q/h")

    def test_read_staler_than_the_sync_period(self):
        stale = scaleout_cell(2, max_read_staleness_s=5.0)
        assert chaos.bounded_staleness([scaleout_cell(4), stale]) == [
            "N=2: buffered read served 5.000s stale >= sync period 5.0s"]
        # a single server has no sync period and nothing to bound
        lone = scaleout_cell(1, max_read_staleness_s=9.0)
        lone.key["sync_period_s"] = None
        assert chaos.bounded_staleness([lone]) == []

    def test_kill_cell_faster_than_its_baseline(self):
        cells = [scaleout_cell(2, qph=1000),
                 scaleout_cell(2, kill=True, qph=1100)]
        (message,) = chaos.kill_never_helps(cells)
        assert message.startswith("N=2: kill cell yields 1,100.0 q/h > "
                                  "baseline 1,000.0 q/h")

    def test_failover_drop_that_grows_with_n(self):
        cells = [scaleout_cell(2, qph=1000),
                 scaleout_cell(2, kill=True, qph=900),
                 scaleout_cell(4, qph=1000),
                 scaleout_cell(4, kill=True, qph=700)]
        assert chaos.shrinking_failover_impact(cells) == [
            "failover impact grows with scale: losing 1 of 4 costs "
            "30.0% > losing 1 of 2 costs 10.0%"]

    def test_unrecovered_server(self):
        down = scaleout_cell(2, kill=True, recovered=False)
        assert chaos.steady_state_after_recovery(
            [scaleout_cell(2), down]) == [
            "N=2 kill: post-recovery steady state violated (server "
            "down, breaker open, or probe failed)"]

    def test_kill_that_nobody_noticed(self):
        silent = scaleout_cell(2, kill=True, server_crashes=0,
                               alerts_by_rule={})
        jumpy = scaleout_cell(4, alerts_by_rule={"appserver_down": 1})
        assert chaos.kill_is_observed([silent, jumpy]) == [
            "N=2 kill: kill cell saw no crash",
            "N=2 kill: appserver_down alert did not fire on a kill",
            "N=4: appserver_down fired without a kill"]


class TestScaleout:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_kill_appserver(scale_factor=CHAOS_SF,
                                  server_counts=(1, 2), streams=3,
                                  update_pairs=1)

    def test_sweep_holds_all_invariants(self, sweep):
        assert sweep.violations == []
        assert sweep.ok

    def test_cells_are_baseline_then_kill(self, sweep):
        assert [(c.n_servers, c.kill) for c in sweep.cells] == [
            (1, False), (2, False), (2, True)]
        assert sweep.cell(2, True).server_crashes == 1
        assert sweep.cell(2, True).sessions_rerouted >= 1
        assert sweep.cell(1, False).sync_period_s is None
        with pytest.raises(KeyError):
            sweep.cell(4, False)

    def test_json_key_set_is_pinned(self, sweep):
        doc = sweep.to_json()
        assert set(doc) == {"format", "scale_factor", "streams",
                            "routing", "sync_period_s", "cells",
                            "violations", "ok"}
        assert doc["format"] == "repro-scaleout-chaos-v1"
        assert doc["ok"] is True
        for cell in doc["cells"]:
            assert set(cell) == {
                "n_servers", "kill", "routing", "sync_period_s",
                "streams", "elapsed_s", "queries_per_hour", "submitted",
                "completed", "shed", "rejected", "requeued",
                "queue_wait_s", "updates", "per_server_completed",
                "failover", "coherence", "shed_reasons",
                "alerts_by_rule", "conserved", "recovered"}
            assert set(cell["updates"]) == {"submitted", "run", "shed"}
            assert set(cell["failover"]) == {
                "server_crashes", "server_rejoins", "sessions_rerouted"}
            assert set(cell["coherence"]) == {
                "ddlog_invalidations", "stale_reads_prevented",
                "max_read_staleness_s", "buffer_quality"}
        json.dumps(doc)

    def test_render_mentions_verdict(self, sweep):
        text = sweep.render()
        assert "Kill-appserver sweep" in text and "3 streams" in text
        assert "All invariants hold" in text and "kill" in text

    def test_kill_needs_a_second_server(self):
        from repro.errors import UsageError

        with pytest.raises(UsageError):  # before any data is touched
            chaos.run_scaleout_cell(None, 1, 2, CHAOS_SF, kill=True)
