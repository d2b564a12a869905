"""Crash-point fuzz harness: sampling, report format, small live sweep."""

import json

import pytest

from repro.sim.crashfuzz import (
    FUZZ_WORKLOADS,
    CrashTrial,
    FuzzCell,
    _sample_boundaries,
    digests_match,
    run_crash_fuzz,
)


class TestSampleBoundaries:
    def test_exhaustive_when_sample_is_none(self):
        assert _sample_boundaries(5, None) == [1, 2, 3, 4, 5]

    def test_includes_first_and_last(self):
        ks = _sample_boundaries(1000, 6)
        assert ks[0] == 1
        assert ks[-1] == 1000
        assert len(ks) == 6
        assert ks == sorted(set(ks))

    def test_sample_larger_than_total_is_exhaustive(self):
        assert _sample_boundaries(4, 100) == [1, 2, 3, 4]


class TestReportShape:
    def test_workload_report_divergences(self):
        report = FuzzCell(
            workload="load", boundaries=10,
            boundary_kinds={"wal.flush": 10}, reference_digest="abc",
            trials=[
                CrashTrial(k=1, mode="clean", digest_ok=True),
                CrashTrial(k=2, mode="torn", digest_ok=False),
                CrashTrial(k=3, mode="clean", digest_ok=True,
                           error="boom"),
            ],
        )
        assert not report.ok
        assert len(report.divergences) == 2
        assert digests_match([report]) == [
            "load k=2 mode=torn kind=: digest mismatch",
            "load k=3 mode=clean kind=: boom"]

    def test_workload_names_are_registered(self):
        assert FUZZ_WORKLOADS == ("load", "uf", "power")


class TestLiveSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return run_crash_fuzz(workloads=("load",), sample=4,
                              corrupt_tail_trials=1)

    def test_every_trial_recovers(self, report):
        assert report.ok
        workload = report.cells[0]
        assert workload.boundaries > 0
        assert all(t.digest_ok for t in workload.trials)

    def test_covers_all_modes(self, report):
        modes = {t.mode for t in report.cells[0].trials}
        assert modes == {"clean", "torn", "corrupt-tail"}

    def test_checkpoint_boundaries_present(self, report):
        kinds = report.cells[0].boundary_kinds
        assert "checkpoint.begin" in kinds
        assert "checkpoint.end" in kinds
        assert "wal.fsync" in kinds

    def test_torn_trials_recover(self, report):
        torn = [t for t in report.cells[0].trials
                if t.mode == "torn"]
        assert torn and all(t.digest_ok for t in torn)
        # injection only bites when the crash lands on a flush boundary
        for trial in torn:
            if trial.kind == "wal.flush":
                assert trial.torn_frames > 0

    def test_json_roundtrip(self, report):
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["format"] == "repro-crashfuzz-v1"
        assert payload["ok"] is True
        trials = payload["workloads"][0]["trials"]
        assert all("k" in t and "mode" in t for t in trials)

    def test_render_mentions_verdict(self, report):
        text = report.render()
        assert "load" in text
        assert "ok" in text


class TestRecoverCli:
    """``python -m repro recover``: one census, one trial, two renderings."""

    ARGV = ["recover", "--sf", "0.0002", "--fuzz-workloads", "uf",
            "--crash-at", "7", "--torn"]

    def test_json(self, capsys):
        from repro.__main__ import main

        assert main([*self.ARGV, "--format", "json"]) == 0
        trial = json.loads(capsys.readouterr().out)
        assert set(trial) == {
            "k", "mode", "kind", "crashed", "torn_frames",
            "tail_corrupted", "recovered", "resumed", "digest_ok",
            "loser_txns", "redo_applied", "undo_applied",
            "torn_tail_dropped", "error", "ok"}
        assert trial["k"] == 7 and trial["mode"] == "torn"
        assert trial["crashed"] and trial["recovered"] and trial["resumed"]
        assert trial["ok"] is True and trial["error"] == ""

    def test_text(self, capsys):
        from repro.__main__ import main

        assert main(self.ARGV) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("workload 'uf': ")
        assert "durability boundaries (" in out[0]
        assert out[1].startswith("crashed at boundary 7 (")
        assert out[1].endswith("mode torn")
        assert out[2].startswith("recovery: losers=")
        assert out[3] == ("resumed: True; recovered digest matches the "
                          "uncrashed reference")
        assert len(out) == 4
