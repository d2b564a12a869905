"""Crash-fuzz over the LSM backend's flush/compaction boundaries.

The LSM adds two durability-op kinds to the boundary stream —
``lsm.flush`` (a memtable flush sealing an SSTable) and
``lsm.compaction`` (a merge replacing segments) — and recovery must be
digest-identical when the process dies at any of them.  The sweep runs
the load workload with the fuzz-sized memtable the harness configures
for LSM runs, so both kinds actually appear in the boundary census.
"""

import pytest

from repro.sim.crashfuzz import run_crash_fuzz


class TestLsmCrashFuzz:
    @pytest.fixture(scope="class")
    def report(self):
        return run_crash_fuzz(workloads=("load",), sample=5,
                              corrupt_tail_trials=1, storage="lsm")

    def test_report_records_storage(self, report):
        assert report.header["storage"] == "lsm"
        assert report.to_json()["storage"] == "lsm"

    def test_lsm_boundaries_present(self, report):
        kinds = report.cells[0].boundary_kinds
        assert kinds.get("lsm.flush", 0) > 0
        assert kinds.get("lsm.compaction", 0) > 0

    def test_every_trial_recovers_digest_identical(self, report):
        assert report.ok
        workload = report.cells[0]
        assert workload.trials
        assert all(t.digest_ok for t in workload.trials)
