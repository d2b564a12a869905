"""CCMS over the LSM: compaction-backlog gauge, alert hysteresis,
and structural silence on heap-only databases.

The ``compaction_backlog`` gauge (pending L0 segments across all
tables) is attached only when the database runs the LSM backend, so a
heap run never samples it and the ``compaction_backlog_high`` rule's
streaks never move — the same structural-silence discipline every
default CCMS rule follows.
"""

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.monitor.alerts import default_alert_rules
from repro.sim.params import SimParams


def _schema() -> TableSchema:
    return TableSchema(
        "t",
        [Column("id", SqlType.integer()), Column("v", SqlType.char(8))],
        ["id"],
    )


#: L0 runs that trigger a compaction: more than any test stacks
STACKING = 100


def _db(storage: str) -> Database:
    params = SimParams()
    params.lsm_memtable_bytes = 1024
    params.lsm_l0_compaction_trigger = STACKING
    db = Database(params=params, storage=storage)
    db.create_table(_schema())
    db.monitor.enable()
    return db


def _stack_l0(db: Database, segments: int) -> None:
    """Flush ``segments`` L0 runs, fewer than trigger a compaction."""
    table = db.catalog.table("t")
    base = table.row_count
    for i in range(segments):
        table.insert((base + i, f"s{i}"))
        table.store.flush_memtable()


class TestCompactionBacklogRule:
    def test_rule_is_in_the_default_set(self):
        rules = {rule.name: rule for rule in default_alert_rules()}
        rule = rules["compaction_backlog_high"]
        assert (rule.gauge, rule.op, rule.threshold) == \
            ("compaction_backlog", ">=", 4)
        assert rule.fire_after == 2 and rule.clear_after == 2

    def test_heap_run_is_structurally_silent(self):
        db = _db("heap")
        table = db.catalog.table("t")
        for i in range(50):
            table.insert((i, f"v{i}"))
        db.clock.charge(1.0)
        db.monitor.sample()
        db.clock.charge(1.0)
        db.monitor.sample()
        assert "compaction_backlog" not in db.monitor.series
        assert not any(e.rule == "compaction_backlog_high"
                       for e in db.monitor.alerts.events)

    def test_lsm_gauge_sampled_even_when_calm(self):
        db = _db("lsm")
        db.clock.charge(1.0)
        db.monitor.sample()
        assert db.monitor.series["compaction_backlog"].values() == [0.0]

    def test_fire_and_clear_with_hysteresis(self):
        db = _db("lsm")
        _stack_l0(db, segments=5)
        db.clock.charge(1.0)
        first = db.monitor.sample()
        assert first == []  # fire_after=2: one breaching window is calm
        db.clock.charge(1.0)
        second = db.monitor.sample()
        assert [e.kind for e in second
                if e.rule == "compaction_backlog_high"] == ["fired"]
        # Drain the backlog and hold two calm windows to clear: with a
        # low trigger the next flush compacts every L0 run.
        db.params.lsm_l0_compaction_trigger = 2
        _stack_l0(db, segments=1)
        assert db.catalog.table("t").store.compaction_backlog < 4
        db.clock.charge(1.0)
        third = db.monitor.sample()
        assert third == []  # clear_after=2
        db.clock.charge(1.0)
        fourth = db.monitor.sample()
        assert [e.kind for e in fourth
                if e.rule == "compaction_backlog_high"] == ["cleared"]
        assert db.metrics.get("monitor.alerts_fired") == 1
        assert db.metrics.get("monitor.alerts_cleared") == 1
