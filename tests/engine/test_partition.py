"""Partitioned heap overlay: determinism, tombstones, page accounting."""

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import PlanError
from repro.engine.parallel import (
    PartitionManager,
    PartitionSpec,
    PartitionedHeap,
    stable_hash,
)


def make_db(rows=200):
    db = Database()
    db.create_table(TableSchema("t", [
        Column("id", SqlType.integer(), nullable=False),
        Column("grp", SqlType.varchar(4)),
        Column("val", SqlType.decimal()),
    ], primary_key=["id"]))
    for i in range(rows):
        db.execute("INSERT INTO t VALUES (?, ?, ?)",
                   (i, f"g{i % 3}", float(i)))
    db.analyze()
    return db


class TestStableHash:
    def test_deterministic_across_calls(self):
        for value in (0, 17, -5, "ACME", 3.25, None):
            assert stable_hash(value) == stable_hash(value)

    def test_known_values_pinned(self):
        # Cross-run / cross-process determinism: these are CRC-32 of
        # the canonical encodings and must never drift.
        assert stable_hash(1) == 2212294583
        assert stable_hash("a") == 3904355907
        assert stable_hash(None) == 3721628270

    def test_seed_changes_assignment(self):
        values = list(range(100))
        a = [stable_hash(v, 0) % 4 for v in values]
        b = [stable_hash(v, 1) % 4 for v in values]
        assert a != b


class TestPartitionSpec:
    def test_rejects_degree_below_two(self):
        with pytest.raises(PlanError):
            PartitionSpec(column="id", degree=1)


class TestPartitionedHeap:
    def test_every_live_row_in_exactly_one_partition(self):
        db = make_db()
        table = db.catalog.table("t")
        heap = PartitionedHeap(table, PartitionSpec("id", 4))
        assigned = sorted(
            rowid for p in heap.partitions for rowid in p.rowids
        )
        assert assigned == [rowid for rowid, _ in table.store.rows()]

    def test_same_seed_and_degree_identical_across_rebuilds(self):
        db = make_db()
        table = db.catalog.table("t")
        spec = PartitionSpec("id", 4, seed=7)
        first = PartitionedHeap(table, spec)
        second = PartitionedHeap(table, spec)
        assert [p.rowids for p in first.partitions] \
            == [p.rowids for p in second.partitions]
        # And against an independently built database with the same
        # content — assignment depends only on key values, not on any
        # per-process state.
        other = make_db()
        third = PartitionedHeap(other.catalog.table("t"), spec)
        assert [p.rowids for p in first.partitions] \
            == [p.rowids for p in third.partitions]

    def test_different_seed_differs(self):
        db = make_db()
        table = db.catalog.table("t")
        a = PartitionedHeap(table, PartitionSpec("id", 4, seed=0))
        b = PartitionedHeap(table, PartitionSpec("id", 4, seed=99))
        assert [p.rowids for p in a.partitions] \
            != [p.rowids for p in b.partitions]

    def test_page_accounting_is_per_partition_ceiling(self):
        db = make_db()
        table = db.catalog.table("t")
        heap = PartitionedHeap(table, PartitionSpec("id", 4))
        rpp = table.store.rows_per_page
        for p in heap.partitions:
            assert p.page_count == -(-len(p.rowids) // rpp)
            if p.rowids:
                assert p.page_of(0) == 0
                assert p.page_of(len(p.rowids) - 1) == p.page_count - 1

    def test_skewed_key_measured(self):
        db = make_db()
        table = db.catalog.table("t")
        # grp has 3 distinct values hashed into 4 partitions: at least
        # one partition is empty and skew is well above balanced.
        heap = PartitionedHeap(table, PartitionSpec("grp", 4))
        assert heap.skew() > 1.2
        balanced = PartitionedHeap(table, PartitionSpec("id", 4))
        assert balanced.skew() < heap.skew()


class TestTombstones:
    def test_delete_does_not_shift_sibling_partitions(self):
        db = make_db()
        table = db.catalog.table("t")
        manager = PartitionManager(db.ctx)
        spec = PartitionSpec("id", 4)
        before = manager.get(table, spec)
        victim_partition = before.partitions[2]
        victim_rowid = victim_partition.rowids[0]
        victim_id = table.store.fetch(victim_rowid)[0]
        sibling_rowids = {
            p.index: list(p.rowids) for p in before.partitions
            if p.index != 2
        }
        sibling_pages = {
            p.index: p.page_count for p in before.partitions
            if p.index != 2
        }

        db.execute("DELETE FROM t WHERE id = ?", (victim_id,))

        # The snapshot keeps its rowid lists and page counts; the
        # deleted row resolves to a tombstone and is skipped.
        assert before.partitions[2].rowids == victim_partition.rowids
        for p in before.partitions:
            if p.index != 2:
                assert list(p.rowids) == sibling_rowids[p.index]
                assert p.page_count == sibling_pages[p.index]
        assert table.store.get(victim_rowid) is None

        # A rebuild (triggered by the version bump) drops the victim
        # from partition 2 and leaves every sibling untouched.
        after = manager.get(table, spec)
        assert after is not before
        assert victim_rowid not in after.partitions[2].rowids
        for p in after.partitions:
            if p.index != 2:
                assert list(p.rowids) == sibling_rowids[p.index]
                assert p.page_count == sibling_pages[p.index]


class TestPartitionManager:
    def test_cache_hit_until_version_bump(self):
        db = make_db()
        table = db.catalog.table("t")
        manager = PartitionManager(db.ctx)
        spec = PartitionSpec("id", 4)
        first = manager.get(table, spec)
        assert manager.get(table, spec) is first
        db.execute("INSERT INTO t VALUES (9001, 'g0', 1.0)")
        rebuilt = manager.get(table, spec)
        assert rebuilt is not first
        assert db.metrics.get("parallel.partition_builds") == 2

    def test_build_charges_simulated_time(self):
        db = make_db()
        table = db.catalog.table("t")
        manager = PartitionManager(db.ctx)
        t0 = db.clock.now
        manager.get(table, PartitionSpec("id", 4))
        assert db.clock.now > t0

    def test_invalidate_drops_overlays(self):
        db = make_db()
        table = db.catalog.table("t")
        manager = PartitionManager(db.ctx)
        spec = PartitionSpec("id", 4)
        first = manager.get(table, spec)
        manager.invalidate("t")
        assert manager.get(table, spec) is not first
