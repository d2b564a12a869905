"""``R3System.insert_logical_rows`` against the per-row calls.

A batch is rendered once, handed to the insert kernel once and noted
once; ``insert_logical`` is its one-row case and ``insert_cluster``
hands its pages (or, once the table is transparent, its rows) to the
same kernel.  The references are the bodies ``insert_logical`` and
``insert_cluster`` had before: applied row by row to a twin system they
must give the same rowids, the same simulated clock, the same counters
and the same buffers — on a cluster, the same DDLOG appends at the same
simulated instants.
"""

import pytest

from repro.engine.errors import ConstraintError
from repro.r3.appserver import R3System, R3Version
from repro.r3.cluster import R3Cluster
from repro.r3.ddic import TableKind
from repro.r3.errors import DDicError
from repro.r3.upgrade import upgrade_to_30
from repro.sapschema import mapping
from repro.sapschema.tables import activate_sap_schema
from repro.tpcd.dbgen import generate


@pytest.fixture(scope="module")
def data():
    return generate(0.0002)


def reference_insert_logical(r3, table_name, row, bulk=False):
    physical_name, (physical,) = r3.render_rows(table_name, [row])
    rowid = r3.db.catalog.table(physical_name).insert(physical, bulk=bulk)
    r3.note_write(table_name.lower())
    return (physical_name, rowid)


def reference_insert_cluster(r3, table_name, cluster_key, rows, bulk=False):
    if r3.ddic.lookup(table_name).kind is TableKind.TRANSPARENT:
        return [reference_insert_logical(r3, table_name, row, bulk=bulk)
                for row in rows]
    physical_name, pages = r3.render_rows(table_name, rows, cluster_key)
    physical_table = r3.db.catalog.table(physical_name)
    written = [(physical_name, physical_table.insert(page, bulk=bulk))
               for page in pages]
    r3.note_write(table_name.lower())
    return written


BUFFERED = ("kna1", "a004", "konv")


def system(upgraded, servers=1):
    """An activated system (the primary of a cluster of ``servers``)
    whose buffers of the three tables written below hold one entry."""
    r3 = R3System(R3Version.V22)
    activate_sap_schema(r3)
    if upgraded:
        upgrade_to_30(r3)
    cluster = R3Cluster(r3, n_servers=servers, sync_period_s=5.0)
    for server in cluster.servers:
        for name in BUFFERED:
            server.buffers.configure(name, 1 << 16).store(("k",), ("row",))
    return cluster


def observed(cluster):
    buffers = {
        (server.name, name): (len(server.buffers.active_for(name)),
                              server.buffers.active_for(name).window)
        for server in cluster.servers for name in BUFFERED}
    log = [(record.seq, record.table, record.origin, repr(record.t))
           for record in cluster.ddlog.records]
    return (repr(cluster.clock.now), cluster.metrics.all(),
            cluster.db.content_digest(), buffers, log)


def batches(data):
    """(table, rows, cluster_key): a transparent, a pool and a cluster
    table, the last with a record that needs more than one page."""
    documents = mapping.order_documents(data)
    many = [row for document in documents[1:9] for row in document.konv_rows]
    yield "kna1", mapping.customer_rows(data)["kna1"], None
    yield "a004", mapping.part_rows(data)["a004"][:20], None
    yield "konv", documents[0].konv_rows, documents[0].konv_key
    yield "konv", many, documents[1].konv_key
    yield "kna1", [], None


@pytest.mark.parametrize("bulk", [False, True], ids=["row", "bulk"])
@pytest.mark.parametrize("servers", [1, 2], ids=["single", "cluster"])
@pytest.mark.parametrize("upgraded", [False, True], ids=["2.2", "3.0"])
def test_batch_equals_the_per_row_calls(data, upgraded, servers, bulk):
    batch, loop = system(upgraded, servers), system(upgraded, servers)
    assert (batch.primary.coherence is not None) == (servers == 2)
    for table, rows, cluster_key in batches(data):
        if cluster_key is None:
            written = batch.primary.insert_logical_rows(table, rows, bulk)
            expected = [reference_insert_logical(loop.primary, table, row,
                                                 bulk) for row in rows]
        else:
            written = batch.primary.insert_cluster(table, cluster_key,
                                                   rows, bulk)
            expected = reference_insert_cluster(loop.primary, table,
                                                cluster_key, rows, bulk)
        assert written == expected
        assert observed(batch) == observed(loop)
    assert len(written) == 0 and len(expected) == 0  # the empty batch
    pages = batch.db.catalog.table("koclu").row_count
    assert pages == (0 if upgraded else 3)
    assert batch.metrics.get("cluster.ddlog_invalidations") == \
        loop.metrics.get("cluster.ddlog_invalidations")
    assert (batch.metrics.get("cluster.ddlog_invalidations") > 0) == \
        (servers == 2)


@pytest.mark.parametrize("upgraded", [False, True], ids=["2.2", "3.0"])
def test_insert_logical_is_the_one_row_batch(data, upgraded):
    one, batch = system(upgraded), system(upgraded)
    for table, rows in (("kna1", mapping.customer_rows(data)["kna1"]),
                        ("a004", mapping.part_rows(data)["a004"][:5])):
        for row in rows:
            assert one.primary.insert_logical(table, row) == \
                batch.primary.insert_logical_rows(table, [row])[0]
    assert observed(one) == observed(batch)


def test_a_batch_invalidates_the_buffer_once_if_it_stored_a_row(data):
    r3 = system(False).primary
    rows = mapping.customer_rows(data)["kna1"][:3]
    buffer = r3.buffers.active_for("kna1")
    r3.insert_logical_rows("kna1", [])
    assert len(buffer) == 1 and buffer.stats.invalidations == 0
    r3.insert_logical_rows("kna1", rows)
    assert len(buffer) == 0 and buffer.stats.invalidations == 1
    assert len(r3.buffers.active_for("a004")) == 1  # another table's


def test_a_batch_that_raises_after_storing_rows_invalidates_too(data):
    r3 = system(False).primary
    rows = mapping.customer_rows(data)["kna1"][:3]
    buffer = r3.buffers.active_for("kna1")
    with pytest.raises(ConstraintError, match="duplicate primary key"):
        r3.insert_logical_rows("kna1", [rows[0], rows[0], rows[1]])
    assert r3.db.catalog.table("kna1").row_count == 1
    assert len(buffer) == 0 and buffer.stats.invalidations == 1
    buffer.store(("k",), ("row",))
    with pytest.raises(ConstraintError, match="duplicate primary key"):
        r3.insert_logical_rows("kna1", [rows[0], rows[2]])
    assert len(buffer) == 1  # nothing stored: nothing invalidated
    with pytest.raises(DDicError, match="per cluster"):
        r3.insert_logical_rows("konv", [("V1", "000001")])


def test_on_a_cluster_a_refused_row_ends_the_batch_where_the_loop_ended(
        data):
    batch, loop = system(False, 2), system(False, 2)
    rows = mapping.customer_rows(data)["kna1"][:3]
    doomed = [rows[0], rows[1], rows[0], rows[2]]
    with pytest.raises(ConstraintError, match="duplicate primary key"):
        batch.primary.insert_logical_rows("kna1", doomed)
    with pytest.raises(ConstraintError, match="duplicate primary key"):
        for row in doomed:
            reference_insert_logical(loop.primary, "kna1", row)
    assert observed(batch) == observed(loop)
    assert batch.metrics.get("cluster.ddlog_invalidations") == 2
