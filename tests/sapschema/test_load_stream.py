"""One enumeration of a data set in load order, one row renderer.

``load_sap_fast``, ``load_sap_direct`` and the batch-input set-up each
walked ``mapping.*_rows`` and ``order_documents`` in a loop of their
own, and the direct path decided "logical row -> physical (table, row)"
a second time beside ``insert_logical`` / ``insert_cluster``.  The old
loops and the old ``add`` / ``add_cluster`` are kept here as the
references of ``mapping.load_stream`` and ``R3System.render_rows``.
"""

import pytest

from repro.r3.appserver import R3System, R3Version
from repro.r3.ddic import TableKind
from repro.r3.upgrade import upgrade_to_30
from repro.sapschema import loader, mapping
from repro.sapschema.tables import activate_sap_schema
from repro.sapschema.views import create_sap_join_views
from repro.tpcd.dbgen import generate

SF = 0.0002


@pytest.fixture(scope="module")
def data():
    return generate(SF)


# -- references: the three enumerations as they were ------------------------

def old_tiny_master_data(data):
    return [("row", table, row, False)
            for table, rows in {**mapping.region_rows(data),
                                **mapping.nation_rows(data)}.items()
            for row in rows]


def old_load_sap_fast(data):
    calls = old_tiny_master_data(data)
    for table, rows in mapping.supplier_rows(data).items():
        for row in rows:
            calls.append(("row", table, row, True))
    for rows_of in (mapping.part_rows, mapping.partsupp_rows,
                    mapping.customer_rows):
        for table, rows in rows_of(data).items():
            for row in rows:
                calls.append(("row", table, row, True))
    for document in mapping.order_documents(data):
        calls.append(("row", "vbak", document.vbak, True))
        for row in document.vbap:
            calls.append(("row", "vbap", row, True))
        for row in document.vbep:
            calls.append(("row", "vbep", row, True))
        for row in document.stxl:
            calls.append(("row", "stxl", row, True))
        calls.append(("cluster", "konv",
                      (document.konv_key, document.konv_rows), True))
    return calls


def old_load_sap_direct(r3, data):
    """``physical`` and ``logical_of`` as the old ``add`` /
    ``add_cluster`` closures of ``load_sap_direct`` filled them."""
    physical, logical_of = {}, {}

    def add(logical_name, row):
        table = r3.ddic.lookup(logical_name)
        full_row = (r3.client,) + tuple(row)
        if table.kind is TableKind.TRANSPARENT:
            physical.setdefault(table.name, []).append(full_row)
            logical_of.setdefault(table.name, set()).add(table.name)
        else:
            container = r3.pools[table.container]
            physical.setdefault(container.name, []).append(
                container.physical_row(table, full_row))
            logical_of.setdefault(container.name, set()).add(table.name)

    def add_cluster(logical_name, key, rows):
        table = r3.ddic.lookup(logical_name)
        if table.kind is TableKind.TRANSPARENT:
            for row in rows:
                add(logical_name, row)
            return
        container = r3.clusters[table.container]
        for phys in container.physical_rows(r3.client, key, rows):
            physical.setdefault(container.name, []).append(phys)
        logical_of.setdefault(container.name, set()).add(table.name)

    for rows_of in (mapping.region_rows, mapping.nation_rows,
                    mapping.supplier_rows, mapping.part_rows,
                    mapping.partsupp_rows, mapping.customer_rows):
        for logical_name, rows in rows_of(data).items():
            for row in rows:
                add(logical_name, row)
    for document in mapping.order_documents(data):
        add("vbak", document.vbak)
        for row in document.vbap:
            add("vbap", row)
        for row in document.vbep:
            add("vbep", row)
        for row in document.stxl:
            add("stxl", row)
        add_cluster("konv", document.konv_key, document.konv_rows)
    return physical, logical_of


# -- (a) the stream ---------------------------------------------------------

def _record_inserts(r3):
    """Every ``insert_logical`` / ``insert_logical_rows`` /
    ``insert_cluster`` call, in order; a batch as one ``"row"`` entry
    per row."""
    calls = []
    originals = {name: getattr(r3, name) for name in (
        "insert_logical", "insert_logical_rows", "insert_cluster")}

    def recorded(name, entries):
        def shadow(*args, bulk=False):
            calls.extend(entries(*args, bulk))
            shadows = {name: vars(r3).pop(name) for name in originals}
            try:  # what an insert calls in turn is not a loader call
                return originals[name](*args, bulk=bulk)
            finally:
                vars(r3).update(shadows)
        setattr(r3, name, shadow)

    recorded("insert_logical", lambda table, row, bulk:
             [("row", table, row, bulk)])
    recorded("insert_logical_rows", lambda table, rows, bulk:
             [("row", table, row, bulk) for row in rows])
    recorded("insert_cluster", lambda table, key, rows, bulk:
             [("cluster", table, (key, rows), bulk)])
    return calls


def test_stream_yields_every_row_once_in_the_old_order(data):
    flat = []
    for table, rows, cluster_key in mapping.load_stream(data):
        if cluster_key is None:
            flat.extend(("row", table, row) for row in rows)
        else:
            flat.append(("cluster", table, (cluster_key, rows)))
    reference = old_load_sap_fast(data)
    assert flat == [call[:3] for call in reference]
    assert len(flat) > 1000
    assert {call[1] for call in reference if not call[3]} == \
        mapping.INTERACTIVE_TABLES


@pytest.mark.parametrize("version", [R3Version.V22, R3Version.V30],
                         ids=["2.2", "3.0"])
def test_load_sap_fast_makes_the_old_calls(data, version):
    r3 = R3System(version)
    calls = _record_inserts(r3)
    loader.load_sap_fast(r3, data, analyze=False)
    assert calls == old_load_sap_fast(data)


def test_batch_input_set_up_types_in_region_and_nation_only(data):
    r3 = R3System(R3Version.V22)
    activate_sap_schema(r3)
    create_sap_join_views(r3)
    calls = _record_inserts(r3)
    loader._load_tiny_master_data(r3, data)
    assert calls == old_tiny_master_data(data)
    assert len(calls) == 5 + 25 + 25


@pytest.mark.parametrize("version", [R3Version.V22, R3Version.V30],
                         ids=["2.2", "3.0"])
def test_load_sap_direct_ingests_the_old_tables_in_the_old_order(
        data, version):
    r3 = R3System(version)
    activate_sap_schema(r3)
    create_sap_join_views(r3)
    physical, logical_of = old_load_sap_direct(r3, data)
    ingested, noted = [], []
    direct_path_load, note_write = r3.db.direct_path_load, r3.note_write
    r3.db.direct_path_load = lambda name, rows: (
        ingested.append((name, list(rows))), direct_path_load(name, rows))
    r3.note_write = lambda name: (noted.append(name), note_write(name))
    loader.load_sap_direct(r3, data)
    assert ingested == list(physical.items())
    assert sorted(noted) == sorted(
        name for names in logical_of.values() for name in names)


@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_fast_and_direct_loads_end_in_the_same_content(data, storage):
    fast = R3System(R3Version.V22, storage=storage)
    direct = R3System(R3Version.V22, storage=storage)
    loader.load_sap_fast(fast, data)
    loader.load_sap_direct(direct, data)
    assert fast.db.content_digest() == direct.db.content_digest()
    assert fast.db.catalog.table("vbap").row_count == len(data.lineitem)


# -- (b) the renderer -------------------------------------------------------

def _stored(r3, written):
    return [(name, r3.db.catalog.table(name).fetch_row(rowid))
            for name, rowid in written]


@pytest.mark.parametrize("upgraded", [False, True], ids=["2.2", "3.0"])
def test_inserts_store_what_the_renderer_returns(data, upgraded):
    r3 = R3System(R3Version.V22)
    activate_sap_schema(r3)
    if upgraded:
        upgrade_to_30(r3)
    kinds = {name: r3.ddic.lookup(name).kind
             for name in ("lfa1", "a004", "konv")}
    assert kinds == {
        "lfa1": TableKind.TRANSPARENT, "a004": TableKind.POOL,
        "konv": TableKind.TRANSPARENT if upgraded else TableKind.CLUSTER}
    for table, rows, stored_in in (
            ("lfa1", mapping.supplier_rows(data)["lfa1"][:3], "lfa1"),
            ("a004", mapping.part_rows(data)["a004"][:3], "kapol")):
        name, rendered = r3.render_rows(table, rows)
        written = [r3.insert_logical(table, row) for row in rows]
        assert _stored(r3, written) == [(name, row) for row in rendered]
        assert name == stored_in and len(rendered) == len(rows)
    document = max(mapping.order_documents(data),
                   key=lambda doc: len(doc.konv_rows))
    name, rendered = r3.render_rows("konv", document.konv_rows,
                                    document.konv_key)
    written = r3.insert_cluster("konv", document.konv_key,
                                document.konv_rows)
    assert _stored(r3, written) == [(name, row) for row in rendered]
    assert name == ("konv" if upgraded else "koclu")
    assert (len(rendered) == len(document.konv_rows)) == upgraded


def test_renderer_refuses_what_the_inserts_refused():
    from repro.r3.errors import DDicError

    r3 = R3System(R3Version.V22)
    activate_sap_schema(r3)
    with pytest.raises(DDicError, match="per cluster"):
        r3.insert_logical("konv", ("V1", "000001"))
    with pytest.raises(DDicError, match="not a cluster table"):
        r3.insert_cluster("a004", ("K",), [])
