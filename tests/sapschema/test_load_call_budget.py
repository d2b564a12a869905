"""Python calls per loaded row: the bulk loaders work a batch at a time.

``sys.setprofile`` ``call`` events while a loader runs, over the
physical rows it stored.  The row-at-a-time loaders made 37.7
(``load_sap_fast``) and 31.8 (``load_original``) calls a row at this
scale factor; what is per table or per batch — the dictionary entry,
the physical table, the insert plan, the buffer invalidation — is now
looked up once per batch.
"""

import os
import sys
from collections import Counter

import pytest

from repro.r3.appserver import R3System, R3Version
from repro.sapschema import mapping
from repro.sapschema.loader import load_sap_fast
from repro.tpcd.dbgen import generate
from repro.tpcd.loader import load_original

SF = 0.0005


@pytest.fixture(scope="module")
def data():
    return generate(SF)


def _python_calls(run) -> Counter:
    """``module.function`` -> Python-level calls while ``run()``."""
    calls: Counter = Counter()

    def count_calls(frame, event, arg):
        if event == "call":
            code = frame.f_code
            module = os.path.basename(code.co_filename)[:-len(".py")]
            calls[f"{module}.{code.co_name}"] += 1

    outer = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return calls


def _stored_rows(db) -> int:
    return sum(db.catalog.table(name).row_count
               for name in db.catalog.table_names)


def test_load_sap_fast_stays_within_25_calls_a_row(data):
    r3 = R3System(R3Version.V22)
    calls = _python_calls(lambda: load_sap_fast(r3, data, analyze=False))
    rows = _stored_rows(r3.db)
    assert rows > 10_000
    assert sum(calls.values()) <= 25 * rows, sum(calls.values()) / rows
    stream = list(mapping.load_stream(data))
    batches = len(stream)
    records = sum(1 for _table, _rows, key in stream if key is not None)
    assert batches < rows / 3
    # once per batch, not once per row (activation looks tables up too;
    # ``insert_cluster`` asks for the table's kind before it renders)
    activation = len(r3.ddic.tables) + len(r3.db.catalog.table_names)
    assert calls["ddic.lookup"] <= batches + records + activation
    assert calls["catalog.table"] <= batches + 3 * activation
    assert calls["appserver.render_rows"] == batches
    assert calls["table.insert_rows"] == batches
    assert calls["table.insert"] == 0


def test_load_original_stays_within_22_calls_a_row(data):
    loaded = []
    calls = _python_calls(
        lambda: loaded.append(load_original(data, analyze=False)))
    rows = _stored_rows(loaded[0])
    assert rows == sum(data.row_counts().values())
    assert sum(calls.values()) <= 22 * rows, sum(calls.values()) / rows
    assert calls["table.insert_rows"] == 8  # one batch per table
