"""Pinned storage timings: the backends charge what they always charged.

The heap is the default engine and must not move by a single simulated
tick, whoever does the charging — the LSM backend, the sequential-write
cost class and the move of page charging from ``Table`` into
``HeapFile`` all had to pass these exact-equality pins.  The heap
floats were captured on the pre-LSM tree; any drift there is a real
behavioral change to the default engine, not noise (the simulator is
deterministic).

The LSM pins were captured on the last tree where ``Table`` still
branched on which backend charges itself.  The clock sums floats, and
two LSM charges have since moved within their call sequence (the
memtable charge of an update behind index maintenance, direct-path
compaction ahead of the deferred index build), so they are held to
``rel=1e-9``: rounding may differ, the model may not.

The load pins (``LOAD_PINS``) were captured on the last tree where the
B-tree kept two arrays and ``validate_row`` called ``SqlType.validate``
per cell: the bulk path's leaf page ids, hence every buffer and disk
counter, hang on the insert position the one-array B-tree computes.
"""

import pytest

from repro.core.experiments import table3_loading
from repro.core.powertest import run_power_test
from repro.r3.appserver import R3System, R3Version
from repro.sapschema.loader import load_sap_direct, load_sap_fast
from repro.tpcd.dbgen import generate
from repro.tpcd.loader import load_original

#: run_power_test(0.001, V30) per-variant totals on the pre-LSM tree
POWER_PINS = {
    "rdbms": 4.648791555983359,
    "native": 18.819658866084865,
    "open": 52.10815188287779,
}

#: table3_loading(0.0005, processes=1) per-entity elapsed, pre-LSM tree
BATCH_INPUT_PINS = {
    "SUPPLIER": 3.4770199999999947,
    "PART": 87.29990000000407,
    "PARTSUPP": 278.366879999987,
    "CUSTOMER": 51.29375999999252,
    "ORDER+LINEITEM": 1118.4087015983223,
}

#: run_power_test(0.001, V30, storage="lsm") per-variant totals
LSM_POWER_PINS = {
    "rdbms": 4.591659555977327,
    "native": 18.485928855123348,
    "open": 51.61814787485491,
}

#: load_sap_direct(R3System(V30, storage=...), generate(0.0005)) elapsed
DIRECT_LOAD_PINS = {"heap": 1.7340000000000013, "lsm": 2.77399999999996}

#: rows per table after a load of generate(0.0005): every
#: ``table.<name>.inserts`` and (ANALYZE) ``.tuples_scanned`` counter
LOAD_ROWS = {
    "original": {
        "customer": 75, "lineitem": 3097, "nation": 25, "orders": 750,
        "part": 100, "partsupp": 400, "region": 5, "supplier": 5,
    },
    "sap_fast": {
        "ausp": 100, "eina": 400, "eine": 400, "kapol": 100, "kna1": 75,
        "koclu": 750, "konp": 100, "lfa1": 5, "makt": 100, "mara": 100,
        "stxl": 4027, "t005": 25, "t005t": 25, "t005u": 5, "vbak": 750,
        "vbap": 3097, "vbep": 3097,
    },
}

#: content_digest() after the load, whatever the backend
LOAD_DIGESTS = {
    "original":
        "bfad51a61bc7a9b3e6678be1712d54a34807c533a81ef0bbcf26ee4204c1ca03",
    "sap_fast":
        "afba0ff3f6481b5d29224afeb15f8d069901c4fabc84f61a71801581635aceeb",
}

#: clock.now and the disk.* / buffer.* counters after load_original(data)
#: and load_sap_fast(R3System(V22), data), per backend
LOAD_PINS = {
    ("original", "heap"): {
        "now": 1.5201499999999242, "buffer.hits": 7165,
        "buffer.misses": 17, "disk.random_reads": 17,
        "disk.time_s": 1.1540000000000008, "disk.writes": 95,
    },
    ("original", "lsm"): {
        "now": 0.9216940000001116, "buffer.hits": 7091,
        "buffer.misses": 50, "disk.random_reads": 17,
        "disk.seq_reads": 33, "disk.seq_writes": 33,
        "disk.time_s": 0.5294999999999992, "disk.writes": 21,
    },
    ("sap_fast", "heap"): {
        "now": 8.718869999998747, "buffer.hits": 24116,
        "buffer.misses": 83, "disk.random_reads": 83,
        "disk.time_s": 7.5759999999998815, "disk.writes": 658,
    },
    ("sap_fast", "lsm"): {
        "now": 5.74397399999944, "buffer.hits": 23644,
        "buffer.misses": 449, "disk.random_reads": 80,
        "disk.seq_reads": 641, "disk.seq_writes": 641,
        "disk.time_s": 4.543499999999926, "disk.writes": 134,
    },
}


def test_power_test_heap_is_tick_identical():
    result = run_power_test(0.001, R3Version.V30)
    assert {v: result.total(v) for v in POWER_PINS} == POWER_PINS


def test_batch_input_heap_is_tick_identical():
    timings = table3_loading(scale_factor=0.0005, processes=1)
    assert timings.elapsed == BATCH_INPUT_PINS


def test_power_test_lsm_matches_parent_capture():
    result = run_power_test(0.001, R3Version.V30, storage="lsm")
    assert {v: result.total(v) for v in LSM_POWER_PINS} == \
        pytest.approx(LSM_POWER_PINS, rel=1e-9)


def test_direct_path_load_matches_parent_capture():
    data = generate(0.0005)
    elapsed = {}
    for storage in DIRECT_LOAD_PINS:
        r3 = R3System(R3Version.V30, storage=storage)
        elapsed[storage] = load_sap_direct(r3, data).elapsed["DIRECT"]
    assert elapsed["heap"] == DIRECT_LOAD_PINS["heap"]
    assert elapsed["lsm"] == pytest.approx(DIRECT_LOAD_PINS["lsm"],
                                           rel=1e-9)


@pytest.mark.parametrize("loader,storage", list(LOAD_PINS))
def test_bulk_loads_match_parent_capture(loader, storage):
    data = generate(0.0005)
    if loader == "original":
        db = load_original(data, storage=storage)
    else:
        r3 = R3System(R3Version.V22, storage=storage)
        load_sap_fast(r3, data)
        db = r3.db
    assert db.content_digest() == LOAD_DIGESTS[loader]
    counters = db.metrics.all()
    assert {name: value for name, value in counters.items()
            if name.startswith("table.")} == {
        f"table.{table}.{counter}": rows
        for table, rows in LOAD_ROWS[loader].items()
        for counter in ("inserts", "tuples_scanned")}
    charged = {"now": db.clock.now,
               **{name: value for name, value in counters.items()
                  if name.startswith(("disk.", "buffer."))}}
    pins = LOAD_PINS[loader, storage]
    assert charged == (pins if storage == "heap"
                       else pytest.approx(pins, rel=1e-9))
