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
"""

import pytest

from repro.core.experiments import table3_loading
from repro.core.powertest import run_power_test
from repro.r3.appserver import R3System, R3Version
from repro.sapschema.loader import load_sap_direct
from repro.tpcd.dbgen import generate

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
