"""Calibration of the simulated cost model.

Every constant the reproduction uses lives in
:class:`repro.sim.params.SimParams`; this module documents the
calibration and makes the perturbed instances the robustness tests run.

Calibration philosophy
----------------------

The paper's absolute numbers come from a 1996 SPARCstation 20 with
four to five SCSI disks.  We do not chase absolute seconds; we pick
constants of the right *order* for that hardware class and check that
the reproduced shapes (who wins, by what factor, where crossovers sit)
do not hang on the exact values.  ``perturbed()`` scales the 19 time
constants — all of them, or one — so tests can check that robustness
mechanically for the conclusions they cover.

It scales neither memory size (``buffer_pool_bytes``,
``work_mem_bytes``), and for memory the claim is false: halving
``work_mem_bytes`` at SF 0.002 turns the 2.2 -> 3.0 upgrade gain from
2.32 / 2.34 (Open SQL / Native SQL) into 0.84 / 0.49 (the table in
ROADMAP.md).  Memory that scales with the data is open as ROADMAP item
8 (a).

The constants and their anchors:

=====================  =========  =========================================
constant               value      anchor
=====================  =========  =========================================
seq_read_s             1.5 ms     ~5 MB/s sequential SCSI at 8 KB pages
random_read_s          12 ms      seek + rotational latency, mid-90s disk
write_s                10 ms      write incl. positioning
tuple_cpu_s            20 µs      60 MHz SuperSPARC, interpreted row ops
roundtrip_s            2 ms       local IPC + SQL layer per DB call
ship_tuple_s           40 µs      row marshalling app server <-> RDBMS
abap_row_s             120 µs     interpreted ABAP statement dispatch
pool_decode_s          100 µs     VARDATA decode per logical row
screen_s               120 ms     one Dynpro round trip
batch_record_overhead  250 ms     transaction machinery per record
=====================  =========  =========================================
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim.params import SimParams


def perturbed(factor: float, field_name: str | None = None) -> SimParams:
    """A perturbed parameter set for robustness tests.

    With ``field_name`` set, only that constant is scaled; otherwise
    every time constant is scaled by ``factor`` (a pure clock-speed
    change, which must leave all ratios identical).
    """
    params = SimParams()
    time_fields = [
        "seq_read_s", "random_read_s", "write_s", "buffer_hit_s",
        "tuple_cpu_s", "index_traverse_s", "sort_cmp_s", "plan_cpu_s",
        "roundtrip_s",
        "ship_tuple_s", "ship_byte_s", "abap_row_s", "abap_extract_s",
        "pool_decode_s", "cache_lookup_s", "cache_insert_s", "screen_s",
        "batch_record_overhead_s", "commit_s",
    ]
    if field_name is not None:
        if field_name not in time_fields:
            raise ValueError(f"unknown time constant {field_name}")
        return replace(params,
                       **{field_name: getattr(params, field_name) * factor})
    return replace(params, **{
        name: getattr(params, name) * factor for name in time_fields
    })
