"""The 2.2G → 3.0E upgrade.

Per the paper (Section 3.4): the upgrade keeps all data, takes the
system offline for an extended reorganisation, converts KONV from a
cluster into a transparent table (tripling its footprint), and unlocks
the new Open SQL features.  Old 2.2 reports still run afterwards with
unchanged performance — only *rewritten* reports benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.r3.appserver import R3System, R3Version
from repro.r3.errors import R3Error


@dataclass
class UpgradeReport:
    converted_tables: list[str]
    elapsed_simulated_s: float
    db_bytes_before: int
    db_bytes_after: int


def _total_db_bytes(r3: R3System) -> int:
    report = r3.db.storage_report()
    return sum(
        entry["data_bytes"] + entry["index_bytes"]
        for entry in report.values()
    )


#: the tables the upgrade converts from cluster to transparent
CONVERTED = ("konv",)


def upgrade_to_30(r3: R3System) -> UpgradeReport:
    """Upgrade an R/3 2.2G system in place to 3.0E."""
    if r3.version is not R3Version.V22:
        raise R3Error(f"system is already at {r3.version.value}")
    before = _total_db_bytes(r3)
    span = r3.measure()
    r3.version = R3Version.V30
    converted: list[str] = []
    for name in CONVERTED:
        if r3.ddic.has(name) and r3.ddic.lookup(name).encapsulated:
            r3.convert_table(name)
            converted.append(name)
    # The upgrade rewrites dictionary content, recompiles reports and
    # reorganises storage; we charge the data-volume-proportional part
    # (the conversions above) plus a fixed administrative overhead.
    r3.clock.charge(4 * 3600.0)
    r3.dbif.flush_cursor_cache()
    elapsed = span.stop()
    return UpgradeReport(
        converted_tables=converted,
        elapsed_simulated_s=elapsed,
        db_bytes_before=before,
        db_bytes_after=_total_db_bytes(r3),
    )
