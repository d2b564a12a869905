"""Direct (bulk) load of the original TPC-D schema.

This is the fast path the paper's isolated RDBMS gets and SAP R/3's
batch input forgoes: page-at-a-time writes through the engine's bulk
interface, then a statistics pass.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.sim.params import SimParams
from repro.tpcd.dbgen import TpcdData
from repro.tpcd.schema import ORIGINAL_TABLES, create_original_schema


def load_original(data: TpcdData, params: SimParams | None = None,
                  analyze: bool = True, degree: int = 1,
                  storage: str = "heap") -> Database:
    """Create an engine database holding the original TPC-D tables."""
    db = Database(params=params, name="tpcd", storage=storage)
    create_original_schema(db)
    for name in ORIGINAL_TABLES:
        db.bulk_load(name, data.table(name))
    if analyze:
        db.analyze()
    if degree != 1:  # set_degree rejects anything below 1
        # Install the policy only after stats exist, so degree and
        # partition-key selection see real cardinalities; partition
        # the big tables as part of the (unmeasured) load phase.
        db.set_degree(degree)
        db.prepartition()
    return db
