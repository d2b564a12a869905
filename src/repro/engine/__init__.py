"""A from-scratch relational engine (the paper's unnamed commercial RDBMS).

The engine provides everything the paper's back-end provides that the
experiments are sensitive to:

* a SQL front end (lexer/parser) for a practical SQL-92 subset,
* a cost-based optimizer with table statistics, access-path selection,
  join ordering and join-method choice,
* a volcano-style executor with full scans, index scans, nested-loop /
  index-nested-loop / hash joins, sorting, grouping, aggregation and
  DML,
* page-based storage accounting, a buffer pool and B-tree indexes,
* parameterized queries with reusable cursors (the hook SAP's cursor
  caching depends on — and the hook that breaks selectivity estimation
  in the paper's Table 6).

Everything is deterministic; all performance-relevant actions charge a
shared :class:`repro.sim.SimulatedClock`.
"""

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType

__all__ = ["Database", "Column", "TableSchema", "SqlType"]
