"""TPC-D report implementations for every variant the paper measures.

* :mod:`repro.reports.native30` — EXEC SQL on the SAP schema, Release 3.0E
* :mod:`repro.reports.open30`   — Open SQL reports, Release 3.0E
* :mod:`repro.reports.native22` — EXEC SQL + KONV cluster loops, 2.2G
* :mod:`repro.reports.open22`   — Open SQL nested-loop reports, 2.2G
* :mod:`repro.reports.updatefuncs` — UF1/UF2 via batch input

Every implementation of a query returns the same logical rows as the
RDBMS baseline, :mod:`repro.tpcd.queries` (validated by the test suite),
in the representation of the original TPC-D schema (integer keys, plain
column values).  The Table 9 extraction reports are
:mod:`repro.warehouse.extract`.
"""
