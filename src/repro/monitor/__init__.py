"""Always-on workload statistics: STAT records, profiles, CCMS alerts.

The R/3 installations the paper measured were never "un-instrumented":
every dialog step writes a statistics record, the ST03 workload monitor
aggregates them into task-type profiles, ST04 watches the database, and
CCMS raises alerts when thresholds are breached.  This package is that
stack for the simulator — a :class:`WorkloadMonitor` that reads the
layer stack work processes, the DBIF, the engine and the WAL report
into (it lives on the Database's tracer), with gauge time series,
windowed ST03/ST04 aggregation and a threshold+hysteresis alert engine
on top.

Two invariants, shared with the tracer (DESIGN.md §14):

* the monitor never charges the simulated clock — enabling it changes
  a run's ticks by exactly zero;
* disabled mode is allocation-free on the hot paths — the tracer's
  ``layer()`` returns the shared ``NOOP_LAYER`` and ``begin_step``
  returns ``None``.
"""

from repro.monitor.alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    default_alert_rules,
)
from repro.monitor.core import (
    STEP_LAYERS,
    RingSeries,
    StatementStats,
    StatRecord,
    WorkloadMonitor,
)
from repro.monitor.profile import build_report, render_report
from repro.trace.tracer import NOOP_LAYER

__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "NOOP_LAYER",
    "RingSeries",
    "STEP_LAYERS",
    "StatRecord",
    "StatementStats",
    "WorkloadMonitor",
    "build_report",
    "default_alert_rules",
    "render_report",
]
