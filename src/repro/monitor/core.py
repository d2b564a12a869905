"""The workload monitor: STAT records, layer accounting, gauge series.

One :class:`WorkloadMonitor` lives on every engine (and is shared by
the R/3 system wrapped around it, exactly like the clock and metrics).
Three collection surfaces:

* **Layer accounting** — the monitor reads the layer stack of the
  Database's :class:`~repro.trace.tracer.Tracer` (instrumented code
  declares ``tracer.span(..., layer="dbif")`` or
  ``tracer.layer("rollin")``).  Attribution is *exclusive*
  top-of-stack: at any simulated instant the elapsed ticks belong to
  the innermost open layer, so nesting (engine inside DBIF inside the
  dialog step's base ABAP layer, WAL commit inside engine) decomposes a
  step without double counting.

* **STAT records** — the dispatcher (or the power-test loop) brackets a
  dialog step with :meth:`~WorkloadMonitor.begin_step` /
  :meth:`~WorkloadMonitor.end_step`; the step's response time is
  decomposed into queue wait, roll-in/out, ABAP, DBIF, engine and
  commit seconds that sum *exactly* to the response time (float
  residue is folded into the ABAP component and reported in
  ``residual_s``).  Records live in a fixed-size ring.

* **Gauges** — windowed rates (buffer quality, cursor-cache and
  buffer-pool hit rates, breaker trip/fast-fail events) computed from
  metric deltas since the previous sample, plus instantaneous sources
  (dispatcher queue depth, breaker state) registered via
  :meth:`~WorkloadMonitor.attach_source`, sampled into per-gauge ring
  series every ``sample_interval_s`` simulated seconds.  Each sample
  window is fed to the CCMS :class:`~repro.monitor.alerts.AlertEngine`.

The monitor only ever *reads* ``clock.now`` — it never charges — so
enabling it is tick-identical to disabling it; the only trace it leaves
are ``monitor.*`` metric counters.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.monitor.alerts import AlertEngine, default_alert_rules
from repro.trace.tracer import Tracer

#: the layers a STAT record decomposes a dialog step into, in report order
STEP_LAYERS = ("rollin", "rollout", "abap", "dbif", "engine", "commit")

#: gauges whose per-window value is a delta of these cumulative metrics
_EVENT_GAUGES = (
    ("breaker_open_events", "dbif.breaker.open"),
    ("fastfail_events", "dbif.breaker.fast_fails"),
    ("shed_events", "dispatcher.shed"),
    ("ddlog_invalidation_events", "cluster.ddlog_invalidations"),
)

#: gauges that are hit/(hit+miss) style rates over a sample window
_RATE_GAUGES = (
    ("pool_hit_rate", "buffer.hits", "buffer.misses"),
    ("cursor_hit_rate", "dbif.cursor_cache_hits",
     "dbif.cursor_cache_misses"),
)

_WHITESPACE = re.compile(r"\s+")



@dataclass
class StatRecord:
    """One dialog step's statistics record (the R/3 STAT file line).

    ``queue_wait_s + rollin_s + rollout_s + abap_s + dbif_s + engine_s
    + commit_s`` — evaluated in that order — equals :attr:`response_s`
    exactly; the float residue absorbed into ``abap_s`` to make that
    hold is reported in ``residual_s``.
    """

    seq: int
    task: str                  #: ``dialog`` | ``update`` | ``batch``
    label: str
    stream: int
    wp: str
    outcome: str               #: ``completed`` | ``shed`` | ``failed`` ...
    start_s: float
    end_s: float
    queue_wait_s: float
    server: str = ""           #: application server name ("" = primary)
    rollin_s: float = 0.0
    rollout_s: float = 0.0
    abap_s: float = 0.0
    dbif_s: float = 0.0
    engine_s: float = 0.0
    commit_s: float = 0.0
    residual_s: float = 0.0

    @property
    def response_s(self) -> float:
        """Queue wait plus the roll-in-to-roll-out window."""
        return self.queue_wait_s + (self.end_s - self.start_s)

    @property
    def db_s(self) -> float:
        """The ST03 "DB time" component: everything below the DBIF."""
        return self.dbif_s + self.engine_s + self.commit_s

    def decomposed_s(self) -> float:
        """The layer sum, in the canonical (conservation-checked) order."""
        return (self.queue_wait_s + self.rollin_s + self.rollout_s
                + self.abap_s + self.dbif_s + self.engine_s
                + self.commit_s)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "task": self.task,
            "label": self.label,
            "stream": self.stream,
            "wp": self.wp,
            "server": self.server,
            "outcome": self.outcome,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "response_s": self.response_s,
            "queue_wait_s": self.queue_wait_s,
            "rollin_s": self.rollin_s,
            "rollout_s": self.rollout_s,
            "abap_s": self.abap_s,
            "dbif_s": self.dbif_s,
            "engine_s": self.engine_s,
            "commit_s": self.commit_s,
            "residual_s": self.residual_s,
        }


class _OpenStep:
    """Bookkeeping for a step between begin_step and end_step."""

    __slots__ = ("task", "label", "stream", "wp", "queue_wait_s",
                 "start_s", "base", "server")

    def __init__(self, task: str, label: str, stream: int, wp: str,
                 queue_wait_s: float, start_s: float,
                 base: dict[str, float], server: str = "") -> None:
        self.task = task
        self.label = label
        self.stream = stream
        self.wp = wp
        self.queue_wait_s = queue_wait_s
        self.start_s = start_s
        self.base = base
        self.server = server


@dataclass
class StatementStats:
    """ST04 accounting for one distinct statement text."""

    fingerprint: str
    sql: str
    calls: int = 0
    db_s: float = 0.0
    rows: int = 0

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "sql": self.sql,
            "calls": self.calls,
            "db_s": round(self.db_s, 6),
            "rows": self.rows,
            "per_call_s": round(self.db_s / self.calls, 6)
            if self.calls else 0.0,
        }


class RingSeries:
    """Fixed-size time series of ``(t, value)`` samples."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self._samples.append((t, value))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def last(self) -> tuple[float, float] | None:
        return self._samples[-1] if self._samples else None

    def values(self) -> list[float]:
        return [value for _t, value in self._samples]

    def summary(self) -> dict:
        values = self.values()
        out: dict[str, object] = {"samples": len(values)}
        if values:
            out.update({
                "last": round(values[-1], 6),
                "min": round(min(values), 6),
                "max": round(max(values), 6),
                "mean": round(sum(values) / len(values), 6),
            })
        return out


def statement_fingerprint(sql: str) -> str:
    """Stable fingerprint of a statement's normalized text.

    Whitespace-normalized, case-folded — the same identity the cursor
    cache uses (parameter markers already replace all literals on the
    Open SQL path, so two executions of one report line share a
    fingerprint no matter the host-variable values).
    """
    normalized = _WHITESPACE.sub(" ", sql.strip()).lower()
    return hashlib.sha1(normalized.encode()).hexdigest()[:12]


#: samples each gauge series keeps
SERIES_CAPACITY = 512


class WorkloadMonitor:
    """Always-on workload statistics for one simulated system."""

    def __init__(self, clock, metrics, stat_capacity: int = 1024,
                 statement_capacity: int = 512,
                 tracer: Tracer | None = None) -> None:
        self._clock = clock
        self._metrics = metrics
        #: the layer stack the STAT records read (the Database's tracer;
        #: a bare monitor makes its own)
        self.tracer = tracer if tracer is not None else Tracer(clock, metrics)
        self.enabled = False
        self.stat_capacity = stat_capacity
        self.statement_capacity = statement_capacity
        #: simulated seconds between two gauge samples
        self.sample_interval_s = 1.0
        self.stat_records: deque[StatRecord] = deque(maxlen=stat_capacity)
        self.statements: dict[str, StatementStats] = {}
        self.series: dict[str, RingSeries] = {}
        self.alerts = AlertEngine(default_alert_rules())
        self._step: _OpenStep | None = None
        self._seq = 0
        self._window_snap = None
        self._last_sample_t: float | None = None
        self._sources: dict[str, Callable[[], float | None]] = {}

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> "WorkloadMonitor":
        if not self.enabled:
            self.tracer._start()
            self.tracer.monitored = True
            self.enabled = True
            self._window_snap = self._metrics.snapshot()
            self._last_sample_t = self._clock.now
        return self

    def disable(self) -> "WorkloadMonitor":
        """Stop collecting.  A step that is still open is abandoned (its
        record is never written); the open layers are discarded unless
        the tracer, still enabled, reads them."""
        self.enabled = False
        self.tracer.monitored = False
        self.tracer._stop()
        self._step = None
        return self

    def attach_source(self, name: str,
                      fn: Callable[[], float | None]) -> None:
        """Register an instantaneous gauge (e.g. dispatcher queue depth).

        ``fn()`` is called at each sample; returning ``None`` skips the
        gauge for that window.  Re-registering a name replaces the
        source (a rebuilt dispatcher takes over its gauge).
        """
        self._sources[name] = fn

    # -- STAT records ----------------------------------------------------

    def begin_step(self, task: str, label: str, stream: int = 0,
                   wp: str = "", queue_wait_s: float = 0.0,
                   server: str = ""):
        """Open a dialog step; returns an opaque handle (or ``None``
        when disabled, or when a step is already open — nested steps
        are suppressed so the outer record owns the whole window)."""
        if not self.enabled or self._step is not None:
            return None
        tracer = self.tracer
        tracer._push("abap")
        step = _OpenStep(task, label, stream, wp, queue_wait_s,
                         self._clock.now, dict(tracer.totals),
                         server=server)
        self._step = step
        return step

    def end_step(self, step, outcome: str = "completed"):
        """Close a step, append its :class:`StatRecord` to the ring."""
        if step is None or step is not self._step:
            return None
        tracer = self.tracer
        tracer._pop("abap")
        self._step = None
        now = self._clock.now
        base = step.base
        deltas = {
            name: tracer.totals.get(name, 0.0) - base.get(name, 0.0)
            for name in STEP_LAYERS
        }
        self._seq += 1
        record = StatRecord(
            seq=self._seq, task=step.task, label=step.label,
            stream=step.stream, wp=step.wp, outcome=outcome,
            start_s=step.start_s, end_s=now,
            queue_wait_s=step.queue_wait_s, server=step.server,
            rollin_s=deltas["rollin"], rollout_s=deltas["rollout"],
            abap_s=deltas["abap"], dbif_s=deltas["dbif"],
            engine_s=deltas["engine"], commit_s=deltas["commit"],
        )
        # Exact conservation: fold the float residue of regrouping the
        # per-layer sums into the ABAP component, iterating the fixup
        # until the canonical-order sum reproduces response_s bit-exactly.
        residual = record.response_s - record.decomposed_s()
        record.residual_s = residual
        for _ in range(4):
            if not residual:
                break
            record.abap_s += residual
            residual = record.response_s - record.decomposed_s()
        self.stat_records.append(record)
        self._metrics.count("monitor.stat_records")
        self.maybe_sample()
        return record

    # -- ST04 statement accounting ---------------------------------------

    def record_statement(self, sql: str, db_s: float, rows: int) -> None:
        """Charge one DBIF call's DB time to its statement text."""
        stats = self.statements.get(sql)
        if stats is None:
            if len(self.statements) >= self.statement_capacity:
                self._metrics.count("monitor.statements_dropped")
                return
            stats = self.statements[sql] = StatementStats(
                fingerprint=statement_fingerprint(sql), sql=sql)
        stats.calls += 1
        stats.db_s += db_s
        stats.rows += rows

    def top_statements(self, n: int = 10) -> list[StatementStats]:
        """The ST04 view: statements ranked by accumulated DB time."""
        return sorted(self.statements.values(),
                      key=lambda s: (-s.db_s, s.fingerprint))[:n]

    # -- gauge sampling --------------------------------------------------

    def maybe_sample(self) -> None:
        """Take a sample if the interval elapsed since the last one."""
        if not self.enabled:
            return
        if self._clock.now - self._last_sample_t >= self.sample_interval_s:
            self.sample()

    def sample(self) -> list:
        """Close the current window: compute gauges, append to series,
        feed the alert engine.  Returns the alert transitions caused."""
        if not self.enabled:
            return []
        now = self._clock.now
        delta = self._window_snap.delta()
        gauges: dict[str, float] = {}
        for gauge, metric in _EVENT_GAUGES:
            gauges[gauge] = float(delta.get(metric, 0.0))
        for gauge, hit_metric, miss_metric in _RATE_GAUGES:
            hits = delta.get(hit_metric, 0.0)
            misses = delta.get(miss_metric, 0.0)
            if hits + misses > 0:
                gauges[gauge] = hits / (hits + misses)
        lookups = delta.get("buffer_mgr.lookups", 0.0)
        if lookups > 0:
            gauges["buffer_quality"] = \
                delta.get("buffer_mgr.hits", 0.0) / lookups
        gauges["wal_backlog"] = (self._metrics.get("wal.appends")
                                 - self._metrics.get("wal.records_flushed"))
        for name, fn in self._sources.items():
            value = fn()
            if value is not None:
                gauges[name] = float(value)
        for name, value in gauges.items():
            series = self.series.get(name)
            if series is None:
                series = self.series[name] = RingSeries(
                    name, SERIES_CAPACITY)
            series.append(now, value)
        self._window_snap = self._metrics.snapshot()
        self._last_sample_t = now
        self._metrics.count("monitor.samples")
        transitions = self.alerts.observe(now, gauges)
        for event in transitions:
            self._metrics.count("monitor.alerts_fired"
                                if event.kind == "fired"
                                else "monitor.alerts_cleared")
        return transitions

    def finish(self) -> None:
        """Force a final sample so the tail window is never lost."""
        if self.enabled:
            self.sample()
