"""ST05-style hierarchical span tracing on the simulated clock.

A :class:`Tracer` records *spans* — named, attributed windows over the
shared :class:`~repro.sim.clock.SimulatedClock`.  Spans nest: every
tier of the stack (report, ABAP runtime, Open SQL, DBIF, engine,
per-operator plan execution) opens a span around its work, producing a
tree that decomposes where the simulated time of a query went — the
same where-did-the-time-go evidence SAP's ST05 SQL trace gives a
basis consultant.

The tracer is also the one place that knows the *layers* a response
time splits into (application server, DBIF, engine, commit, roll-in/
out).  A block declares its layer — ``tracer.span(name, layer=...)``,
or ``tracer.layer(name)`` where no span is wanted — and an exclusive
top-of-stack accounting gives every simulated instant to the innermost
open layer.  The stack counts while the tracer is enabled or an enabled
:class:`~repro.monitor.core.WorkloadMonitor` reads it; the monitor's
STAT records and the trace analyzer read the same totals.

Two invariants the whole subsystem relies on:

* **The tracer never charges the clock.**  Spans and layers only
  *read* ``clock.now``, so enabling tracing changes the simulated
  duration of any run by exactly zero ticks.
* **Off costs nothing.**  With neither consumer on,
  :meth:`Tracer.span` and :meth:`Tracer.layer` return a shared no-op
  singleton — no ``Span`` object, no stack traffic, no metrics
  snapshot — and the statement path (Open SQL, DBIF, engine, table
  buffer) does not call them at all: each boundary tests ``enabled``,
  and ``monitored`` if it declares a layer, first (DESIGN.md §34).
  With only the monitor on, a span that declares a layer is that
  layer's reusable token, still no ``Span``.

Each tracer keeps its own innermost open span, so tracers from
different systems (e.g. the three power-test variants) never
interleave their trees.
"""

from __future__ import annotations

from typing import Iterator

from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector, MetricsScope


class _NoopSpan:
    """Shared do-nothing span; the disabled-mode return of ``span()``."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


#: the singleton no-op span (identity-testable: ``span() is NOOP_SPAN``)
NOOP_SPAN = _NoopSpan()

#: the disabled-mode return of ``layer()``: the same shared no-op
NOOP_LAYER = NOOP_SPAN


class _Layer:
    """Reusable push/pop token for one layer name (state lives in the
    tracer, so one token per name serves arbitrarily nested blocks)."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Layer":
        self._tracer._push(self._name)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._pop(self._name)
        return False

    def set(self, **attrs: object) -> "_Layer":
        """A layer records no attributes (it stands in for a span)."""
        return self


class Span:
    """One traced window: name, attributes, children, clock readings.

    ``start_s``/``end_s`` are simulated seconds; ``end_s`` is ``None``
    while the span is open.  A span opened with ``capture_metrics=True``
    holds in ``counters`` the metric deltas and in ``layers`` the layer
    seconds accumulated inside it.
    """

    __slots__ = ("name", "attrs", "start_s", "end_s", "children",
                 "counters", "layers", "_tracer", "_layer", "_parent",
                 "_capture", "_scope", "_base")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict,
                 layer: str | None, capture_metrics: bool) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start_s: float = 0.0
        self.end_s: float | None = None
        self.children: list[Span] = []
        self.counters: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self._layer = layer
        self._parent: Span | None = None
        self._capture = capture_metrics
        self._scope: MetricsScope | None = None
        if capture_metrics and tracer.metrics is not None:
            self._scope = tracer.metrics.scoped()

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if self._layer is not None:
            tracer._push(self._layer)
        self.start_s = tracer.clock.now
        self._parent = tracer._current
        tracer._current = self
        if self._capture:
            if self._scope is not None:
                self._scope.__enter__()
            # read, never settled: a settle would split the enclosing
            # layer's next addition in two and move its last bits
            self._base = dict(tracer.totals)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        tracer = self._tracer
        self.end_s = tracer.clock.now
        if self._layer is not None:
            tracer._pop(self._layer)
        if self._capture:
            if self._scope is not None:
                self._scope.__exit__()
                self.counters = self._scope.delta
            base = self._base
            self.layers = {name: total - base.get(name, 0.0)
                           for name, total in tracer.totals.items()}
        parent = tracer._current = self._parent
        if parent is not None:
            parent.children.append(self)
        else:
            tracer.roots.append(self)
        return False

    # -- annotation --------------------------------------------------------

    def set(self, **attrs: object) -> "Span":
        """Attach or overwrite attributes on this span."""
        self.attrs.update(attrs)
        return self

    # -- readings ----------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Inclusive simulated seconds (to 'now' while still open)."""
        end = self.end_s if self.end_s is not None else self._tracer.clock.now
        return end - self.start_s

    @property
    def self_s(self) -> float:
        """Exclusive simulated seconds: inclusive minus child spans."""
        return self.elapsed_s - sum(c.elapsed_s for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.elapsed_s:.6f}s, "
                f"{len(self.children)} children)")


class Tracer:
    """Span factory, trace store and layer stack for one simulated system.

    Disabled by default; ``enable()`` before the work to trace.
    """

    def __init__(self, clock: SimulatedClock,
                 metrics: MetricsCollector | None = None) -> None:
        self.clock = clock
        self.metrics = metrics
        self.enabled = False
        #: set while an enabled monitor reads the layer stack
        self.monitored = False
        self.roots: list[Span] = []
        self._current: Span | None = None
        #: simulated seconds per layer, cumulative while the stack counts
        self.totals: dict[str, float] = {}
        self._tokens: dict[str, _Layer] = {}
        self._stack: list[str] = []
        self._last_mark = clock.now

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> "Tracer":
        self._start()
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        self._stop()
        return self

    def clear(self) -> None:
        """Drop all recorded spans (the enabled flag is unchanged)."""
        self.roots.clear()

    def _start(self) -> None:
        """Start the layer stack counting, unless it already does."""
        if not (self.enabled or self.monitored):
            self._last_mark = self.clock.now

    def _stop(self) -> None:
        """Discard the open layers once neither consumer reads them."""
        if not (self.enabled or self.monitored):
            self._stack.clear()

    # -- span creation -----------------------------------------------------

    def span(self, name: str, /, layer: str | None = None,
             capture_metrics: bool = False, **attrs: object):
        """Open a span (context manager) whose ticks belong to ``layer``
        when one is named.  No-op when disabled; only the layer's token
        while the monitor alone reads the stack."""
        if not self.enabled:
            if layer is None or not self.monitored:
                return NOOP_SPAN
            return self._tokens.get(layer) or self.layer(layer)
        return Span(self, name, attrs, layer, capture_metrics)

    # -- layer accounting --------------------------------------------------

    def layer(self, name: str):
        """Context manager attributing enclosed ticks to ``name``."""
        if not (self.enabled or self.monitored):
            return NOOP_LAYER
        token = self._tokens.get(name)
        if token is None:
            token = self._tokens[name] = _Layer(self, name)
        return token

    def _settle(self) -> None:
        now = self.clock.now
        if self._stack:
            elapsed = now - self._last_mark
            if elapsed:
                top = self._stack[-1]
                self.totals[top] = self.totals.get(top, 0.0) + elapsed
        self._last_mark = now

    def _push(self, name: str) -> None:
        self._settle()
        self._stack.append(name)

    def _pop(self, name: str) -> None:
        self._settle()
        if self._stack and self._stack[-1] == name:
            self._stack.pop()
        elif name in self._stack:
            # Unbalanced exit (an exception unwound past an inner
            # layer): drop everything above, keep accounting sane.
            while self._stack.pop() != name:
                pass

    # -- reading -----------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, depth-first over all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in start order."""
        return [s for s in self.iter_spans() if s.name == name]
