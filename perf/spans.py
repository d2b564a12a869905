"""Wall-clock spans recorded around calls into the program's layers.

The benchmark measures every layer *from outside*: a
:class:`SpanRecorder` shadows a layer's public entry point with an
instance attribute (no source edit, undone by :meth:`unwrap_all`) and
records one span per call.  A span is the list
``[parent, op, name, t0, t1]``; its id is its position in
``recorder.spans`` and ``parent`` is the id of the span that was open
when it started (-1 for a root).  Spans of one query, dialog step or
load phase share ``op``.  Everything stays in memory until the run
writes it out after the last pass.

A layer's self time is its spans' duration minus the part their child
spans cover; the program is single-threaded, so children never overlap
and that part is the sum of the direct children's durations.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager, nullcontext
from time import perf_counter

PARENT, OP, NAME, T0, T1 = range(5)


class SpanRecorder:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: first positional argument of every call through a wrapper
        #: installed with ``texts=True`` (the Open SQL statement texts)
        self.texts: set[str] = set()
        self._open = -1
        self._op: str | None = None
        #: (weakref to patched object, attribute); weak so that systems
        #: built and dropped inside a pass are not kept alive
        self._patched: list[tuple[weakref.ref, str]] = []

    def _push(self, name: str, op: str | None) -> tuple:
        outer = (self._open, self._op)
        if op is not None:
            self._op = op
        self._open = len(self.spans)
        self.spans.append([outer[0], self._op, name, perf_counter(), 0.0])
        return outer

    def _pop(self, outer: tuple) -> None:
        self.spans[self._open][T1] = perf_counter()
        self._open, self._op = outer

    @contextmanager
    def span(self, name: str, op: str | None = None):
        outer = self._push(name, op)
        try:
            yield
        finally:
            self._pop(outer)

    def wrap_fn(self, fn, name: str, op: str | None = None,
                texts: bool = False):
        """``fn`` with a span around every call."""
        seen = self.texts if texts else None

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args[0])
            outer = self._push(name, op)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(outer)

        return traced

    def patch(self, obj, attr: str, value) -> None:
        """Shadow ``obj.attr`` with ``value`` until :meth:`unwrap_all`."""
        setattr(obj, attr, value)
        self._patched.append((weakref.ref(obj), attr))

    def wrap(self, obj, attr: str, name: str, texts: bool = False) -> None:
        """Shadow ``obj.attr`` with a traced version of itself."""
        self.patch(obj, attr, self.wrap_fn(getattr(obj, attr), name,
                                           texts=texts))

    def unwrap_all(self) -> None:
        """Remove every shadowing attribute: class methods show again."""
        for ref, attr in self._patched:
            obj = ref()
            if obj is not None:
                vars(obj).pop(attr, None)
        self._patched.clear()

    def take(self) -> list[list]:
        """The spans recorded so far; the recorder starts over."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


class NullRecorder:
    """Records nothing: the untraced run's passes go through this."""

    enabled = False

    def span(self, name: str, op: str | None = None):
        return nullcontext()

    def wrap_fn(self, fn, name: str, op: str | None = None,
                texts: bool = False):
        return fn

    def wrap(self, obj, attr: str, name: str, texts: bool = False) -> None:
        pass

    def unwrap_all(self) -> None:
        pass


NULL = NullRecorder()


def self_times(spans: list[list]) -> list[float]:
    """Self seconds of every span, in span order."""
    out = [span[T1] - span[T0] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[T1] - span[T0]
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """name -> ``{count, total_s, self_s}`` over one pass's spans.

    ``total_s`` adds the inclusive durations, so it is only meaningful
    for names that never nest inside themselves (true of every name the
    benchmark uses).
    """
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(span[NAME],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span[T1] - span[T0]
        entry["self_s"] += self_s
    return out


def op_durations(spans: list[list]) -> list[tuple[str, float]]:
    """(op, seconds) of every span that opened a new ``op``."""
    out = []
    for span in spans:
        op, parent = span[OP], span[PARENT]
        if op is not None and (parent < 0 or spans[parent][OP] != op):
            out.append((op, span[T1] - span[T0]))
    return out
