"""The sweep core the chaos, scale-out and crash-fuzz harnesses share.

Three pieces, and a harness is *data* plugged into them:

* :class:`SweepCell` — one throughput run: the sweep coordinates
  (``key``), the :class:`~repro.core.throughput.ThroughputResult`
  itself (its fields are spelled out once, in :meth:`SweepCell.to_json`)
  and the scenario's own ``facts`` with the ``layout`` that shapes them
  into JSON.
* an **invariant** — a named pure function ``cells -> list[str]``
  returning one message per violation.  It sees nothing but the cells,
  so a test can hand it a synthetic cell.
* :class:`SweepReport` — the envelope: ``format`` tag, header fields,
  cells, the violations its invariants found, ``ok``, ``to_json``, a
  table ``render`` driven by a column list, and ``cell(...)`` lookup.

Everything is deterministic (seeded profiles, the simulated clock, a
fresh system per cell), so a sweep's JSON report is bit-identical
across runs — which is what lets CI assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

def _plain(value: object) -> object:
    """A fact as it appears in JSON: floats to 6 places, dicts sorted."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    return value


@dataclass
class SweepCell:
    """One cell of a throughput sweep.

    ``key`` entries, ``facts`` entries and the attributes of ``result``
    all read as attributes of the cell (``cell.profile``,
    ``cell.breaker_opened``, ``cell.queries_per_hour``).
    """

    #: sweep coordinates and fixed settings, emitted first in JSON
    key: dict[str, object]
    #: how violation messages name this cell (``S=4 heavy``, ``N=2 kill``)
    tag: str
    #: the run's :class:`~repro.core.throughput.ThroughputResult`
    result: object
    #: the scenario's own measurements, by name
    facts: dict[str, object] = field(default_factory=dict)
    #: JSON name -> attribute name, or -> {JSON name: attribute name}
    #: for a nested section
    layout: dict[str, object] = field(default_factory=dict)

    def __getattr__(self, name: str):
        # Only reached for names that are not fields.
        for source in ("key", "facts"):
            values = self.__dict__.get(source, {})
            if name in values:
                return values[name]
        if "result" in self.__dict__:
            return getattr(self.result, name)
        raise AttributeError(name)

    @property
    def conserved(self) -> bool:
        return self.result.conservation_ok()

    def to_json(self) -> dict:
        result = self.result
        doc = {
            **self.key,
            "elapsed_s": round(result.elapsed_s, 6),
            "queries_per_hour": round(result.queries_per_hour, 3),
            "submitted": result.submitted,
            "completed": result.completed,
            "shed": result.shed,
            "rejected": result.rejected,
            "requeued": result.requeued,
            "queue_wait_s": round(result.queue_wait_s, 6),
            "updates": {
                "submitted": result.updates_submitted,
                "run": result.updates_run,
                "shed": result.updates_shed,
            },
            "shed_reasons": _plain(result.shed_reasons),
            "conserved": self.conserved,
        }
        for name, spec in self.layout.items():
            doc[name] = (
                {sub: _plain(getattr(self, fact))
                 for sub, fact in spec.items()}
                if isinstance(spec, dict) else _plain(getattr(self, spec)))
        return doc


def conservation(cells: list[SweepCell]) -> list[str]:
    """Every submitted query is accounted for exactly once:
    ``submitted == completed + shed + rejected`` (no lost queries, no
    double counting, crash requeues included)."""
    return [
        f"{cell.tag}: conservation violated — submitted "
        f"{cell.submitted} != completed {cell.completed} + shed "
        f"{cell.shed} + rejected {cell.rejected}"
        for cell in cells if not cell.conserved]


@dataclass
class SweepReport:
    """The report envelope; a harness fills in the data fields.

    ``cells`` may hold any record with ``key`` and ``to_json()`` — the
    crash-fuzz sweep's per-workload records are not throughput cells.
    """

    #: schema tag, first key of the JSON document
    format: str
    #: JSON fields between the tag and the cells
    header: dict[str, object]
    title: str
    #: ``(heading, cell -> value)`` per table column
    columns: tuple[tuple[str, Callable[[object], object]], ...]
    #: each ``cells -> one message per violation``
    invariants: tuple[Callable[[list], list[str]], ...]
    #: the ``key`` entries :meth:`cell` looks up by, in argument order
    key_fields: tuple[str, ...]
    #: footer line when nothing is violated
    all_clear: str
    #: heading of the violation list in the text rendering
    problems: str = "Invariant violations"
    #: JSON key of the cell list
    cells_key: str = "cells"
    #: JSON key of the violation list (None: the schema carries none)
    violations_key: str | None = "violations"
    cells: list = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def check(self) -> "SweepReport":
        """Run every invariant over the cells; returns ``self``."""
        self.violations = [message for invariant in self.invariants
                           for message in invariant(self.cells)]
        return self

    @property
    def ok(self) -> bool:
        return not self.violations

    def cell(self, *coords):
        wanted = dict(zip(self.key_fields, coords))
        for cell in self.cells:
            if all(cell.key[name] == value
                   for name, value in wanted.items()):
                return cell
        raise KeyError(f"no cell {wanted}")

    def to_json(self) -> dict:
        doc = {"format": self.format, **self.header,
               self.cells_key: [cell.to_json() for cell in self.cells]}
        if self.violations_key:
            doc[self.violations_key] = list(self.violations)
        doc["ok"] = self.ok
        return doc

    def render(self) -> str:
        from repro.core.results import render_table

        table = render_table(
            [heading for heading, _ in self.columns],
            [[value(cell) for _, value in self.columns]
             for cell in self.cells],
            title=self.title)
        if self.violations:
            return table + f"\n\n{self.problems}:\n" + "\n".join(
                f"  - {v}" for v in self.violations)
        return table + "\n" + self.all_clear
