"""``python -m repro bench-diff a.json b.json`` — compare bench dumps.

Benchmarks write ``BENCH_<name>.json`` files (see
``benchmarks/conftest.py``); this helper diffs two of them, printing
every shared numeric field from ``stats`` (wall-clock, i.e. simulator
speed) and ``extra_info`` (simulated seconds and derived ratios, i.e.
the reproduced results) side by side with absolute and relative deltas.

With ``--gate <pct>`` the diff becomes a CI regression gate over the
``extra_info`` section (the *simulated* results, which are
deterministic — wall-clock ``stats`` vary with the runner and are
never gated): exit 1 when any field moved more than ``pct`` percent in
either direction, or appeared/disappeared between baseline and
candidate.  ``--gate-allow`` lists fields exempt from the gate (bare
names or ``extra_info.<name>``), for values that are expected to move
— e.g. wall-clock figures a benchmark chose to record in extra_info.
"""

from __future__ import annotations

import json

from repro.core.results import render_table
from repro.errors import UsageError


def _load(path: str) -> dict:
    """One ``BENCH_*.json`` dump; anything else is a :class:`UsageError`.

    Guards the diff against raw pytest-benchmark output (a JSON *list*
    of runs) and other foreign files, which used to surface as a
    KeyError/AttributeError traceback deep inside the field walk.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: not JSON ({exc})") from None
    if not isinstance(record, dict):
        raise UsageError(
            f"{path}: expected a BENCH_*.json object "
            f"(got {type(record).__name__}); this is not a dump "
            f"written by benchmarks/conftest.py")
    if "name" not in record:
        raise UsageError(
            f"{path}: missing 'name' — not a BENCH_*.json dump "
            f"(top-level keys: {sorted(record)[:6]})")
    for section in ("stats", "extra_info"):
        value = record.get(section)
        if value is not None and not isinstance(value, dict):
            raise UsageError(f"{path}: '{section}' should be an object, "
                             f"got {type(value).__name__}")
    return record


def _numeric_fields(record: dict, section: str) -> dict[str, float]:
    data = record.get(section) or {}
    return {
        key: float(value) for key, value in data.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return f"{int(value):,}"
    return f"{value:,.6g}"


def diff_rows(a: dict, b: dict) -> list[list[str]]:
    rows: list[list[str]] = []
    for section in ("extra_info", "stats"):
        fields_a = _numeric_fields(a, section)
        fields_b = _numeric_fields(b, section)
        for key in sorted(fields_a.keys() | fields_b.keys()):
            va, vb = fields_a.get(key), fields_b.get(key)
            if va is None or vb is None:
                present = "A only" if vb is None else "B only"
                rows.append([f"{section}.{key}",
                             _fmt(va) if va is not None else "-",
                             _fmt(vb) if vb is not None else "-",
                             present, ""])
                continue
            delta = vb - va
            pct = f"{delta / va * 100:+.1f}%" if va else "n/a"
            rows.append([f"{section}.{key}", _fmt(va), _fmt(vb),
                         _fmt(delta), pct])
    return rows


def gate_violations(a: dict, b: dict, gate_pct: float,
                    allow: set[str]) -> list[str]:
    """Gate check over ``extra_info``: baseline ``a`` vs candidate ``b``.

    A field violates the gate when its symmetric relative move exceeds
    ``gate_pct`` percent, when it exists on only one side, or when a
    zero baseline became non-zero.  Fields in ``allow`` (bare name or
    ``extra_info.<name>``) are exempt.
    """
    violations: list[str] = []
    fields_a = _numeric_fields(a, "extra_info")
    fields_b = _numeric_fields(b, "extra_info")
    for key in sorted(fields_a.keys() | fields_b.keys()):
        if key in allow or f"extra_info.{key}" in allow:
            continue
        va, vb = fields_a.get(key), fields_b.get(key)
        if va is None or vb is None:
            side = "candidate" if va is None else "baseline"
            violations.append(f"{key}: only present in the {side}")
            continue
        if va == vb:
            continue
        if not va:
            violations.append(f"{key}: baseline 0 became {_fmt(vb)}")
            continue
        moved = abs(vb - va) / abs(va) * 100
        if moved > gate_pct:
            violations.append(
                f"{key}: {_fmt(va)} -> {_fmt(vb)} "
                f"({(vb - va) / va * 100:+.1f}% > ±{gate_pct:g}%)")
    return violations


def run_bench_diff(args) -> int:
    paths = args.paths
    gate_pct = args.gate
    allow = set(args.gate_allow or ())
    a, b = _load(paths[0]), _load(paths[1])
    name_a = a.get("name") or paths[0]
    name_b = b.get("name") or paths[1]
    if name_a != name_b:
        raise UsageError(
            f"benchmark name mismatch: "
            f"{paths[0]} is {name_a!r} but {paths[1]} is {name_b!r}; "
            f"diff two dumps of the same benchmark")
    rows = diff_rows(a, b)
    violations = ([] if gate_pct is None
                  else gate_violations(a, b, gate_pct, allow))
    if args.format == "json":
        payload = {
            "a": {"path": paths[0], "name": name_a},
            "b": {"path": paths[1], "name": name_b},
            "fields": [
                {"field": r[0], "a": r[1], "b": r[2],
                 "delta": r[3], "delta_pct": r[4]}
                for r in rows
            ],
        }
        if gate_pct is not None:
            payload["gate"] = {
                "threshold_pct": gate_pct,
                "allow": sorted(allow),
                "violations": violations,
                "ok": not violations,
            }
        print(json.dumps(payload, indent=2))
        return 1 if violations else 0
    title = f"bench-diff: {name_a}  vs  {name_b}"
    print(render_table(["Field", "A", "B", "Delta", "Delta %"], rows,
                       title=title))
    if gate_pct is not None:
        if violations:
            print(f"\ngate (±{gate_pct:g}% on extra_info): "
                  f"{len(violations)} violation(s)")
            for violation in violations:
                print(f"  - {violation}")
            return 1
        print(f"\ngate (±{gate_pct:g}% on extra_info): ok")
    return 0
