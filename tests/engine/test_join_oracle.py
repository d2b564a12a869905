"""The join executor against an engine we did not write: ``sqlite3``.

Random 2–4-way equi-join ``SELECT``s over four small integer tables —
single, composite and repeated keys, NULL keys, self-joins, and extra
``WHERE`` conjuncts (``IS [NOT] NULL``, ``OR``, arithmetic across
tables) — run on this engine and on the standard library's SQLite, and
the answers are compared as multisets.  Columns are integers only and
there is no ``/``, where the two engines' arithmetic would differ; NULL
logic is SQL's in both.  ``GROUP BY`` queries over such joins compare
their numbers as floats: this engine's ``SUM`` is one.  Heap and LSM
storage, one lane and four.
"""

import random
import sqlite3
from collections import Counter

import pytest

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.sim.params import SimParams

TABLES = ("t1", "t2", "t3", "t4")
COLUMNS = ("a", "b", "c")
QUERIES = 100


def _rows(rng: random.Random) -> dict[str, list[tuple]]:
    """40–70 rows a table, values 0–4 or NULL: keys repeat."""
    def value():
        return None if rng.random() < 0.15 else rng.randrange(5)

    return {name: [(k, value(), value(), value())
                   for k in range(rng.randrange(40, 70))]
            for name in TABLES}


def _engine(rows, storage: str, degree: int) -> Database:
    params = SimParams()
    params.parallel_min_rows_per_lane = 10  # small tables get lanes
    params.lsm_memtable_bytes = 2048
    db = Database(params, storage=storage, degree=degree)
    for name, table_rows in rows.items():
        db.create_table(TableSchema(name, [
            Column("id", SqlType.integer(), nullable=False),
            *(Column(column, SqlType.integer()) for column in COLUMNS),
        ], primary_key=["id"]))
        db.bulk_load(name, table_rows)
    db.analyze()
    return db


def _oracle(rows) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    for name, table_rows in rows.items():
        conn.execute(f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, "
                     f"a INTEGER, b INTEGER, c INTEGER)")
        conn.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)",
                         table_rows)
    return conn


def _query(rng: random.Random) -> str:
    """A join tree over 2–4 aliased tables (a table may repeat), each
    edge one or two equalities, then zero to two extra conjuncts."""
    count = rng.randint(2, 4)
    aliases = [f"x{n}" for n in range(count)]
    tables = [rng.choice(TABLES) for _ in aliases]

    def ref(alias=None):
        return f"{alias or rng.choice(aliases)}.{rng.choice(COLUMNS)}"

    conjuncts = []
    for n in range(1, count):
        other = aliases[rng.randrange(n)]
        for _ in range(rng.choice((1, 1, 2))):  # composite keys too
            conjuncts.append(f"{ref(aliases[n])} = {ref(other)}")
    for _ in range(rng.choice((0, 1, 1, 2))):
        conjuncts.append(rng.choice((
            f"{ref()} IS NULL",
            f"{ref()} IS NOT NULL",
            f"({ref()} = {rng.randrange(5)} OR {ref()} < {ref()})",
            f"{ref()} + {ref()} > {rng.randrange(6)}",
            f"{ref()} - {ref()} <> {ref()}",
        )))
    rng.shuffle(conjuncts)
    items = [rng.choice((ref(), f"{ref()} * {ref()}", f"{ref()} + 1",
                         f"{rng.choice(aliases)}.id"))
             for _ in range(rng.randint(1, 4))]
    sources = ", ".join(f"{table} {alias}"
                        for table, alias in zip(tables, aliases))
    return (f"SELECT {', '.join(items)} FROM {sources} "
            f"WHERE {' AND '.join(conjuncts)}")


@pytest.mark.parametrize("degree", [1, 4])
@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_joins_agree_with_sqlite(storage, degree):
    rng = random.Random(f"{storage}-{degree}")
    rows = _rows(rng)
    db, oracle = _engine(rows, storage, degree), _oracle(rows)
    answered = 0
    for _ in range(QUERIES):
        sql = _query(rng)
        got = Counter(db.execute(sql).rows)
        expected = Counter(oracle.execute(sql).fetchall())
        assert got == expected, sql
        answered += bool(expected)
    assert answered > QUERIES // 2  # most queries have rows to compare


def _grouped(rng: random.Random) -> str:
    """``GROUP BY`` zero to three columns of a join of one to four
    aliased tables, each edge one equality; ``COUNT``, ``COUNT
    (DISTINCT)``, ``SUM``, ``MIN`` and ``MAX`` of columns or products."""
    count = rng.randint(1, 4)
    aliases = [f"x{n}" for n in range(count)]
    tables = [rng.choice(TABLES) for _ in aliases]

    def ref(alias=None):
        return f"{alias or rng.choice(aliases)}.{rng.choice(COLUMNS)}"

    conjuncts = [f"{ref(aliases[n])} = {ref(aliases[rng.randrange(n)])}"
                 for n in range(1, count)]
    if rng.random() < 0.5:
        conjuncts.append(rng.choice((f"{ref()} IS NOT NULL",
                                     f"{ref()} < {rng.randrange(5)}")))
    groups = [ref() for _ in range(rng.randint(0, 3))]
    aggregates = [rng.choice(("COUNT(*)", f"COUNT({ref()})",
                              f"COUNT(DISTINCT {ref()})", f"SUM({ref()})",
                              f"SUM({ref()} * {ref()})", f"MIN({ref()})",
                              f"MAX({ref()} + {ref()})"))
                  for _ in range(rng.randint(1, 3))]
    sources = ", ".join(f"{table} {alias}"
                        for table, alias in zip(tables, aliases))
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    group = f" GROUP BY {', '.join(groups)}" if groups else ""
    return (f"SELECT {', '.join(groups + aggregates)} FROM {sources}"
            f"{where}{group}")


def _numbers(rows) -> Counter:
    """Rows as a multiset, every number a float: the engine's ``SUM``
    is a float, SQLite's an integer (DESIGN.md §6)."""
    return Counter(tuple(None if value is None else float(value)
                         for value in row) for row in rows)


@pytest.mark.parametrize("degree", [1, 4])
@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_group_by_agrees_with_sqlite(storage, degree):
    rng = random.Random(f"group-{storage}-{degree}")
    rows = _rows(rng)
    db, oracle = _engine(rows, storage, degree), _oracle(rows)
    for _ in range(QUERIES):
        sql = _grouped(rng)
        got = _numbers(db.execute(sql).rows)
        assert got == _numbers(oracle.execute(sql).fetchall()), sql
    # two aggregates apart only by a literal's type: no SUM, so the
    # numbers keep their types
    sql = "SELECT MAX(a * 1), MAX(a * 1.0) FROM t1"
    assert repr(db.execute(sql).rows) == repr(oracle.execute(sql).fetchall())
