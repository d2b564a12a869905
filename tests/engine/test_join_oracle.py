"""The join executor against an engine we did not write: ``sqlite3``.

Random 2–4-way equi-join ``SELECT``s over four small integer tables —
single, composite and repeated keys, NULL keys, self-joins, and extra
``WHERE`` conjuncts (``IS [NOT] NULL``, ``OR``, arithmetic across
tables) — run on this engine and on the standard library's SQLite, and
the answers are compared as multisets.  Columns are integers only and
there is no ``/``, where the two engines' arithmetic would differ; NULL
logic is SQL's in both.  ``GROUP BY`` queries over such joins compare
their numbers as floats: this engine's ``SUM`` is one.  Join views —
one ``CREATE VIEW`` text on both engines — are read filtered, joined
and grouped.  Heap and LSM storage, one lane and four.
"""

import random
import sqlite3
from collections import Counter

import pytest

from repro.engine.database import Database
from repro.engine.errors import PlanError
from repro.engine.exec.joins import Pipeline
from repro.engine.exec.misc import Project
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


#: join views of one to three tables, their columns computed or not;
#: the three-way one joins on ids, so that a view joined to itself stays
#: small
VIEWS = {
    "v1": "SELECT x.id AS i, x.a AS a, y.b AS b, x.c + y.c AS s "
          "FROM t1 x, t2 y WHERE x.a = y.a",
    "v2": "SELECT x.b AS a, y.c * 2 AS b, z.id AS i, x.a - z.c AS s "
          "FROM t2 x, t3 y, t4 z WHERE x.id = y.a AND y.c = z.id "
          "AND z.b IS NOT NULL",
    "v3": "SELECT x.a AS a, x.b + 1 AS b, x.id AS i, x.c AS s "
          "FROM t1 x WHERE x.c IS NOT NULL",
}


def _over_views(rng: random.Random) -> tuple[str, bool]:
    """A ``SELECT`` over a join view — filtered, joined to a table or
    to another view, or grouped — and whether it is grouped."""
    view = rng.choice(sorted(VIEWS))

    def ref(alias="v"):
        return f"{alias}.{rng.choice('iabs')}"

    shape = rng.choice(("filter", "table", "view", "group"))
    if shape == "group":
        key = ref()
        return (f"SELECT {key}, COUNT(*), SUM({ref()}), MIN({ref()}) "
                f"FROM {view} v GROUP BY {key}"), True
    sources, conjuncts = f"{view} v", []
    if shape == "table":
        sources += f", {rng.choice(TABLES)} x"
        conjuncts.append(f"{ref()} = x.{rng.choice(COLUMNS)}")
    elif shape == "view":
        sources += f", {rng.choice(sorted(VIEWS))} w"
        conjuncts.append(f"{ref()} = {ref('w')}")
    if rng.random() < 0.7:
        conjuncts.append(rng.choice((f"{ref()} IS NOT NULL",
                                     f"{ref()} < {rng.randrange(6)}",
                                     f"{ref()} + {ref()} > 2")))
    items = [ref() if rng.random() < 0.6 else f"{ref()} * {ref()}"
             for _ in range(rng.randint(1, 3))]
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT {', '.join(items)} FROM {sources}{where}", False


@pytest.mark.parametrize("degree", [1, 4])
@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_join_views_agree_with_sqlite(storage, degree, monkeypatch):
    """One ``CREATE VIEW`` text on both engines: at degree 1 the view's
    projection runs as a stage of the kernel that reads it."""
    staged = []
    run = Pipeline.run

    def recorded(self, params):
        staged.append(any(type(stage) is Project and stage is not self.top
                          for stage in self.stages))
        return run(self, params)
    monkeypatch.setattr(Pipeline, "run", recorded)
    rng = random.Random(f"view-{storage}-{degree}")
    rows = _rows(rng)
    db, oracle = _engine(rows, storage, degree), _oracle(rows)
    for name, sql in VIEWS.items():
        db.create_view(name, sql)
        oracle.execute(f"CREATE VIEW {name} AS {sql}")
    answered = 0
    for _ in range(QUERIES):
        sql, grouped = _over_views(rng)
        got, expected = db.execute(sql).rows, oracle.execute(sql).fetchall()
        if grouped:
            assert _numbers(got) == _numbers(expected), sql
        else:
            assert Counter(got) == Counter(expected), sql
        answered += bool(expected)
    assert answered > QUERIES // 2
    if degree == 1:
        assert staged.count(True) > QUERIES // 2


#: a subquery source that has none of the tables' column names
NARROW = "SELECT id AS wid, a AS wa FROM t3"


@pytest.mark.parametrize("sql, problem", [
    # a name both outer tables have, from EXISTS, IN and a scalar, and
    # next to a qualified outer reference
    ("SELECT x.id FROM t1 x, t2 y WHERE EXISTS "
     "(SELECT 1 FROM w WHERE w.wid = a)", "ambiguous"),
    ("SELECT x.id FROM t1 x, t2 y WHERE x.a IN "
     "(SELECT wa FROM w WHERE wid = b)", "ambiguous"),
    ("SELECT x.id FROM t1 x, t2 y WHERE x.a = "
     "(SELECT MAX(wa) FROM w WHERE wid < c)", "ambiguous"),
    ("SELECT x.id FROM t1 x, t2 y WHERE x.id = y.id AND EXISTS "
     "(SELECT 1 FROM w WHERE wid = x.id AND wa = b)", "ambiguous"),
    # one outer table has it: correlated
    ("SELECT x.id FROM t1 x WHERE EXISTS "
     "(SELECT 1 FROM w WHERE wid = x.id AND wa = b)", None),
    ("SELECT x.id FROM t1 x WHERE EXISTS "
     "(SELECT 1 FROM w WHERE wid = nope)", "unknown"),
])
def test_an_outer_reference_resolves_as_in_sqlite(sql, problem):
    """A name the subquery lacks and two outer tables have is ambiguous
    in both engines, not unknown in one of them."""
    rows = _rows(random.Random("outer"))
    db, oracle = _engine(rows, "heap", 1), _oracle(rows)
    db.create_view("w", NARROW)
    oracle.execute(f"CREATE VIEW w AS {NARROW}")
    if problem is None:
        got = Counter(db.execute(sql).rows)
        assert got and got == Counter(oracle.execute(sql).fetchall())
        return
    with pytest.raises(sqlite3.OperationalError) as theirs:
        oracle.execute(sql)
    with pytest.raises(PlanError) as ours:
        db.execute(sql)
    assert str(ours.value).startswith(f"{problem} column")
    assert ("ambiguous" in str(theirs.value)) == (problem == "ambiguous")
