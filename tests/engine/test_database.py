"""End-to-end engine tests through the public Database facade."""

import datetime

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import (
    CatalogError,
    ConstraintError,
    ExecutionError,
    PlanError,
    SqlSyntaxError,
)


def _database():
    database = Database()
    database.create_table(TableSchema("emp", [
        Column("id", SqlType.integer(), nullable=False),
        Column("name", SqlType.varchar(20)),
        Column("dept", SqlType.integer()),
        Column("salary", SqlType.decimal()),
        Column("hired", SqlType.date()),
    ], primary_key=["id"]))
    database.create_table(TableSchema("dept", [
        Column("id", SqlType.integer(), nullable=False),
        Column("dname", SqlType.varchar(20)),
    ], primary_key=["id"]))
    database.execute("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales')")
    for i in range(20):
        database.execute(
            "INSERT INTO emp VALUES (?, ?, ?, ?, ?)",
            (i, f"e{i:02d}", 1 + i % 2, 1000.0 + 10 * i,
             datetime.date(1995, 1, 1 + i)),
        )
    database.analyze()
    return database


@pytest.fixture()
def db():
    return _database()


class TestBasicQueries:
    def test_projection(self, db):
        result = db.execute("SELECT name FROM emp WHERE id = 3")
        assert result.rows == [("e03",)]
        assert result.columns == ["name"]

    def test_star(self, db):
        result = db.execute("SELECT * FROM dept")
        assert len(result.rows[0]) == 2

    def test_expression_projection(self, db):
        result = db.execute("SELECT salary * 2 FROM emp WHERE id = 0")
        assert result.rows == [(2000.0,)]

    def test_order_by_desc_limit(self, db):
        result = db.execute(
            "SELECT name FROM emp ORDER BY salary DESC LIMIT 3"
        )
        assert result.rows == [("e19",), ("e18",), ("e17",)]

    def test_order_by_expression(self, db):
        result = db.execute(
            "SELECT name FROM emp ORDER BY salary * -1 LIMIT 1"
        )
        assert result.rows == [("e19",)]

    def test_order_by_alias(self, db):
        result = db.execute(
            "SELECT salary * 2 AS pay, name FROM emp "
            "ORDER BY pay DESC LIMIT 1"
        )
        assert result.rows[0][1] == "e19"

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT dept FROM emp")
        assert sorted(result.rows) == [(1,), (2,)]

    def test_scalar_helper(self, db):
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 20

    def test_empty_result_scalar(self, db):
        assert db.execute(
            "SELECT name FROM emp WHERE id = 999").scalar() is None


class TestJoins:
    def test_comma_join(self, db):
        result = db.execute(
            "SELECT name, dname FROM emp, dept "
            "WHERE dept = dept.id AND emp.id = 4"
        )
        assert result.rows == [("e04", "eng")]

    def test_ansi_join(self, db):
        result = db.execute(
            "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.id "
            "WHERE emp.id = 5"
        )
        assert result.rows == [("e05", "sales")]

    def test_left_outer_join(self, db):
        db.execute("INSERT INTO emp VALUES (99, 'orphan', 7, 1.0, NULL)")
        result = db.execute(
            "SELECT name, dname FROM emp LEFT JOIN dept "
            "ON emp.dept = dept.id WHERE emp.id = 99"
        )
        assert result.rows == [("orphan", None)]

    def test_self_join_with_aliases(self, db):
        result = db.execute(
            "SELECT a.name, b.name FROM emp a, emp b "
            "WHERE a.id = 1 AND b.id = a.id + 1"
        )
        assert result.rows == [("e01", "e02")]

    def test_three_way_join(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM emp a, emp b, dept "
            "WHERE a.dept = dept.id AND b.dept = dept.id AND a.id = b.id"
        )
        assert result.scalar() == 20

    def test_cross_join(self, db):
        assert db.execute(
            "SELECT COUNT(*) FROM emp, dept").scalar() == 40


class TestAggregation:
    def test_group_by(self, db):
        result = db.execute(
            "SELECT dept, COUNT(*), SUM(salary), AVG(salary), "
            "MIN(salary), MAX(salary) FROM emp GROUP BY dept "
            "ORDER BY dept"
        )
        eng = result.rows[0]
        assert eng[0] == 1 and eng[1] == 10
        assert eng[4] == 1000.0 and eng[5] == 1180.0

    def test_global_aggregate(self, db):
        assert db.execute("SELECT SUM(salary) FROM emp").scalar() == \
            sum(1000.0 + 10 * i for i in range(20))

    def test_global_aggregate_on_empty_input(self, db):
        result = db.execute("SELECT SUM(salary), COUNT(*) FROM emp "
                            "WHERE id > 999")
        assert result.rows == [(None, 0)]

    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT EXTRACT(MONTH FROM hired), COUNT(*) FROM emp "
            "GROUP BY EXTRACT(MONTH FROM hired)"
        )
        assert result.rows == [(1, 20)]

    def test_having(self, db):
        result = db.execute(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept "
            "HAVING SUM(salary) > 10950"
        )
        assert result.rows == [(2, 10)]

    def test_aggregate_arithmetic(self, db):
        result = db.execute(
            "SELECT SUM(salary * 2) / COUNT(*) FROM emp"
        )
        assert result.scalar() == pytest.approx(2190.0)

    def test_count_distinct(self, db):
        assert db.execute(
            "SELECT COUNT(DISTINCT dept) FROM emp").scalar() == 2

    def test_case_in_aggregate(self, db):
        result = db.execute(
            "SELECT SUM(CASE WHEN dept = 1 THEN 1 ELSE 0 END) FROM emp"
        )
        assert result.scalar() == 10

    def test_ungrouped_column_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept")

    def test_having_without_aggregate_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT name FROM emp HAVING name = 'x'")


class TestSubqueries:
    def test_uncorrelated_scalar(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) "
            "FROM emp)"
        )
        assert result.rows == [("e19",)]

    def test_correlated_scalar(self, db):
        result = db.execute(
            "SELECT e.name FROM emp e WHERE e.salary > "
            "(SELECT AVG(salary) + 80 FROM emp d WHERE d.dept = e.dept)"
        )
        assert result.rows == [("e18",), ("e19",)]

    def test_exists(self, db):
        result = db.execute(
            "SELECT dname FROM dept d WHERE EXISTS "
            "(SELECT * FROM emp WHERE emp.dept = d.id AND salary > 1185)"
        )
        assert result.rows == [("sales",)]

    def test_not_exists(self, db):
        result = db.execute(
            "SELECT dname FROM dept d WHERE NOT EXISTS "
            "(SELECT * FROM emp WHERE emp.dept = d.id)"
        )
        assert result.rows == []

    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT dname FROM dept WHERE id IN "
            "(SELECT dept FROM emp WHERE salary > 1185)"
        )
        assert result.rows == [("sales",)]

    def test_not_in_subquery(self, db):
        result = db.execute(
            "SELECT dname FROM dept WHERE id NOT IN "
            "(SELECT dept FROM emp WHERE salary > 1185)"
        )
        assert result.rows == [("eng",)]

    def test_scalar_subquery_in_having(self, db):
        result = db.execute(
            "SELECT dept, SUM(salary) FROM emp GROUP BY dept "
            "HAVING SUM(salary) > (SELECT SUM(salary) * 0.5 FROM emp)"
        )
        assert result.rows == [(2, 11000.0)]


class TestDml:
    def test_insert_with_columns(self, db):
        db.execute("INSERT INTO emp (id, name) VALUES (50, 'new')")
        row = db.execute("SELECT name, salary FROM emp WHERE id = 50")
        assert row.rows == [("new", None)]

    def test_primary_key_enforced(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO emp VALUES (1, 'dup', 1, 1.0, NULL)")

    def test_delete_by_key_uses_index(self, db):
        snap = db.metrics.snapshot()
        deleted = db.execute("DELETE FROM emp WHERE id = 3").scalar()
        assert deleted == 1
        assert snap.get("table.emp.tuples_scanned") == 0

    def test_delete_with_predicate(self, db):
        deleted = db.execute(
            "DELETE FROM emp WHERE salary >= 1150").scalar()
        assert deleted == 5
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 15

    def test_update(self, db):
        db.execute("UPDATE emp SET salary = salary + 100 WHERE dept = 1")
        assert db.execute(
            "SELECT MIN(salary) FROM emp WHERE dept = 1").scalar() == 1100.0

    def test_update_maintains_index(self, db):
        db.execute("UPDATE emp SET id = 500 WHERE id = 0")
        assert db.execute(
            "SELECT name FROM emp WHERE id = 500").scalar() == "e00"


class TestUniqueViolationLeavesNoTrace:
    """A statement that violates a unique index fails before its first
    mutation: store, every index and the digest are as they were."""

    @staticmethod
    def _state(database):
        table = database.catalog.table("t")
        return (table.row_count,
                {name: index.entry_count
                 for name, index in table.indexes.items()},
                sorted(table.store.rows()),
                database.content_digest())

    @pytest.fixture(params=["heap", "lsm"],
                    ids=["unique_db0", "unique_db1"])  # as they always were
    def unique_db(self, request):
        database = Database(storage=request.param)
        database.create_table(TableSchema("t", [
            Column("a", SqlType.integer(), nullable=False),
            Column("b", SqlType.integer()),
            Column("c", SqlType.integer()),
        ], primary_key=["a"]))
        database.catalog.create_index("ub", "t", ["b"], unique=True)
        # after ``ub`` in maintenance order: the index a torn statement
        # used to leave behind
        database.create_index("ic", "t", ["c"])
        database.execute("INSERT INTO t VALUES (1, 10, 7), (3, 30, 7)")
        return database

    def test_failed_insert(self, unique_db):
        before = self._state(unique_db)
        with pytest.raises(ExecutionError, match="unique .*index ub"):
            unique_db.execute("INSERT INTO t VALUES (2, 10, 7)")
        assert self._state(unique_db) == before
        assert unique_db.execute("SELECT a FROM t ORDER BY a").rows == \
            [(1,), (3,)]

    def test_failed_update_of_a_unique_column(self, unique_db):
        before = self._state(unique_db)
        with pytest.raises(ExecutionError, match="unique .*index ub"):
            unique_db.execute("UPDATE t SET b = 10 WHERE a = 3")
        assert self._state(unique_db) == before
        assert unique_db.execute(
            "SELECT a FROM t WHERE c = 7 ORDER BY a").rows == [(1,), (3,)]

    def test_failed_update_onto_an_existing_primary_key(self, unique_db):
        before = self._state(unique_db)
        with pytest.raises(ExecutionError, match="unique index pk_t"):
            unique_db.execute("UPDATE t SET a = 1 WHERE a = 3")
        assert self._state(unique_db) == before

    def test_update_may_keep_its_own_key(self, unique_db):
        unique_db.execute("UPDATE t SET c = 8 WHERE a = 3")
        unique_db.execute("UPDATE t SET b = 30, a = 3 WHERE a = 3")
        assert unique_db.execute(
            "SELECT a, b, c FROM t ORDER BY a").rows == \
            [(1, 10, 7), (3, 30, 8)]

    def test_probe_charges_nothing(self, unique_db):
        table = unique_db.catalog.table("t")
        now, counters = unique_db.clock.now, unique_db.metrics.all()
        for index in table.indexes.values():
            index.check_unique((5, 50, 7))
            index.check_unique((3, 30, 7), 1)  # the row's own entries
        with pytest.raises(ExecutionError):
            table.indexes["ub"].check_unique((5, 10, 7))
        assert (unique_db.clock.now, unique_db.metrics.all()) == \
            (now, counters)


class TestPreparedStatements:
    def test_reuse_with_different_params(self, db):
        stmt = db.prepare("SELECT name FROM emp WHERE id = ?")
        assert stmt.execute((1,)).rows == [("e01",)]
        assert stmt.execute((2,)).rows == [("e02",)]
        assert stmt.executions == 2

    def test_planned_once(self, db):
        before = db.metrics.get("db.plans")
        stmt = db.prepare("SELECT name FROM emp WHERE id = ?")
        stmt.execute((1,))
        stmt.execute((2,))
        assert db.metrics.get("db.plans") == before + 1

    def test_prepared_dml(self, db):
        stmt = db.prepare("DELETE FROM emp WHERE id = ?")
        assert stmt.execute((1,)).scalar() == 1
        assert stmt.execute((1,)).scalar() == 0

    def test_tracing_leaves_nothing_on_a_cached_plan(self, db):
        """The operator profile shadows ``rows`` on every operator of a
        traced plan; once tracing is off the next run must shed it."""
        sql = ("SELECT dname, COUNT(*) FROM emp, dept "
               "WHERE emp.dept = dept.id AND salary > ? GROUP BY dname")

        def operators(op):
            yield op
            for child in op.child_operators():
                yield from operators(child)

        stmt = db.prepare(sql)
        ops = list(operators(stmt._plan.operator))
        db.tracer.enable()
        stmt.execute((1050.0,))
        db.tracer.disable()
        assert all("rows" in vars(op) for op in ops)
        rows = stmt.execute((1050.0,)).rows
        assert not any("rows" in vars(op) or "_profile" in vars(op)
                       for op in ops)
        never_traced = _database()
        twin = never_traced.prepare(sql)
        twin.execute((1050.0,))
        assert twin.execute((1050.0,)).rows == rows
        assert never_traced.clock.now == db.clock.now


class TestViews:
    def test_view_query(self, db):
        db.create_view("rich", "SELECT name, salary FROM emp "
                               "WHERE salary > 1150")
        result = db.execute("SELECT COUNT(*) FROM rich")
        assert result.scalar() == 4

    def test_view_join(self, db):
        db.create_view("emp_dept",
                       "SELECT name, dname FROM emp, dept "
                       "WHERE emp.dept = dept.id")
        result = db.execute(
            "SELECT COUNT(*) FROM emp_dept WHERE dname = 'eng'"
        )
        assert result.scalar() == 10

    def test_view_reusable_after_query(self, db):
        db.create_view("v", "SELECT id FROM emp")
        assert db.execute("SELECT COUNT(*) FROM v").scalar() == 20
        assert db.execute("SELECT COUNT(*) FROM v").scalar() == 20

    def test_drop_view(self, db):
        db.create_view("v", "SELECT id FROM emp")
        db.drop_view("v")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM v")


class TestCatalogErrors:
    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM nope")

    def test_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.create_table(TableSchema("emp", [
                Column("x", SqlType.integer())
            ]))

    def test_syntax_error(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELEKT * FROM emp")

    def test_explain_names_operators(self, db):
        plan = db.explain("SELECT name FROM emp WHERE id = 1")
        # At this tiny scale either access path is legitimate; the
        # plan-quality assertions live in test_planner.py.
        assert "Scan(emp" in plan


class TestClockAdvances:
    def test_queries_charge_time(self, db):
        before = db.now
        db.execute("SELECT COUNT(*) FROM emp, dept "
                   "WHERE emp.dept = dept.id")
        assert db.now > before

    def test_deterministic_replay(self):
        def run():
            database = Database()
            database.create_table(TableSchema("t", [
                Column("a", SqlType.integer())
            ], primary_key=["a"]))
            for i in range(50):
                database.execute("INSERT INTO t VALUES (?)", (i,))
            database.analyze()
            database.execute("SELECT SUM(a) FROM t WHERE a > 10")
            return database.now

        assert run() == run()
