"""The application server compiles once (DESIGN.md §19).

What the compiled forms must equal is kept *here*: the interpreter the
executor used to run per row (``_eval_cond``) and the ``decode_value``
loop the pools used to run per field.  The rest pins that a compiled
statement is never used beyond the facts it was compiled from, and that
a repeated text costs no parse, no translation and one call per decoded
row.
"""

import datetime
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.expr import like_to_regex
from repro.engine.types import SqlType
from repro.r3.appserver import R3System, R3Version
from repro.r3.ddic import DDicField, DDicTable, TableKind
from repro.r3.errors import DDicError, OpenSqlError
from repro.r3.opensql import executor
from repro.r3.opensql.ast import (
    OSBetween,
    OSBool,
    OSComp,
    OSField,
    OSHost,
    OSIn,
    OSLike,
    OSLiteral,
    OSNot,
)
from repro.r3.pools import (
    FIELD_SEP,
    NULL_MARK,
    ClusterContainer,
    decode_row,
    decode_value,
    encode_row,
)
from repro.r3.upgrade import upgrade_to_30

# ---------------------------------------------------------------------------
# the reference: the per-row interpreter of the parent commit, verbatim
# ---------------------------------------------------------------------------


def _operand_value(operand, row, getter, host_vars):
    if isinstance(operand, OSLiteral):
        return operand.value
    if isinstance(operand, OSHost):
        if operand.name not in host_vars:
            raise OpenSqlError(f"unbound host variable :{operand.name}")
        return host_vars[operand.name]
    if isinstance(operand, OSField):
        if getter is None:
            return None
        return getter(operand, row)
    raise OpenSqlError(f"bad operand {operand!r}")


def _eval_cond(node, row, getter, host_vars) -> bool:
    """App-server-side predicate evaluation on a decoded row."""
    if isinstance(node, OSBool):
        if node.op == "AND":
            return (_eval_cond(node.left, row, getter, host_vars)
                    and _eval_cond(node.right, row, getter, host_vars))
        return (_eval_cond(node.left, row, getter, host_vars)
                or _eval_cond(node.right, row, getter, host_vars))
    if isinstance(node, OSNot):
        return not _eval_cond(node.operand, row, getter, host_vars)
    if isinstance(node, OSComp):
        left = getter(node.left, row)
        right = _operand_value(node.right, row, getter, host_vars)
        if left is None or right is None:
            return False
        if node.op == "=":
            return left == right
        if node.op == "<>":
            return left != right
        if node.op == "<":
            return left < right
        if node.op == "<=":
            return left <= right
        if node.op == ">":
            return left > right
        return left >= right
    if isinstance(node, OSLike):
        left = getter(node.left, row)
        pattern = _operand_value(node.pattern, row, getter, host_vars)
        if left is None or pattern is None:
            return False
        matched = like_to_regex(pattern).match(left) is not None
        return not matched if node.negated else matched
    if isinstance(node, OSIn):
        left = getter(node.left, row)
        values = [
            _operand_value(item, row, getter, host_vars)
            for item in node.items
        ]
        found = left in values
        return not found if node.negated else found
    if isinstance(node, OSBetween):
        left = getter(node.left, row)
        low = _operand_value(node.low, row, getter, host_vars)
        high = _operand_value(node.high, row, getter, host_vars)
        if left is None or low is None or high is None:
            return False
        result = low <= left <= high
        return not result if node.negated else result
    raise OpenSqlError(f"bad condition node {node!r}")


def _eq_conditions(cond, host_vars):
    """field -> value for top-level AND-connected equality tests."""
    out = {}

    def visit(node):
        if node is None:
            return
        if isinstance(node, OSBool) and node.op == "AND":
            visit(node.left)
            visit(node.right)
        elif isinstance(node, OSComp) and node.op == "=":
            value = _operand_value(node.right, None, None, host_vars)
            if not isinstance(node.right, OSField):
                out[node.left.name.lower()] = value

    visit(cond)
    return out


# ---------------------------------------------------------------------------
# (i) compiled predicate == interpreted predicate
# ---------------------------------------------------------------------------

#: the row of the property: two integers, two strings
PREDICATE_TABLE = DDicTable("zpred", TableKind.POOL, [
    DDicField("i0", SqlType.integer(), key=True),
    DDicField("i1", SqlType.integer()),
    DDicField("s0", SqlType.char(4)),
    DDicField("s1", SqlType.char(4)),
], container="zpool")

_ints = st.one_of(st.none(), st.integers(-3, 3))
_strs = st.one_of(st.none(), st.text(alphabet="ab%_", max_size=3))
_rows = st.lists(st.tuples(_ints, _ints, _strs, _strs), min_size=1,
                 max_size=6)
#: host variables: any of them may be unbound, any bound one may be NULL
_host_vars = st.fixed_dictionaries({}, optional={
    "hi0": _ints, "hi1": _ints, "hs0": _strs, "hs1": _strs})


def _operand(fields, literals, hosts):
    return st.one_of(
        st.builds(OSField, st.none(), st.sampled_from(fields)),
        st.builds(OSLiteral, literals),
        st.builds(OSHost, st.sampled_from(hosts)),
    )


def _leaves(fields, literals, hosts):
    field = st.builds(OSField, st.none(), st.sampled_from(fields))
    value = _operand(fields, literals, hosts)
    return st.one_of(
        st.builds(OSComp, field,
                  st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), value),
        st.builds(OSIn, field, st.lists(value, min_size=1, max_size=3),
                  st.booleans()),
        st.builds(OSBetween, field, value, value, st.booleans()),
    )


_leaf = st.one_of(
    _leaves(("i0", "i1"), _ints, ("hi0", "hi1")),
    _leaves(("s0", "s1"), _strs, ("hs0", "hs1")),
    st.builds(OSLike, st.builds(OSField, st.none(),
                                st.sampled_from(("s0", "s1"))),
              _operand(("s0", "s1"), _strs, ("hs0", "hs1")), st.booleans()),
)
_conds = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(OSBool, st.sampled_from(["AND", "OR"]), inner, inner),
        st.builds(OSNot, inner),
    ),
    max_leaves=6,
)


def _outcome(run):
    try:
        return ("value", run())
    except OpenSqlError as exc:
        return ("error", str(exc))


def _getter(field, row):
    return row[PREDICATE_TABLE.positions[field.name.lower()]]


@settings(max_examples=500, deadline=None)
@given(_conds, _rows, _host_vars)
def test_compiled_predicate_agrees_with_the_interpreter(cond, rows,
                                                        host_vars):
    source = executor._Source(PREDICATE_TABLE)
    holds = source.function("row, host_vars", source.cond(cond))
    for row in rows:
        expected = _outcome(lambda: _eval_cond(cond, row, _getter, host_vars))
        got = _outcome(lambda: holds(row, host_vars))
        assert got == expected
        assert type(got[1]) is type(expected[1])  # a bool, not a NULL


@settings(max_examples=200, deadline=None)
@given(_conds, _host_vars)
def test_compiled_equalities_agree_with_the_interpreter(cond, host_vars):
    fields, eq = executor._Source(None).equalities(cond)
    expected = _outcome(lambda: _eq_conditions(cond, host_vars))
    assert _outcome(lambda: eq(host_vars)) == expected
    if expected[0] == "value":
        assert sorted(set(fields)) == sorted(expected[1])


class TestTwoValuedNulls:
    """The app-side rule differs from the engine's Kleene rule."""

    def _holds(self, cond, row, host_vars=None):
        source = executor._Source(PREDICATE_TABLE)
        return source.function("row, host_vars", source.cond(cond))(
            row, host_vars or {})

    def test_comparison_with_null_is_false_not_null(self):
        cond = OSComp(OSField(None, "i0"), "=", OSLiteral(1))
        assert self._holds(cond, (None, 0, "a", "b")) is False

    def test_not_of_a_null_comparison_is_true(self):
        cond = OSNot(OSComp(OSField(None, "i0"), "=", OSLiteral(1)))
        assert self._holds(cond, (None, 0, "a", "b")) is True

    def test_null_host_variable_is_false_unbound_one_raises(self):
        cond = OSComp(OSField(None, "i0"), "<", OSHost("x"))
        assert self._holds(cond, (1, 0, "a", "b"), {"x": None}) is False
        with pytest.raises(OpenSqlError, match="unbound host variable :x"):
            self._holds(cond, (1, 0, "a", "b"), {})

    def test_unbound_host_variable_raises_only_where_it_is_read(self):
        cond = OSBool("OR", OSComp(OSField(None, "i0"), "=", OSLiteral(1)),
                      OSComp(OSField(None, "i1"), "=", OSHost("x")))
        assert self._holds(cond, (1, 0, "a", "b"), {}) is True
        with pytest.raises(OpenSqlError, match="unbound host variable :x"):
            self._holds(cond, (2, 0, "a", "b"), {})


# ---------------------------------------------------------------------------
# (ii) generated decoder == decode_value loop
# ---------------------------------------------------------------------------

_TYPES = {
    "char": (SqlType.char(8),
             st.text(alphabet=st.characters(min_codepoint=32,
                                            max_codepoint=126), max_size=6)),
    "integer": (SqlType.integer(), st.integers(-10**9, 10**9)),
    "decimal": (SqlType.decimal(),
                st.floats(allow_nan=False, allow_infinity=False)),
    "date": (SqlType.date(), st.dates()),
}


@st.composite
def _typed_rows(draw):
    """(type names, rows of those types with NULLs)"""
    names = draw(st.lists(st.sampled_from(sorted(_TYPES)), min_size=1,
                          max_size=6))
    row = st.tuples(*[st.one_of(st.none(), _TYPES[name][1])
                      for name in names])
    return names, draw(st.lists(row, min_size=1, max_size=4))


def _reference_decode(text, fields):
    """The parent's ``decode_row`` body."""
    return tuple(decode_value(part, f.sql_type)
                 for part, f in zip(text.split(FIELD_SEP), fields))


@settings(max_examples=200, deadline=None)
@given(_typed_rows())
def test_generated_decoder_agrees_with_the_decode_value_loop(typed):
    names, rows = typed
    fields = [DDicField(f"f{i}", _TYPES[name][0], key=i == 0)
              for i, name in enumerate(names)]
    table = DDicTable("zcodec", TableKind.POOL, fields, container="zpool")
    mandt = DDicField("mandt", SqlType.char(3))
    for row in rows:
        text = encode_row(row)
        assert table.decode_cluster_row(text) == row
        assert table.decode_cluster_row(text) == \
            _reference_decode(text, fields)
        assert decode_row(text, fields) == row
        full = ("301",) + row
        assert table.decode_pool_row(encode_row(full)) == full
        assert table.decode_pool_row(encode_row(full)) == \
            _reference_decode(encode_row(full), [mandt] + fields)
        # a cluster page is its rows, in order
        page = "\x1e".join([text] * 3)
        assert ClusterContainer.decode_page(table, page) == [row] * 3


def _codec_table():
    return DDicTable("zcodec", TableKind.CLUSTER, [
        DDicField("k", SqlType.char(4), key=True),
        DDicField("n", SqlType.integer()),
        DDicField("d", SqlType.date()),
    ], container="zclu", cluster_key_length=1)


class TestCorruptRows:
    def test_null_mark_of_a_number_is_null(self):
        text = FIELD_SEP.join(["A", NULL_MARK, NULL_MARK])
        assert _codec_table().decode_cluster_row(text) == ("A", None, None)

    def test_wrong_part_count(self):
        with pytest.raises(DDicError) as caught:
            _codec_table().decode_cluster_row("A" + FIELD_SEP + "1")
        assert str(caught.value) == \
            "corrupt encoded row: 2 parts, 3 fields expected"

    @pytest.mark.parametrize("parts,field", [
        (["A", "x", "1995-06-17"], "n"),
        (["A", "1", "1995-17-06"], "d"),
    ])
    def test_corrupt_value_is_a_typed_error(self, parts, field):
        # On the parent a bare ValueError escaped.
        table = _codec_table()
        with pytest.raises(DDicError, match=f"field zcodec.{field}"):
            table.decode_cluster_row(FIELD_SEP.join(parts))
        with pytest.raises(DDicError, match=f"field zcodec.{field}"):
            table.decode_pool_row(FIELD_SEP.join(["301"] + parts))
        with pytest.raises(DDicError, match=f"field {field}"):
            decode_row(FIELD_SEP.join(parts), table.fields)

    def test_corrupt_value_surfaces_typed_through_open_sql(self, r3):
        r3.db.execute("UPDATE koclu SET vardata = ? WHERE knumv = ?",
                      (FIELD_SEP.join(["V1", "000001", "DISC", "oops"]),
                       "V1"))
        with pytest.raises(DDicError, match="'oops' for field konv.kbetr"):
            r3.open_sql.select("SELECT kposn FROM konv WHERE knumv = 'V1'")


# ---------------------------------------------------------------------------
# a small system with all three table kinds
# ---------------------------------------------------------------------------


@pytest.fixture()
def r3():
    system = R3System(R3Version.V22)
    system.define_pool("kapol")
    system.define_cluster(
        "koclu", [DDicField("knumv", SqlType.char(10), key=True)])
    system.activate_table(DDicTable("mara", TableKind.TRANSPARENT, [
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("mtart", SqlType.char(25)),
        DDicField("psize", SqlType.integer()),
    ]))
    system.activate_table(DDicTable("a004", TableKind.POOL, [
        DDicField("kschl", SqlType.char(4), key=True),
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("knumh", SqlType.char(10)),
    ], container="kapol"))
    system.activate_table(DDicTable("konv", TableKind.CLUSTER, [
        DDicField("knumv", SqlType.char(10), key=True),
        DDicField("kposn", SqlType.char(6), key=True),
        DDicField("kschl", SqlType.char(4)),
        DDicField("kbetr", SqlType.decimal()),
    ], container="koclu", cluster_key_length=1))
    for i in range(12):
        system.insert_logical("mara", (f"M{i:03d}", f"TYPE{i % 3}", i))
        system.insert_logical("a004", ("PR00", f"M{i:03d}", f"H{i:03d}"))
    for doc in ("V1", "V2"):
        system.insert_cluster("konv", (doc,), [
            (doc, f"{i:06d}", "DISC" if i % 2 else "TAX", float(i))
            for i in range(1, 6)])
    system.db.analyze()
    system.tracer.enable()
    return system


def _last_path(r3, name="opensql.select"):
    return r3.tracer.find(name)[-1].attrs["path"]


# ---------------------------------------------------------------------------
# (iv) a compiled statement is valid only for what it was compiled from
# ---------------------------------------------------------------------------


class TestStaleness:
    def test_cluster_text_is_pushed_down_after_the_upgrade(self, r3):
        text = "SELECT kposn kbetr FROM konv WHERE knumv = :k AND kschl = 'TAX'"
        before = r3.open_sql.select(text, {"k": "V1"})
        assert _last_path(r3) == "cluster"
        assert r3.open_sql.select(text, {"k": "V2"}).rows == before.rows
        upgrade_to_30(r3)
        after = r3.open_sql.select(text, {"k": "V1"})
        assert _last_path(r3) == "pushdown"
        assert sorted(after.rows) == sorted(before.rows) == \
            [("000002", 2.0), ("000004", 4.0)]
        assert after.fields == before.fields == ["kposn", "kbetr"]

    def test_gated_statement_raises_on_every_call_until_the_upgrade(self, r3):
        text = ("SELECT p~matnr a~psize FROM mara AS p INNER JOIN mara AS a "
                "ON a~matnr = p~matnr WHERE p~matnr = 'M001'")
        for _ in range(2):  # a failed compile is not kept
            with pytest.raises(OpenSqlError, match="require Release 3.0"):
                r3.open_sql.select(text)
        upgrade_to_30(r3)
        assert r3.open_sql.select(text).rows == [("M001", 1)]

    def test_gates_follow_the_release_not_the_first_compile(self, r3):
        text = ("SELECT p~matnr a~psize FROM mara AS p INNER JOIN mara AS a "
                "ON a~matnr = p~matnr WHERE p~matnr = 'M001'")
        r3.version = R3Version.V30
        assert r3.open_sql.select(text).rows == [("M001", 1)]
        r3.version = R3Version.V22
        with pytest.raises(OpenSqlError, match="require Release 3.0"):
            r3.open_sql.select(text)

    def test_pool_text_is_pushed_down_after_the_conversion(self, r3):
        probe = "SELECT knumh FROM a004 WHERE kschl = 'PR00' AND matnr = :m"
        scan = "SELECT matnr FROM a004 WHERE knumh >= 'H010'"
        assert r3.open_sql.select(probe, {"m": "M003"}).rows == [("H003",)]
        assert _last_path(r3) == "pool"
        assert r3.open_sql.select_single(probe, {"m": "M003"}) == ("H003",)
        assert sorted(r3.open_sql.select(scan).rows) == \
            [("M010",), ("M011",)]
        r3.convert_table("a004")
        assert r3.open_sql.select(probe, {"m": "M003"}).rows == [("H003",)]
        assert _last_path(r3) == "pushdown"
        assert r3.open_sql.select_single(probe, {"m": "M003"}) == ("H003",)
        assert _last_path(r3, "opensql.select_single") == "pushdown"
        assert sorted(r3.open_sql.select(scan).rows) == \
            [("M010",), ("M011",)]

    @pytest.mark.parametrize("text,rows", [
        ("SELECT matnr FROM mara WHERE mtart = 'TYPE0'", 4),
        ("SELECT matnr FROM a004 WHERE kschl = 'PR00'", 12),
        ("SELECT kposn FROM konv WHERE knumv = 'V1'", 5),
    ])
    def test_single_does_not_leak_between_the_two_readings(self, r3, text,
                                                           rows):
        assert len(r3.open_sql.select(text)) == rows
        assert r3.open_sql.select_single(text) is not None
        assert len(r3.open_sql.select(text)) == rows
        # and the reverse order, on a text not seen before
        text += " ORDER BY " + text.split()[1]
        first = r3.open_sql.select_single(text)
        everything = r3.open_sql.select(text)
        assert len(everything) == rows and everything.rows[0] == first
        assert r3.open_sql.select_single(text) == first
        assert not any("LIMIT" in span.attrs["sql"]
                       for span in r3.tracer.find("dbif.call")[-2:-1])

    def test_unknown_name_then_view_then_dropped_view(self, r3):
        text = "SELECT matnr psize FROM zbig WHERE psize > :n"
        for _ in range(2):
            with pytest.raises(OpenSqlError,
                               match="unknown table or view zbig"):
                r3.open_sql.select(text, {"n": 9})
        r3.db.create_view(
            "zbig", "SELECT mandt, matnr, psize FROM mara WHERE psize > 5")
        for _ in range(2):
            assert sorted(r3.open_sql.select(text, {"n": 9}).rows) == \
                [("M010", 10), ("M011", 11)]
        r3.db.drop_view("zbig")
        for _ in range(2):
            with pytest.raises(OpenSqlError,
                               match="unknown table or view zbig"):
                r3.open_sql.select(text, {"n": 9})

    def test_dictionary_table_shadows_a_view_of_its_name(self, r3):
        text = "SELECT matnr FROM zshadow"
        r3.db.create_view("zshadow", "SELECT mandt, matnr FROM mara")
        assert len(r3.open_sql.select(text)) == 12
        r3.db.drop_view("zshadow")
        r3.activate_table(DDicTable("zshadow", TableKind.POOL, [
            DDicField("matnr", SqlType.char(18), key=True),
        ], container="kapol"))
        assert r3.open_sql.select(text).rows == []
        assert _last_path(r3) == "pool"

    def test_join_views_appear_after_the_first_failure(self):
        from repro.sapschema.tables import activate_sap_schema
        from repro.sapschema.views import JOIN_VIEWS, create_sap_join_views

        system = R3System(R3Version.V22)
        activate_sap_schema(system)
        view = sorted(JOIN_VIEWS)[0]
        text = f"SELECT mandt FROM {view}"
        with pytest.raises(OpenSqlError, match="unknown table or view"):
            system.open_sql.select(text)
        create_sap_join_views(system)
        assert system.open_sql.select(text).rows == []

    def test_cold_start_forgets_the_statements(self, r3):
        text = "SELECT matnr FROM mara WHERE psize = :n"
        r3.open_sql.select(text, {"n": 1})
        assert _calls_into(lambda: r3.open_sql.select(text, {"n": 2}),
                           PARSER) == 0
        r3.dbif.cold_start()
        assert _calls_into(lambda: r3.open_sql.select(text, {"n": 3}),
                           PARSER) > 0
        assert _calls_into(lambda: r3.open_sql.select(text, {"n": 4}),
                           PARSER) == 0

    def test_the_map_is_bounded(self, r3):
        texts = [f"SELECT matnr FROM mara WHERE psize = {n}"
                 for n in range(2000)]
        for text in texts:
            r3.open_sql.select(text)
        assert len(r3.open_sql._statements) == executor.MAX_STATEMENTS
        # the oldest went first; an evicted text is compiled again
        assert _calls_into(lambda: r3.open_sql.select(texts[-1]), PARSER) == 0
        assert _calls_into(lambda: r3.open_sql.select(texts[0]), PARSER) > 0
        assert r3.open_sql.select(texts[7]).rows == [("M007",)]

    def test_host_variables_are_bound_per_call(self, r3):
        text = "SELECT kposn FROM konv WHERE knumv = :k AND kbetr > :b"
        assert len(r3.open_sql.select(text, {"k": "V1", "b": 3.5})) == 2
        assert len(r3.open_sql.select(text, {"k": "V2", "b": 0.0})) == 5
        for _ in range(2):
            with pytest.raises(OpenSqlError,
                               match="unbound host variable :b"):
                r3.open_sql.select(text, {"k": "V1"})

    def test_cursor_cache_ablation_still_bypasses(self, r3):
        text = "SELECT matnr FROM mara WHERE psize = :n"
        r3.dbif.cache_enabled = False
        for n in range(3):
            r3.open_sql.select(text, {"n": n})
        assert r3.metrics.get("dbif.cursor_cache_bypassed") == 3
        assert r3.metrics.get("dbif.cursor_cache_hits") == 0


# ---------------------------------------------------------------------------
# (v) call budgets: what a repeated text and a decoded row cost
# ---------------------------------------------------------------------------

PARSER = ("r3/opensql/parser.py", None)
TRANSLATE = ("r3/opensql/translate.py", "translate")
POOLS = ("r3/pools.py", None)


def _calls_into(run, *targets) -> int:
    """Python-level calls (generator resumes included) that ``run()``
    makes into the ``(file ending, function or None)`` targets."""
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            calls += any(
                code.co_filename.replace("\\", "/").endswith(ending)
                and function in (None, code.co_name)
                for ending, function in targets)

    outer = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return calls


@pytest.mark.parametrize("text,host_vars", [
    ("SELECT matnr FROM mara WHERE psize = :n", {"n": 3}),
    ("SELECT SINGLE * FROM mara WHERE matnr = :m", {"m": "M003"}),
    ("SELECT knumh FROM a004 WHERE kschl = 'PR00' AND matnr = :m",
     {"m": "M003"}),
    ("SELECT kposn kbetr FROM konv WHERE knumv = :k ORDER BY kbetr",
     {"k": "V1"}),
])
def test_a_repeated_text_is_neither_parsed_nor_translated(r3, text,
                                                          host_vars):
    # A regression pin in calls, not in seconds: a report's statement is
    # generated once.  A per-call parse or translation fails here.
    run = r3.open_sql.select_single if "SINGLE" in text else r3.open_sql.select
    assert _calls_into(lambda: run(text, host_vars), PARSER) > 0
    assert _calls_into(lambda: run(text, host_vars), PARSER, TRANSLATE) == 0


def test_a_decoded_row_costs_one_python_call():
    table = DDicTable("konv", TableKind.CLUSTER, [
        DDicField("knumv", SqlType.char(10), key=True),
        DDicField("kposn", SqlType.char(6), key=True),
        DDicField("kschl", SqlType.char(4)),
        DDicField("kbetr", SqlType.decimal()),
        DDicField("kdatu", SqlType.date()),
    ], container="koclu", cluster_key_length=1)
    rows = [("V1", f"{i:06d}", None if i % 7 == 0 else "DISC", float(i),
             datetime.date(1995, 1, 1)) for i in range(60)]
    container = ClusterContainer(
        "koclu", [DDicField("knumv", SqlType.char(10), key=True)])
    (page,) = [p[-1] for p in container.physical_rows("301", ("V1",), rows)]
    assert ClusterContainer.decode_page(table, page) == rows  # generated
    decoded = []
    calls = _calls_into(
        lambda: decoded.extend(ClusterContainer.decode_page(table, page)),
        POOLS)
    assert decoded == rows
    assert calls <= 1 * 60 + 5, calls / 60


# ---------------------------------------------------------------------------
# (vi) the two bugfixes
# ---------------------------------------------------------------------------


class TestAppSideOrderByNulls:
    """ORDER BY over NULLs in the app server takes the engine's rule, so
    a text sorts the same before and after its table turns transparent.
    On the parent: TypeError, '<' not supported between NoneType and str.
    """

    @pytest.fixture()
    def nulls(self, r3):
        for i, knumh in enumerate(["B", None, "A", None, "B"]):
            r3.insert_logical("a004", ("NULL", f"N{i}", knumh))
        return r3

    def _both_paths(self, r3, text):
        app_side = r3.open_sql.select(text).rows
        assert _last_path(r3) == "pool"
        r3.convert_table("a004")
        assert r3.open_sql.select(text).rows == app_side
        assert _last_path(r3) == "pushdown"
        return app_side

    def test_nulls_first_ascending(self, nulls):
        rows = self._both_paths(
            nulls, "SELECT matnr knumh FROM a004 WHERE kschl = 'NULL' "
                   "ORDER BY knumh matnr")
        assert rows == [("N1", None), ("N3", None), ("N2", "A"),
                        ("N0", "B"), ("N4", "B")]

    def test_nulls_last_descending(self, nulls):
        rows = self._both_paths(
            nulls, "SELECT matnr knumh FROM a004 WHERE kschl = 'NULL' "
                   "ORDER BY knumh DESCENDING matnr")
        assert rows == [("N0", "B"), ("N4", "B"), ("N2", "A"),
                        ("N1", None), ("N3", None)]

    def test_the_sort_is_stable_and_charged_as_before(self, nulls):
        before = nulls.metrics.get("abap.rows_processed")
        rows = nulls.open_sql.select(
            "SELECT matnr FROM a004 WHERE kschl = 'NULL' "
            "ORDER BY knumh DESCENDING").rows
        # equal keys keep their stored (VARKEY) order
        assert rows == [("N0",), ("N4",), ("N2",), ("N1",), ("N3",)]
        # one per row looked at (17 in the pool) + one per row sorted
        assert nulls.metrics.get("abap.rows_processed") - before == 17 + 5


class TestUnknownFieldOnAnEncapsulatedTable:
    """The compile resolves positions: the typed error does not wait for
    a row to reach the field.  On the parent an empty table answered []."""

    @pytest.mark.parametrize("text", [
        "SELECT kposn FROM konv WHERE knumv = 'V9' AND nosuch = 1",
        "SELECT kposn FROM konv WHERE knumv = 'V9' ORDER BY nosuch",
        "SELECT kposn nosuch FROM konv WHERE knumv = 'V9'",
    ])
    def test_raises_with_or_without_rows(self, r3, text):
        for variant in (text, text.replace("V9", "V1")):
            for _ in range(2):
                with pytest.raises(OpenSqlError,
                                   match="no field nosuch in konv"):
                    r3.open_sql.select(variant)
