"""Hash tables hold rows under plain keys, and the joins probe them.

``build_hash_table`` keys a one-column table by the value itself and a
composite one by the tuple of the values; unique keys (of the rows
without a NULL key part) map each key to its row, anything else to the
list of its rows.  Whatever the
form, ``HashJoin`` must yield what the per-row build and probe of
``test_hash_build.py`` (the reference, unchanged) yield, in the same
order, with the same tuple counts — also where ``1 == 1.0 == True``
share one entry, where a key part is NULL, with the build on the left
and with a residual.  A degree-4 ``ParallelHashJoin`` must route every
build row to the lane its bucket's first key, as a tuple, hashes to —
``key_hash`` reads ``repr``, so ``1`` / ``1.0`` / ``True`` and ``0.0`` /
``-0.0`` are equal keys on different lanes.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.exec.joins import HashJoin, build_hash_table
from repro.engine.exec.misc import RowsSource
from repro.engine.exec.parallel import ParallelHashJoin, key_hash
from repro.engine.expr import BinOp, InputRef, OutputSchema

from tests.engine.test_hash_build import as_buckets, reference_hash_table

#: key values that collide across types (1 == 1.0 == True) or are NULL
KEYS = st.sampled_from([0, 1, 1.0, True, 2, "a", None])
ROWS = st.lists(st.tuples(KEYS, KEYS, st.integers(0, 3)), max_size=25)


def reference_hash_join(left_rows, right_rows, left_positions,
                        right_positions, residual_holds, build_left):
    """``HashJoin.rows`` over the reference table: output and the tuple
    count a run adds (build, probe rows with a key, matches kept)."""
    if build_left:
        build_rows, probe_rows = left_rows, right_rows
        build_keys, probe_keys = left_positions, right_positions
    else:
        build_rows, probe_rows = right_rows, left_rows
        build_keys, probe_keys = right_positions, left_positions
    buckets, tuples = reference_hash_table(build_rows, build_keys)
    out = []
    for probe_row in probe_rows:
        key = tuple(probe_row[position] for position in probe_keys)
        if None in key:
            continue
        tuples += 1
        for build_row in buckets.get(key, ()):
            combined = build_row + probe_row if build_left \
                else probe_row + build_row
            if residual_holds(combined):
                tuples += 1
                out.append(combined)
    return out, tuples


@settings(max_examples=300, deadline=None)
@given(ROWS, ROWS, st.sampled_from([[0], [1], [0, 1], [1, 0]]),
       st.booleans(), st.booleans())
def test_the_join_over_the_table_form_is_the_reference_join(
        left_rows, right_rows, positions, build_left, residual):
    db = Database()
    schema = OutputSchema([(None, "k0"), (None, "k1"), (None, "v")])
    predicate = None
    if residual:  # left.v < right.v
        predicate = BinOp("<", InputRef(2), InputRef(5))
    join = HashJoin(db.ctx, RowsSource(db.ctx, schema, left_rows),
                    RowsSource(db.ctx, schema, right_rows),
                    positions, positions, predicate, build_left=build_left)
    before = db.metrics.get("exec.tuples")
    got = list(join.rows(()))
    expected, tuples = reference_hash_join(
        left_rows, right_rows, positions, positions,
        lambda row: not residual or row[2] < row[5], build_left)
    assert got == expected
    # RowsSource counts each row it hands out, HashJoin the rest
    handed_out = len(left_rows) + len(right_rows)
    assert db.metrics.get("exec.tuples") - before - handed_out == tuples


@settings(max_examples=300, deadline=None)
@given(ROWS, st.sampled_from([[0], [1], [0, 1], [1, 0], [2]]))
def test_the_table_is_the_reference_table_in_plain_keys(rows, positions):
    table, count, unique = build_hash_table(rows, positions)
    reference, reference_count = reference_hash_table(rows, positions)
    assert count == reference_count
    assert list(as_buckets(table, unique, positions)) == list(reference)
    assert as_buckets(table, unique, positions) == reference
    # one column: the value itself is the key, never a 1-tuple
    if len(positions) == 1:
        assert not any(isinstance(key, tuple) for key in table)
    # each row kept its own entry exactly when their keys are unique
    assert unique == (count == len(reference))
    if unique:
        assert list(table.values()) == [
            row for row in rows
            if None not in (row[position] for position in positions)]


def test_equal_keys_of_three_types_share_the_first_key_in_input_order():
    rows = [(1, "a"), (1.0, "b"), (True, "c"), (None, "n"), (2, "d")]
    table, count, unique = build_hash_table(rows, [0])
    assert (count, unique) == (4, False)
    assert list(table.items()) == [
        (1, [(1, "a"), (1.0, "b"), (True, "c")]), (2, [(2, "d")])]
    assert type(next(iter(table))) is int


#: equal keys whose ``repr`` differs, so that they hash to other lanes
LANE_KEYS = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2, None])
LANE_ROWS = st.lists(st.tuples(LANE_KEYS, LANE_KEYS, st.integers(0, 3)),
                     max_size=25)


def reference_repartition_join(build_rows, probe_parts, build_keys,
                               probe_keys, probe_is_left, seed, degree=4):
    """``ParallelHashJoin``'s repartition strategy over the reference
    table: build rows routed by their bucket's tuple key, probe rows by
    their own, each lane's shard rebuilt and probed from every source."""
    buckets, _count = reference_hash_table(build_rows, build_keys)
    shards = [[] for _ in range(degree)]
    for key, bucket in buckets.items():
        shards[key_hash(key, seed) % degree].extend(bucket)
    shuffled = [[[] for _ in range(degree)] for _ in range(degree)]
    for source, part in enumerate(probe_parts):
        for row in part:
            key = tuple(row[position] for position in probe_keys)
            if None not in key:
                shuffled[source][key_hash(key, seed) % degree].append(
                    (key, row))
    out = []
    for index in range(degree):
        table, _count = reference_hash_table(shards[index], build_keys)
        for source in range(degree):
            for key, probe_row in shuffled[source][index]:
                out.extend(probe_row + build_row if probe_is_left
                           else build_row + probe_row
                           for build_row in table.get(key, ()))
    return out


@settings(max_examples=200, deadline=None)
@given(LANE_ROWS, st.lists(LANE_ROWS, min_size=4, max_size=4),
       st.sampled_from([[0], [1], [0, 1]]), st.booleans(),
       st.sampled_from([0, 7]))
def test_repartition_routes_build_rows_by_their_buckets_first_key(
        build_rows, probe_parts, positions, probe_is_left, seed):
    db = Database()
    schema = OutputSchema([(None, "k0"), (None, "k1"), (None, "v")])
    join = ParallelHashJoin(
        db.ctx, RowsSource(db.ctx, schema, build_rows),
        [RowsSource(db.ctx, schema, part) for part in probe_parts],
        positions, positions, probe_is_left, "repartition", seed=seed)
    assert list(join.rows(())) == reference_repartition_join(
        build_rows, probe_parts, positions, positions, probe_is_left, seed)


def test_equal_keys_that_print_differently_meet_on_the_first_keys_lane():
    db = Database()
    schema = OutputSchema([(None, "k"), (None, "v")])
    build = [(1.0, "b1"), (1, "b2"), (True, "b3"), (0.0, "z1"),
             (-0.0, "z2")]
    probes = [[(1.0, "p")], [(0.0, "q")], [], []]
    join = ParallelHashJoin(
        db.ctx, RowsSource(db.ctx, schema, build),
        [RowsSource(db.ctx, schema, part) for part in probes],
        [0], [0], True, "repartition")
    # the probe keys are the buckets' first keys: each finds all three
    # or both rows, although 1 / True and -0.0 alone would route elsewhere
    assert sorted(join.rows(())) == sorted(
        [(1.0, "p", 1.0, "b1"), (1.0, "p", 1, "b2"), (1.0, "p", True, "b3"),
         (0.0, "q", 0.0, "z1"), (0.0, "q", -0.0, "z2")])
