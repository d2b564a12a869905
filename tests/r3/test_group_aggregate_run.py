"""``group_aggregate`` by the run, against the row loop it replaced.

``reference_group_aggregate`` below is the Figure 4 idiom as it was:
one ``extract`` a record, then a LOOP that charges each row before it
reads its key, and so charges a group's successor before it folds the
group.  Two twin systems run one of each; they must return
the same groups and leave the same ``repr`` of the clock, every counter
and the LRU order — for empty input, one group, keys that are equal
across types (``1``, ``1.0``, ``True``), a fold raising at group *k*,
and a deadline swept across the whole run.
"""

from hypothesis import given, settings, strategies as st

from repro.r3.abap import InternalTable, group_aggregate
from repro.r3.appserver import R3System, R3Version


class Timeout(Exception):
    pass


class FoldFailed(Exception):
    pass


def reference_group_aggregate(r3, records, key_fn, fold_fn):
    with r3.tracer.span("abap.group_aggregate") as span:
        itab = InternalTable(r3)
        for record in records:
            itab.extract(record)
        itab.sort(key_fn)
        out = []
        group_key, group_rows = None, []
        for row in itab.rows:
            r3.charge_abap(1)
            key = key_fn(row)
            if group_key is None:
                group_key = key
            elif key != group_key:
                out.append(fold_fn(group_key, group_rows))
                group_key, group_rows = key, []
            group_rows.append(row)
        if group_key is not None:
            out.append(fold_fn(group_key, group_rows))
        span.set(records=len(itab), groups=len(out))
    return out


def run(aggregate, records, raise_at=None, deadline=None) -> tuple:
    """The outcome and what the system observed afterwards."""
    r3 = R3System(R3Version.V22)
    folds = 0

    def fold(key, rows):
        nonlocal folds
        folds += 1
        if folds == raise_at:
            raise FoldFailed()
        return key + (len(rows), sum(row[1] for row in rows))

    if deadline is not None:
        r3.clock.push_deadline(r3.clock.now + deadline, Timeout)
    try:
        outcome = repr(aggregate(r3, records, lambda row: (row[0],), fold))
    except (FoldFailed, Timeout) as exc:
        outcome = type(exc).__name__
    return (outcome, folds, repr(r3.clock.now), r3.metrics.all(),
            list(r3.db.buffer_pool._pages))


keys = st.sampled_from([0, 1, 1.0, True, 2, 2.5, 3])
records = st.lists(st.tuples(keys, st.integers(0, 9)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(records, st.none() | st.integers(1, 8))
def test_the_run_is_the_row_loop(rows, raise_at):
    assert run(group_aggregate, rows, raise_at) == \
        run(reference_group_aggregate, rows, raise_at)


def test_empty_input_and_one_group():
    for rows in ([], [(1, 5)], [(1, 5), (1.0, 6), (True, 7)]):
        got = run(group_aggregate, rows)
        assert got == run(reference_group_aggregate, rows)
    assert got[0] == repr([(1, 3, 18)])


def test_a_deadline_swept_across_the_run():
    """Many pages of spill, many groups: the deadline fires in the
    extracts, the sort, the spill and the AT END loop in turn."""
    rows = [(n % 37, n % 10) for n in range(3000)]
    outcome, _folds, finish, *_ = run(group_aggregate, rows)
    assert outcome != "Timeout"
    total = float(finish)
    for step in range(81):
        deadline = total * step / 80
        assert run(group_aggregate, rows, deadline=deadline) == \
            run(reference_group_aggregate, rows, deadline=deadline), step
