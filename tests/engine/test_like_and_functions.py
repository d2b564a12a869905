"""``LIKE`` and the scalar functions against ``sqlite3``.

``like_to_regex`` is shared by the engine's row functions and kernels
and by the Open SQL executor.  Its regex is anchored with ``\\Z``: with
``$`` a string that ends in one newline matched a pattern without it.
SQLite (with ``PRAGMA case_sensitive_like = ON``, as this engine's
``LIKE`` is) is the reference over strings and patterns made of the
characters a regex or a ``LIKE`` treats specially, for a literal
pattern (a bound constant) and a parameter (compiled per row).

``SUBSTRING(s, start, length)`` keeps the characters at positions
``max(start, 1)`` to ``start + length - 1``, as SQLite does for a start
that is not negative; a negative length raises.  A function given a
value of a type it does not take raises ``ExecutionError``, not a
bare ``AttributeError`` or ``TypeError``.
"""

import random
import sqlite3

import pytest

from repro.engine.errors import ExecutionError
from repro.engine.expr import (
    FuncCall,
    InputRef,
    LikeExpr,
    Literal,
    ParamRef,
    like_to_regex,
)

#: every character a regex or a LIKE pattern treats specially
CHARS = "ab.%_[]()*+?^$\\|{}\n -"


def _texts(rng: random.Random, count: int, longest: int) -> list[str]:
    return ["".join(rng.choice(CHARS) for _ in range(rng.randrange(longest)))
            for _ in range(count)]


@pytest.fixture(scope="module")
def sqlite():
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    return conn


def test_a_trailing_newline_is_a_character():
    assert like_to_regex("ab").match("ab\n") is None
    assert like_to_regex("ab_").match("ab\n") is not None
    assert like_to_regex("ab%").match("ab\n") is not None
    assert like_to_regex("%").match("\n") is not None


def test_like_is_sqlites(sqlite):
    rng = random.Random(1997)
    strings = _texts(rng, 300, 6)
    by_param = LikeExpr(InputRef(0), ParamRef(0)).compile()
    cases = [(LikeExpr(InputRef(0), Literal(pattern)).compile(), pattern, ())
             for pattern in _texts(rng, 200, 5)]
    cases += [(by_param, pattern, (pattern,))
              for pattern in _texts(rng, 400, 5)]
    disagree = []
    for like, pattern, params in cases:
        for text in strings:
            theirs = sqlite.execute("SELECT ? LIKE ?",
                                    (text, pattern)).fetchone()[0]
            if like((text,), params) is not bool(theirs):
                disagree.append((text, pattern, params))
    assert disagree == []


def _eval(name: str, *args: object) -> object:
    return FuncCall(name, [Literal(arg) for arg in args]).compile()((), ())


@pytest.mark.parametrize("start", range(-3, 9))
@pytest.mark.parametrize("length", [None, *range(0, 9)])
def test_substring_is_sqlites_for_a_start_that_is_not_negative(
        sqlite, start, length):
    text = "abcdef"
    if length is None:
        ours = _eval("SUBSTRING", text, start)
    else:
        ours = _eval("SUBSTRING", text, start, length)
    # positions max(start, 1) .. start + length - 1, counting from 1
    last = len(text) if length is None else start + length - 1
    assert ours == text[max(start, 1) - 1:max(last, 0)]
    if start >= 0:  # SQLite counts a negative start from the end
        args = (text, start) if length is None else (text, start, length)
        marks = ", ".join("?" * len(args))
        theirs = sqlite.execute(f"SELECT substr({marks})", args).fetchone()
        assert ours == theirs[0]


def test_substring_from_zero_and_below():
    assert _eval("SUBSTRING", "abcdef", 0, 3) == "ab"
    assert _eval("SUBSTRING", "abcdef", -2, 2) == ""
    assert _eval("SUBSTRING", "abcdef", -2, 5) == "ab"


@pytest.mark.parametrize("name, args, message", [
    ("UPPER", (2.5,), "cannot evaluate UPPER(2.5)"),
    ("LOWER", (7,), "cannot evaluate LOWER(7)"),
    ("ABS", ("x",), "cannot evaluate ABS('x')"),
    ("ROUND", ("x", 2), "cannot evaluate ROUND('x', 2)"),
    ("SUBSTRING", (5, 1, 2), "cannot evaluate SUBSTRING(5, 1, 2)"),
    ("SUBSTRING", ("abc", "x"), "cannot evaluate SUBSTRING('abc', 'x')"),
    ("SUBSTRING", ("abc", 1, -1), "negative substring length -1"),
])
def test_a_value_the_function_does_not_take_raises_a_typed_error(
        name, args, message):
    with pytest.raises(ExecutionError) as raised:
        _eval(name, *args)
    assert str(raised.value) == message
    # per row, as a column's value
    row_fn = FuncCall(name, [InputRef(i) for i in range(len(args))]).compile()
    with pytest.raises(ExecutionError):
        row_fn(args, ())


def test_null_arguments_still_give_null():
    assert _eval("UPPER", None) is None
    assert _eval("SUBSTRING", "abc", None, -1) is None
