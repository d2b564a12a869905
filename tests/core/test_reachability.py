"""Nothing in ``src/`` that no entry point can reach by construction
(static: ``ast`` over the sources, nothing runs).

An operator the planner never builds, an index class the catalog never
makes and a report module nothing imports are maintained, documented
and optimised like the rest and exercised by no workload — ``MergeJoin``
and ``HashIndex`` were ported to new protocols twice before they were
deleted.  The same holds one level down: a function only tests call,
and an option only tests set, is a second behaviour kept for no user
(DESIGN.md §22).  What tests need on purpose is declared here, by name,
with its reason; a declaration that names nothing, or names what an
entry point now reaches, fails too.
"""

import ast
import pathlib
import re
import textwrap

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parents[1]

#: the fake source unit tests feed operators from (simplicity-review:
#: "lets a test substitute a fake")
TEST_SOURCES = {"RowsSource"}

#: functions and methods only tests call, each with why it stays
TEST_HOOKS = {
    "Database.crash": "fault hook: lose what is not yet durable",
    "DurableStore.corrupt_mid_frame": "fault hook: damage the middle of "
                                      "the log",
    "DurableStore.tear_tail_frame": "fault hook: an interrupted write",
    "pools.decode_row": "reference the compiled pool codecs are "
                        "compared with",
    "BTreeIndex.scan_all": "reference the index walks are compared with",
    "answers.assert_rows_match": "compares engine rows with sqlite3's",
    "calibration.perturbed": "scales the time constants for the "
                             "calibration-robustness tests",
}

#: methods a library calls, not our code
LIBRARY_CALLS = {
    "ReproParser.parse_known_args": "argparse's parse_args calls it",
}

#: defaulted parameters only tests or an example set, each with why it
#: stays
TEST_KNOBS = {
    "WorkloadMonitor(stat_capacity)": "ring capacity: a small ring "
                                      "shows the wrap",
    "WorkloadMonitor(statement_capacity)": "ring capacity: a small ring "
                                           "shows the drop",
    "chaos.run_chaos(update_pairs)": "tests run one UF pair a cell, to "
                                     "stay fast",
    "chaos.run_kill_appserver(update_pairs)": "tests run one UF pair a "
                                              "cell, to stay fast",
    "crashfuzz.run_crash_fuzz(corrupt_tail_trials)": "tests run one "
                                                     "corrupt-tail trial, "
                                                     "to stay fast",
    "dbgen.generate_refresh_orders(fraction)": "examples/sd_order_entry.py "
                                               "sizes its batch with it",
}

#: files whose string constants are generated kernel source: a name
#: called there is a reference
KERNEL_SOURCES = ("engine/expr.py", "engine/exec/joins.py")
_CALL_IN_STRING = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
#: ``globals()[f"q{n}"]``: each report family dispatches its queries
_REPORT_QUERY = re.compile(r"q\d+")


def _trees(*parts: str) -> dict[pathlib.Path, ast.Module]:
    root = SRC.joinpath(*parts)
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _classes(trees) -> dict[str, ast.ClassDef]:
    return {node.name: node for tree in trees.values()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _constructed(trees) -> set[str]:
    """Every name that is called (``Name(...)`` or ``x.Name(...)``)."""
    called = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
    return called


def _operator_classes(classes: dict[str, ast.ClassDef]) -> set[str]:
    """``Operator`` and everything that inherits from it, transitively."""
    operators = {"Operator"}
    grew = True
    while grew:
        grew = False
        for name, node in classes.items():
            bases = {base.id for base in node.bases
                     if isinstance(base, ast.Name)}
            if name not in operators and bases & operators:
                operators.add(name)
                grew = True
    return operators - {"Operator"}


def test_every_operator_is_built_by_the_planner_or_an_operator():
    exec_trees = _trees("engine", "exec")
    operators = _operator_classes(_classes(exec_trees))
    assert {"SeqScan", "HashJoin", "PartialAggregate"} <= operators
    built = _constructed({**exec_trees, **_trees("engine", "plan"),
                          **_trees("engine", "parallel")})
    assert operators - built == TEST_SOURCES


def test_every_index_class_is_made_by_the_catalog():
    index_classes = {
        name for name, node in _classes(_trees("engine", "index.py")).items()
        if any(isinstance(item, ast.FunctionDef) and item.name == "insert"
               for item in node.body)}
    assert "BTreeIndex" in index_classes
    assert index_classes <= _constructed(_trees("engine", "catalog.py"))


def test_every_report_module_is_imported_from_src():
    imported = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}"
                                for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
    modules = {f"repro.reports.{path.stem}"
               for path in (SRC / "reports").glob("*.py")
               if path.stem != "__init__"}
    assert len(modules) >= 6
    assert modules - imported == set()


# -- functions and options -------------------------------------------


def _parsed(*dirs: str) -> dict[pathlib.Path, ast.Module]:
    """Every module under ``dirs`` (repo-relative), each node knowing
    its parent."""
    return {path: _parse(path.read_text())
            for name in dirs for path in sorted((ROOT / name).rglob("*.py"))}


def _parse(text: str) -> ast.Module:
    tree = ast.parse(text)
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]
    return tree


def _functions(trees):
    """``(path, qualified name, def)`` for every function under src:
    ``Class.method``, ``module.function``, ``Class.method.inner``."""
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names, up = [node.name], node.parent
            while not isinstance(up, ast.Module):
                if hasattr(up, "name"):
                    names.append(up.name)
                up = up.parent
            if not isinstance(_outermost(node), ast.ClassDef):
                names.append(path.stem)
            yield path, ".".join(reversed(names)), node


def _outermost(node):
    while not isinstance(node.parent, ast.Module):
        node = node.parent
    return node


def _local(node) -> bool:
    """Whether ``node`` is defined inside a function."""
    up = node.parent
    while not isinstance(up, ast.Module):
        if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return True
        up = up.parent
    return False


def _inside(node, outer) -> bool:
    while node is not None:
        if node is outer:
            return True
        node = getattr(node, "parent", None)
    return False


def _references(trees) -> dict[str, list[ast.AST]]:
    """Every use of a name: ``x``, ``y.x``, ``import x``, and ``x(``
    inside a kernel source string."""
    kernels = {SRC / name for name in KERNEL_SOURCES}
    refs: dict[str, list[ast.AST]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                refs.setdefault(node.name.rpartition(".")[2],
                                []).append(node)
            elif (path in kernels and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                for match in _CALL_IN_STRING.finditer(node.value):
                    refs.setdefault(match.group(1), []).append(node)
    return refs


def _unreached(src, entry) -> set[str]:
    refs = _references(entry)
    unreached = set()
    for path, qualname, node in _functions(src):
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue  # the language calls it
        if path.parent.name == "reports" and _REPORT_QUERY.fullmatch(name):
            continue
        if not any(not _inside(ref, node) for ref in refs.get(name, ())):
            unreached.add(qualname)
    return unreached


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Calls by the name called.  ``partial(f, ...)`` is a call of
    ``f``, ``cls(...)`` of the enclosing class and
    ``super().__init__(...)`` of the enclosing class's bases."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "partial" \
                    and node.args:
                func = node.args[0]
                node = ast.Call(func=func, args=node.args[1:],
                                keywords=node.keywords)
            if isinstance(func, ast.Name) and func.id == "cls":
                calls.setdefault(_enclosing_class(func).name,
                                 []).append(node)
            elif isinstance(func, ast.Name):
                calls.setdefault(func.id, []).append(node)
            elif isinstance(func, ast.Attribute):
                calls.setdefault(func.attr, []).append(node)
                if func.attr == "__init__" and _is_super(func.value):
                    for base in _enclosing_class(func).bases:
                        if isinstance(base, ast.Name):
                            calls.setdefault(base.id, []).append(node)
    return calls


def _is_super(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def _enclosing_class(node) -> ast.ClassDef:
    while not isinstance(node, ast.ClassDef):
        node = node.parent
    return node


def _callers_names(node, classes) -> list[str]:
    """The names a call to ``node`` is made by: a function's own name;
    for ``__init__`` its class's and every subclass's that inherits it."""
    if node.name != "__init__":
        return [node.name]
    owner = node.parent
    names = [owner.name]
    for name, cls in classes.items():
        inherits, seen = cls, set()
        while inherits is not None and inherits.name not in seen:
            seen.add(inherits.name)
            if inherits is owner:
                names.append(name)
                break
            if any(isinstance(item, ast.FunctionDef)
                   and item.name == "__init__" for item in inherits.body):
                break
            bases = [b.id for b in inherits.bases if isinstance(b, ast.Name)]
            inherits = classes.get(bases[0]) if bases else None
    return names


def _unset(src, callers, hooks) -> set[str]:
    calls = _calls(callers)
    classes = _classes(src)
    unset = set()
    for _path, qualname, node in _functions(src):
        if qualname in hooks or _local(node):
            # a local function's defaults bind a loop variable early
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        method = isinstance(node.parent, ast.ClassDef) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted = (defaulted if args.defaults else []) + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
        sites = [call for name in _callers_names(node, classes)
                 for call in calls.get(name, ())]
        for arg in defaulted:
            index = (positional.index(arg) - method
                     if arg in positional else None)
            if not any(_sets(call, arg.arg, index) for call in sites):
                owner = (node.parent.name if node.name == "__init__"
                         else qualname)
                unset.add(f"{owner}({arg.arg})")
    return unset


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > index


def _none(names: set[str], why: str) -> None:
    assert not names, f"{why}: {', '.join(sorted(names))}"


def test_every_function_is_reached_from_an_entry_point():
    src = _parsed("src/repro")
    entry = {**src, **_parsed("perf", "benchmarks", "examples")}
    unreached = _unreached(src, entry)
    declared = set(TEST_HOOKS) | set(LIBRARY_CALLS)
    _none(unreached - declared, "only tests call these")
    defined = {qualname for _p, qualname, _n in _functions(src)}
    _none(declared - defined, "declared but not defined")
    _none(declared - unreached, "declared but an entry point reaches it")


def test_every_option_is_set_by_a_caller():
    src = _parsed("src/repro")
    callers = {**src, **_parsed("perf", "benchmarks")}
    unset = _unset(src, callers, set(TEST_HOOKS))
    _none(unset - set(TEST_KNOBS), "no caller in src/, perf/ or "
                                   "benchmarks/ sets these")
    _none(set(TEST_KNOBS) - unset,
          "declared but a caller sets it, or it is not defined")


# -- the census itself, on sources written here ----------------------
# Each rule must see what it is meant to see; on the real tree an
# empty result would also be what a census that finds nothing gives.


def _modules(**sources: str) -> dict[pathlib.Path, ast.Module]:
    """Parsed in-memory modules, keyed ``engine/expr`` ->
    ``src/repro/engine/expr.py``."""
    return {SRC / f"{name}.py": _parse(textwrap.dedent(text))
            for name, text in sources.items()}


def test_census_reports_a_function_only_its_own_body_names():
    trees = _modules(mod="""
        def walk(n):
            return walk(n - 1) if n else 0

        def used():
            return 1

        VALUE = used()
        """)
    assert _unreached(trees, trees) == {"mod.walk"}


def test_census_names_a_method_by_its_class():
    trees = _modules(mod="""
        class Store:
            def put(self, row):
                pass

            def __len__(self):
                return 0
        """)
    assert _unreached(trees, trees) == {"Store.put"}


def test_census_counts_a_use_from_an_entry_point():
    src = _modules(mod="""
        def helper():
            return 1
        """)
    entry = {**src, ROOT / "perf" / "run.py": _parse(
        "from repro.mod import helper\n")}
    assert _unreached(src, src) == {"mod.helper"}
    assert _unreached(src, entry) == set()


@pytest.mark.parametrize("kernel", [True, False])
def test_census_counts_a_call_in_kernel_source_only(kernel):
    name = KERNEL_SOURCES[0][:-3] if kernel else "engine/other"
    trees = _modules(**{name: """
        def _divide(a, b):
            return a / b

        SOURCE = "out = _divide(left, right)"
        """})
    stem = pathlib.Path(name).name
    assert _unreached(trees, trees) == (set() if kernel
                                        else {f"{stem}._divide"})


def test_census_counts_the_report_query_dispatch():
    trees = _modules(**{"reports/fake": """
        def q7():
            return 7

        def helper():
            return 0
        """})
    assert _unreached(trees, trees) == {"fake.helper"}


def test_option_census_reports_an_option_no_call_sets():
    trees = _modules(mod="""
        def scan(table, degree=1, *, verbose=False):
            pass

        scan("t")
        """)
    assert _unset(trees, trees, set()) == {"mod.scan(degree)",
                                          "mod.scan(verbose)"}


def test_option_census_skips_hooks_and_local_functions():
    trees = _modules(mod="""
        def scan(table, degree=1):
            def each(row, key=table):
                return row, key
            return each

        scan("t")
        """)
    assert _unset(trees, trees, {"mod.scan"}) == set()


def test_option_census_counts_self_apart_from_the_arguments():
    trees = _modules(mod="""
        class Store:
            def put(self, row, bulk=False):
                pass

        Store().put((1,))
        """)
    assert _unset(trees, trees, set()) == {"Store.put(bulk)"}


@pytest.mark.parametrize("source", [
    pytest.param("""
        def scan(table, degree=1):
            pass

        scan("t", degree=4)
        """, id="keyword"),
    pytest.param("""
        def scan(table, degree=1):
            pass

        scan("t", 4)
        """, id="position"),
    pytest.param("""
        def scan(table, degree=1):
            pass

        scan(**{"table": "t", "degree": 4})
        """, id="double-star"),
    pytest.param("""
        def scan(table, degree=1):
            pass

        scan(*("t", 4))
        """, id="star"),
    pytest.param("""
        from functools import partial

        def scan(table, degree=1):
            pass

        run = partial(scan, "t", 4)
        """, id="partial"),
    pytest.param("""
        def scan(*, degree=1):
            pass

        scan(degree=4)
        """, id="keyword-only"),
    pytest.param("""
        class Store:
            def put(self, row, bulk=False):
                pass

        Store().put((1,), True)
        """, id="method-position"),
    pytest.param("""
        class Store:
            def __init__(self, pages=1):
                pass

            @classmethod
            def make(cls):
                return cls(pages=4)
        """, id="cls"),
    pytest.param("""
        class Base:
            def __init__(self, pages=1):
                pass

        class Child(Base):
            def __init__(self):
                super().__init__(4)
        """, id="super-init"),
    pytest.param("""
        class Base:
            def __init__(self, pages=1):
                pass

        class Child(Base):
            pass

        Child(pages=4)
        """, id="inherited-init"),
])
def test_option_census_counts_a_call_that_sets_it(source):
    trees = _modules(mod=source)
    assert _unset(trees, trees, set()) == set()
