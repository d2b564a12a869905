"""Nothing in the engine or the report package that no entry point can
reach by construction (static: ``ast`` over ``src/``, nothing runs).

An operator the planner never builds, an index class the catalog never
makes and a report module nothing imports are maintained, documented
and optimised like the rest and exercised by no workload — ``MergeJoin``
and ``HashIndex`` were ported to new protocols twice before they were
deleted.  A class needed only by tests is declared here, by name.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: the fake source unit tests feed operators from (simplicity-review:
#: "lets a test substitute a fake")
TEST_SOURCES = {"RowsSource"}


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
