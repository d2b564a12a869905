"""Module-level rewrite planning.

:func:`plan_module` parses a report module, runs the
:class:`~repro.analysis.rewrite.transforms.FunctionTransformer` over
every top-level report function (class-wrapped reports keep their
memo state and are left alone) and returns a :class:`ModuleRewrite`
bundling the rewritten source with the per-function applied/refused
ledger.  The rewritten module is compiled as a syntax self-check, and
diffs are rendered against the *normalised* original (``ast.unparse``
of the pristine tree) so they show only semantic changes, never
formatting noise.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.costmodel import SchemaInfo
from repro.analysis.extractor import _module_constants
from repro.analysis.rewrite.transforms import (
    Applied,
    FunctionTransformer,
    Refusal,
)


@dataclass
class FunctionRewrite:
    """The rewrite ledger of one report function."""

    func: str
    applied: list[Applied] = field(default_factory=list)
    refusals: list[Refusal] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.applied)

    def as_dict(self) -> dict:
        return {
            "func": self.func,
            "applied": [a.as_dict() for a in self.applied],
            "refusals": [r.as_dict() for r in self.refusals],
        }


@dataclass
class ModuleRewrite:
    """One module's planned rewrite: sources plus the full ledger."""

    module: str
    path: str
    original_source: str
    original_normalized: str
    rewritten_source: str
    functions: dict[str, FunctionRewrite]

    @property
    def changed(self) -> bool:
        return any(f.changed for f in self.functions.values())

    @property
    def applied(self) -> list[Applied]:
        return [a for f in self.functions.values() for a in f.applied]

    @property
    def refusals(self) -> list[Refusal]:
        return [r for f in self.functions.values() for r in f.refusals]

    def diff(self) -> str:
        """Unified diff, normalised original vs rewritten."""
        return "".join(difflib.unified_diff(
            self.original_normalized.splitlines(keepends=True),
            self.rewritten_source.splitlines(keepends=True),
            fromfile=f"a/{self.module}.py",
            tofile=f"b/{self.module}.py",
        ))

    def as_dict(self) -> dict:
        return {
            "module": self.module,
            "path": self.path,
            "changed": self.changed,
            "functions": [
                f.as_dict() for f in self.functions.values()
                if f.applied or f.refusals
            ],
        }


def plan_module(path: str | Path, schema: SchemaInfo) -> ModuleRewrite:
    """Plan every safe rewrite for the module at ``path``."""
    path = Path(path)
    source = path.read_text()
    module = path.stem
    tree = ast.parse(source, filename=str(path))
    original_normalized = ast.unparse(ast.parse(source)) + "\n"
    env = _module_constants(tree)

    functions: dict[str, FunctionRewrite] = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        transformer = FunctionTransformer(node, env, schema)
        transformer.run()
        if transformer.applied or transformer.refusals:
            functions[node.name] = FunctionRewrite(
                node.name, transformer.applied, transformer.refusals)

    rewritten_source = ast.unparse(tree) + "\n"
    compile(rewritten_source, str(path), "exec")  # syntax self-check
    return ModuleRewrite(
        module=module,
        path=str(path),
        original_source=source,
        original_normalized=original_normalized,
        rewritten_source=rewritten_source,
        functions=functions,
    )
