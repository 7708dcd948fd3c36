"""The library's public surface: every export has a user, no check is an assert.

A name exported from ``hoffman`` must be needed by the library itself, that
is referenced by a module of ``src/hoffman/`` other than ``__init__`` outside
its own definition, or be kept on purpose for a reason given in
:data:`KEEP`.  An ``assert`` cannot carry a check, since ``python -O`` strips
it.
"""

import ast
import pathlib
from collections import Counter

import hoffman

SRC = pathlib.Path(hoffman.__file__).parent

# exports no other library code needs, each with the reason it stays
KEEP = {
    "complete_graph": "graph constructor",
    "cycle_graph": "graph constructor",
    "hoffman_at_least": "README library example",
    "lambda_min_hoffman": "acceptance criteria 7a and 7e",
    "certify_lambda_min_below": "LDL^T oracle of the tests; perfbench boundary",
}


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _exports(init: ast.Module) -> list[str]:
    return [alias.asname or alias.name
            for node in init.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _identifiers(node: ast.AST) -> Counter:
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def _uses(tree: ast.Module) -> Counter:
    """Identifier counts of a module, minus those inside each name's own definition."""
    uses = _identifiers(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            uses[node.name] -= _identifiers(node)[node.name]
    return uses


def _unused_exports(modules) -> list[str]:
    uses = sum((_uses(tree) for name, tree in modules.items() if name != "__init__.py"),
               Counter())
    return [name for name in _exports(modules["__init__.py"]) if uses[name] <= 0]


def test_every_export_is_used_or_kept():
    unused = _unused_exports(_modules())
    assert sorted(set(unused) - set(KEEP)) == []


def test_keep_list_names_only_unused_exports():
    # a kept name that gained a library caller no longer needs its entry
    assert sorted(set(KEEP) - set(_unused_exports(_modules()))) == []


def test_no_assert_in_library():
    found = [f"{name}:{node.lineno}" for name, tree in _modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
