"""The library's public surface: every export and method has a user, no export
is a second name for another, no check is an assert, there is one floating
path, and every function the benchmark traces exists.

A name exported from ``hoffman`` must be needed by the library itself, that
is referenced by a module of ``src/hoffman/`` other than ``__init__`` outside
its own definition, or be kept on purpose for a reason given in
:data:`KEEP`.  The same holds for the public methods of library classes, by
name, with :data:`KEEP_METHODS`.  An export whose body, after the docstring,
is only ``return f(<its own parameters, in order>)`` with ``f`` another
export is a second name for ``f``.  An ``assert`` cannot carry a check, since
``python -O`` strips it.  ``np.linalg`` is reached only from ``exact.py``, so
no second floating path decides or reports anything.  The exact PSD kernel
``psd_witness`` is reached only from ``exact.py`` and ``forbidden.py``, so
every graph decision re-checks its refutation on the graph, and
``forbidden.py`` calls it once, with an estimate, so every block form is
decided the same way.  A failed witness re-check is raised in one place,
which every refutation on a graph reaches, and that re-check counts on the
graph through the routine ``graph_quadratic_form`` shares.  The dominance
certificate proposes only from its caller's eigenvalue estimate, so it
never names an eigensolver.  Each
``Boundary(module, function)`` of ``perfbench/spans.py`` names an attribute
of that module, since the traced benchmark run patches it by name.
"""

import ast
import importlib
import pathlib
from collections import Counter

import hoffman

SRC = pathlib.Path(hoffman.__file__).parent
SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# exports no other library code needs, each with the reason it stays
KEEP = {
    "complete_graph": "graph constructor",
    "cycle_graph": "graph constructor",
    "graph_quadratic_form": "re-checks a returned witness on the graph, independently of "
                            "the decision; the library re-checks its own witnesses by class",
}

# public methods no other library code calls, each with the reason it stays
KEEP_METHODS = {
    "_Parser.error": "argparse override, called by argparse itself",
    "BetaBounds.beta_bound": "the degree argument's bound on beta, read by the research notes",
    "Graph.induced": "acceptance criterion 7(b) builds its oracle for the largest clique "
                     "through x on it",
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


def _pass_throughs(modules) -> list[str]:
    """Exported functions that only return another export called on their own parameters."""
    exports = set(_exports(modules["__init__.py"]))
    found = []
    for tree in modules.values():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name not in exports:
                continue
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in exports and call.func.id != node.name):
                continue
            passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
            passed += [k.value.id if isinstance(k.value, ast.Name) and k.arg == k.value.id
                       else None for k in call.keywords]
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if passed == [a.arg for a in params]:
                found.append(f"{node.name} -> {call.func.id}")
    return found


def test_no_export_is_a_pass_through():
    assert _pass_throughs(_modules()) == []


def test_pass_through_guard_sees_an_alias():
    # f and h are second names of g; k reorders, m post-processes, n is not exported
    tree = ast.parse(
        "def f(a, b):\n    return g(a, b)\n"
        "def h(a, b):\n    'doc'\n    return g(a, b=b)\n"
        "def k(a, b):\n    return g(b, a)\n"
        "def m(a):\n    return g(a)[0]\n"
        "def n(a):\n    return g(a)\n"
    )
    init = ast.parse("from .x import f, g, h, k, m")
    assert _pass_throughs({"__init__.py": init, "x.py": tree}) == ["f -> g", "h -> g"]


def test_no_assert_in_library():
    found = [f"{name}:{node.lineno}" for name, tree in _modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _unused_methods(modules) -> list[str]:
    """Public methods whose name no library code loads outside the method itself.

    Methods are matched by name alone, so a method sharing its name with a
    used one of another class is not flagged.
    """
    uses = sum((_identifiers(tree) for tree in modules.values()), Counter())
    return [f"{cls.name}.{node.name}"
            for tree in modules.values()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and uses[node.name] - _identifiers(node)[node.name] <= 0]


def test_every_public_method_is_used_or_kept():
    assert sorted(set(_unused_methods(_modules())) - set(KEEP_METHODS)) == []


def test_method_keep_list_names_only_unused_methods():
    assert sorted(set(KEEP_METHODS) - set(_unused_methods(_modules()))) == []


def _mentions_linalg(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "linalg"
    if isinstance(node, ast.ImportFrom):
        return ("linalg" in (node.module or "").split(".")
                or any(alias.name == "linalg" for alias in node.names))
    if isinstance(node, ast.Import):
        return any("linalg" in alias.name.split(".") for alias in node.names)
    return False


def test_np_linalg_only_in_exact():
    found = sorted({name for name, tree in _modules().items()
                    for node in ast.walk(tree) if _mentions_linalg(node)})
    assert found == ["exact.py"]


def _references(tree: ast.Module, name: str) -> bool:
    """Whether a module defines ``name``, or loads, imports or reaches it as an attribute."""
    return _identifiers(tree)[name] > 0 or any(
        isinstance(node, ast.FunctionDef) and node.name == name for node in ast.walk(tree))


def test_psd_witness_only_in_exact_and_forbidden():
    # graph decisions reach the kernel through forbidden.certify_lambda_min_below,
    # which re-checks each refutation on the graph; __init__ only re-exports it
    found = sorted(name for name, tree in _modules().items()
                   if name != "__init__.py" and _references(tree, "psd_witness"))
    assert found == ["exact.py", "forbidden.py"]


def test_dominance_certificate_runs_no_eigensolve():
    # every caller with an estimate already ran its one eigensolve; a solve
    # inside the certificate would run a second one behind each decision
    tree = _modules()["exact.py"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = [f"{name}: {solver}"
             for name in ("_dominance_residual", "_dominance_certificate")
             for solver in ("eigenvalues_float", "eigvalsh")
             if _identifiers(functions[name])[solver]]
    assert found == []


def test_one_block_form_decision_in_forbidden():
    # every block form, twin split or stated partition, is decided by
    # _Quotient.witness with the estimate from its own quotient's eigensolve;
    # a second call would be a second pipeline, and one without an estimate
    # would skip the certificate
    calls = [node for node in ast.walk(_modules()["forbidden.py"])
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "psd_witness"]
    assert [len(call.args) + len(call.keywords) for call in calls] == [2]


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Module functions by name and methods by ``Class.method``."""
    found = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found.update({f"{cls.name}.{node.name}": node for node in cls.body
                          if isinstance(node, ast.FunctionDef)})
    return found


def _reachable(functions: dict[str, ast.FunctionDef], start: str) -> set[str]:
    """Functions of one module that ``start`` calls, directly or not; a call
    ``obj.m(...)`` is taken to reach every method named ``m``."""
    seen, todo = {start}, [start]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for key in functions:
                if name in (key, key.rpartition(".")[2]) and key not in seen:
                    seen.add(key)
                    todo.append(key)
    return seen


def test_one_witness_recheck_in_forbidden():
    # every refutation on a graph, lifted from a block form or a twin gap
    # e_u - e_v, meets the one raise of a failed re-check, and that re-check
    # and graph_quadratic_form count on the graph through one routine that
    # never reads the quotient
    functions = _functions(_modules()["forbidden.py"])
    raisers = sorted(
        name for name, fn in functions.items()
        if any(isinstance(node, ast.Raise) and any(
            isinstance(c, ast.Constant) and "witness failed re-verification" in str(c.value)
            for c in ast.walk(node)) for node in ast.walk(fn)))
    assert raisers == ["_rechecked"]
    for start in ("_Quotient.witness", "certify_lambda_min_below"):
        assert "_rechecked" in _reachable(functions, start), start
    for start in ("_rechecked", "graph_quadratic_form"):
        assert "_form_by_class" in _reachable(functions, start), start
    assert not {"quotient", "Q"} & set(_identifiers(functions["_form_by_class"]))


def _trace_boundaries() -> list[tuple[str, str]]:
    """Every ``Boundary(module, function, ...)`` call in the benchmark's span table."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    return [(node.args[0].value, node.args[1].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Boundary"
            and all(isinstance(a, ast.Constant) for a in node.args[:2])]


def test_benchmark_trace_boundaries_resolve():
    # the traced benchmark run looks each boundary up with getattr, so
    # deleting or renaming one of these functions breaks it
    boundaries = _trace_boundaries()
    assert len(boundaries) > 20
    missing = [f"{module}.{function}" for module, function in boundaries
               if not hasattr(importlib.import_module(module), function)]
    assert missing == []
