"""Every module uses what it imports, and the package calls its helpers.

Each `.py` file under `src/qscreen`, `scripts` and `tests` is read with
`ast`; a name bound by an import and never referenced elsewhere in the file
fails the test.  Package `__init__.py` files re-export by importing, and
`from __future__` imports switch on language features, so both are exempt.
A module-level `_`-prefixed function in `src/qscreen` that nothing in
`src/` names outside its own `def` is dead code and fails too; a dunder
such as the package's `__getattr__` is called by the interpreter, not by
name, so it is not private.  A public function or method of `src/qscreen`
that nothing in `src/` or `scripts/` names is called by tests alone; those
names are pinned to the references the tests check the package against.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for d in ("src/qscreen", "scripts", "tests")
                 for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SCANNED,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names(node: ast.AST) -> list[str]:
    """Every name that node reads, as a name, an attribute or an import."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
    return out


def dead_private_functions(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    everywhere = [name for tree in trees for name in _names(tree)]
    return sorted(node.name for tree in trees for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_")
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))
                  and everywhere.count(node.name) == _names(node).count(node.name))


def test_scan_sees_a_dead_private_function():
    assert dead_private_functions(["def _a():\n    return _a()\n",
                                   "def _b(): pass\n"]) == ["_a", "_b"]
    assert dead_private_functions(["def _a(): pass\n",
                                   "from m import _a\n_a()\n"]) == []
    assert dead_private_functions(["def _a(): pass\nx = m._a\n"]) == []
    assert dead_private_functions(["def __getattr__(name): pass\n"
                                   "def __dir__(): pass\n"
                                   "def _a(): pass\n"]) == ["_a"]


def test_no_dead_private_functions():
    sources = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    assert dead_private_functions(sources) == []


def _public_functions(tree: ast.Module) -> list[ast.AST]:
    """The module's public functions and the public methods of its
    classes."""
    out = []
    for node in tree.body:
        for sub in node.body if isinstance(node, ast.ClassDef) else [node]:
            if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not sub.name.startswith("_")):
                out.append(sub)
    return out


def unnamed_public_functions(sources: list[str],
                             users: list[str]) -> list[str]:
    """The public functions and methods of `sources` that nothing in
    `sources` or `users` names outside its own def."""
    trees = [ast.parse(source) for source in sources]
    everywhere = [name for tree in trees + [ast.parse(u) for u in users]
                  for name in _names(tree)]
    return sorted({node.name for tree in trees
                   for node in _public_functions(tree)
                   if everywhere.count(node.name)
                   == _names(node).count(node.name)})


def test_scan_sees_an_unnamed_public_function():
    assert unnamed_public_functions(
        ["def a():\n    return a()\n"
         "class C:\n    def m(self): pass\n    def _p(self): pass\n"], []) \
        == ["a", "m"]
    assert unnamed_public_functions(["def a(): pass\n"],
                                     ["from m import a\n"]) == []
    assert unnamed_public_functions(["class C:\n    def m(self): pass\n"
                                     "C().m()\n"], []) == []
    assert unnamed_public_functions(["def __dir__(): pass\n"
                                     "def _a(): pass\n"], []) == []


def test_only_the_test_references_are_unnamed_in_the_package():
    """The names that only tests call: `act_word_pair`, the reference for
    `act_tensor_element`, `bracket_denominator`, the one for the removal
    factors, `q_number`, `datum_to_config` and `RootDatum.cartan`.  A name
    that joins them is a duplicate builder or dead code."""
    sources = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    scripts = [p.read_text() for p in sorted((ROOT / "scripts").rglob("*.py"))]
    assert unnamed_public_functions(sources, scripts) == [
        "act_word_pair", "bracket_denominator", "cartan", "datum_to_config",
        "q_number"]
