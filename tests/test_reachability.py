"""Every public module-level def and class in src/chowcalc, and every public
method of a class there, is reached from outside the tests, so library code
that only tests use cannot grow back unnoticed; a reference that only tests
need belongs in the test.

A name is reached when it is used as an identifier (a Name, an Attribute or
an import alias) in src/chowcalc or scripts/, outside its own definition, or
when it is a word inside a string in benchmarks/, whose tracer hooks
library functions by name.

Every file is parsed with the grammar of Python 3.10, the floor of
requires-python, so syntax that only a newer interpreter accepts fails here
even where 3.10 itself is not installed.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(directory):
    """(module name, syntax tree) for each Python file of `directory`,
    parsed with the Python 3.10 grammar."""
    return [
        (p.stem, ast.parse(p.read_text(), str(p), feature_version=(3, 10)))
        for p in sorted(directory.glob("*.py"))
    ]


def _identifiers(modules):
    """Identifiers used in `modules`, each counted only where no enclosing
    definition binds the same name."""
    names = set()
    stack = [(tree, frozenset()) for _, tree in modules]
    while stack:
        node, own = stack.pop()
        if isinstance(node, DEFINITIONS):
            own = own | {node.name}
        if isinstance(node, ast.Name):
            used = {node.id}
        elif isinstance(node, ast.Attribute):
            used = {node.attr}
        elif isinstance(node, ast.alias):
            used = {node.name.rpartition(".")[2], node.asname}
        else:
            used = set()
        names |= used - own - {None}
        stack += [(child, own) for child in ast.iter_child_nodes(node)]
    return names


def _definitions(modules):
    """(dotted name, name) of each module-level def and class, and of each
    method of a module-level class."""
    for module, tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, DEFINITIONS):
                yield f"{module}.{stmt.name}", stmt.name
            if isinstance(stmt, ast.ClassDef):
                for method in stmt.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{stmt.name}.{method.name}", method.name


def _string_words(modules):
    return {
        word
        for _, tree in modules
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for word in re.findall(r"\w+", node.value)
    }


def test_every_public_definition_is_reached_outside_the_tests():
    library = _modules(ROOT / "src" / "chowcalc")
    reached = _identifiers(library + _modules(ROOT / "scripts"))
    reached |= _string_words(_modules(ROOT / "benchmarks"))
    unreached = [
        dotted
        for dotted, name in _definitions(library)
        if not name.startswith("_") and name not in reached
    ]
    assert unreached == []


def test_every_python_file_parses_with_the_3_10_grammar():
    for directory in ("src/chowcalc", "scripts", "benchmarks", "tests"):
        assert _modules(ROOT / directory)


def test_no_library_module_imports_dataclasses():
    """Records come from ``chowcalc._record``; importing ``dataclasses``
    (and with it ``inspect``) would put its cost back on every cold start."""
    imports = [
        (module, alias.name if isinstance(node, ast.Import) else node.module)
        for module, tree in _modules(ROOT / "src" / "chowcalc")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imports and [m for m in imports if m[1] == "dataclasses"] == []
