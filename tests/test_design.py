"""Design checks over wsnsim's source, read with `ast` alone."""

import ast
from collections import Counter
from pathlib import Path

import wsnsim

SOURCE = Path(wsnsim.__file__).parent

# top-level names that library code need not call, with the reason
UNCALLED = {
    "solve_exhaustive": "the oracle that tests and the benchmark check solve_exact against",
}


def _top_level_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _uses(tree):
    """How often each name is read or written in `tree`, as a bare name or an
    attribute; imports are not uses."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_has_a_library_caller():
    # __init__ only re-exports, so its imports are no use
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    defined, uncalled = set(), []
    for module, tree in modules.items():
        for definition in _top_level_definitions(tree):
            # a definition's own body (recursion, a class's methods) is no caller
            name = definition.name
            defined.add(name)
            if uses[name] == _uses(definition)[name] and name not in UNCALLED:
                uncalled.append(f"{module}.{name}")
    assert uncalled == []
    assert set(UNCALLED) <= defined
