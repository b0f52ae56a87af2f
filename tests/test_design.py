"""Design checks over wsnsim's source, read with `ast` alone, and over what
importing its CLI loads."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import wsnsim

SOURCE = Path(wsnsim.__file__).parent

# top-level names that library code need not call, with the reason
UNCALLED = {
    "solve_exhaustive": "the oracle that tests and the benchmark check solve_exact against",
}
# methods and properties that library code need not use, with the reason
UNUSED_MEMBERS = {
    "Network.nodes": "the record view that only perfbench reads, and only a benchmark change may edit perfbench",
    "Schedule.objective": "only perfbench reads it, and only a benchmark change may edit perfbench",
}


def _top_level_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _uses(tree):
    """How often each name is read or written in `tree`, as a bare name or an
    attribute; imports are not uses."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _library_modules():
    # __init__ only re-exports, so its imports are no use
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}


def test_every_top_level_definition_has_a_library_caller():
    modules = _library_modules()
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


def _member_uses(tree):
    """How often each name is called as a method (`x.name(...)`), and how often
    it is read as an attribute (`x.name`, which is how a property is used)."""
    called = Counter(node.func.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute))
    read = Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return called, read


def _is_property(method):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in method.decorator_list)


def test_every_method_and_property_has_a_library_user():
    # a method counts as used when library code calls it by that name, and a
    # property when library code reads it; a field read (`clusters.distances`)
    # does not make a method of the same name used
    modules = _library_modules()
    uses = [_member_uses(tree) for tree in modules.values()]
    called = sum((c for c, _ in uses), Counter())
    read = sum((r for _, r in uses), Counter())
    unused = []
    for tree in modules.values():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                qualified = f"{cls.name}.{name}"
                # the member's own body (recursion) is no use
                own_called, own_read = _member_uses(method)
                if _is_property(method):
                    used = read[name] > own_read[name]
                else:
                    used = called[name] > own_called[name]
                if not used:
                    unused.append(qualified)
    # an allowance for a member that is gone, or now used, fails too
    assert sorted(unused) == sorted(UNUSED_MEMBERS)


def _module_imports(tree):
    """The names a module's top-level `import` and `from ... import` bind,
    `from __future__` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_no_unused_module_imports():
    # an import is used when it is read as a bare name, which also covers the
    # base of an attribute (`np.where`)
    unused = []
    for module, tree in _library_modules().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module}.{name}" for name in _module_imports(tree) if name not in read]
    assert unused == []


def test_one_draw_path():
    # every PRNG value wsnsim uses comes from `network.uniform_draws`, so a
    # per-value `rng.random()` loop cannot come back beside it
    readers = set()
    for module, tree in _library_modules().items():
        for node in tree.body:
            scope = getattr(node, "name", None)
            readers |= {f"{module}.{scope}" for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute) and sub.attr == "random"}
    assert readers == {"network.uniform_draws"}


def test_cli_import_loads_no_heavy_module():
    # numpy.random or any of scipy would add megabytes to every run's peak
    # resident memory, which the benchmark bounds at 10%
    code = ("import sys, wsnsim.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SOURCE.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
