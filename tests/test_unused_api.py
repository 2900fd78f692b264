"""Every module-level function and class of ``chsurf`` has a caller in ``chsurf``.

A name counts as used when some code in ``src/chsurf`` outside its own
body refers to it: as a name, an attribute or an imported name.  Tests and
the benchmark do not count, so a route that only they run shows up here.
The last test imports each chsurf module the benchmark's worker imports.
"""

import ast
import importlib
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "chsurf"

# (module, name): why the name may have no caller in src/chsurf.  A name
# that lands before its caller is listed here, with the item that adds it.
EXEMPT = {
    ("curve", "verified_absolute_multiplicity"): (
        "called only by bench/cases.py; ROADMAP item 9 deletes it"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]


def unused_definitions():
    """``(module, name)`` of every module-level definition no other code in ``chsurf`` refers to."""
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCES.glob("*.py"))}
    defined = [
        (module, node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
    ]
    referenced = set()
    for tree in modules.values():
        for node in tree.body:
            # A definition's references to its own name (recursion) do not count.
            own = node.name if isinstance(node, DEFINITIONS) else None
            referenced |= {name for name in _referenced_names(node) if name != own}
    return sorted((module, name) for module, name in defined if name not in referenced)


def test_every_module_level_definition_has_a_caller():
    unused = unused_definitions()
    assert [entry for entry in unused if entry not in EXEMPT] == []
    # An exemption whose name got a caller, or is gone, is dropped.
    assert sorted(EXEMPT) == [entry for entry in unused if entry in EXEMPT]


def test_the_benchmark_imports_resolve():
    # A module kept only for the benchmark has no other test, so deleting it
    # early would break only the benchmark run.
    worker = SOURCES.parents[1] / "bench" / "worker.py"
    imported = sorted(
        {
            alias.name
            for node in ast.walk(ast.parse(worker.read_text(), str(worker)))
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name.split(".")[0] == "chsurf"
        }
    )
    assert "chsurf" in imported
    for name in imported:
        importlib.import_module(name)
