"""Every module-level function and class of ``chsurf`` has a caller in ``chsurf``.

A name counts as used when some code in ``src/chsurf`` outside its own
body refers to it: as a name, an attribute or an imported name.  A class
member (a method, a property or a field) counts as used when such code
refers to it as an attribute or a keyword argument; dunder methods are
called by Python and are not checked.  Tests and the benchmark do not
count, so a route that only they run shows up here.  The last test imports
each chsurf module the benchmark's worker imports.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "chsurf"

# (module, name): why the name may have no caller in src/chsurf.  A name
# that lands before its caller is listed here, with the item that adds it.
EXEMPT = {
    ("curve", "verified_absolute_multiplicity"): (
        "called only by bench/cases.py; ROADMAP item 9 deletes it"
    ),
    ("verify", "max_scaled_residual"): (
        "called only by bench/cases.py, whose tracer names its span; the verify "
        "residual row reads the first nonzero parameter itself"
    ),
}

# (module, class, member): why the member may have no reader in src/chsurf.
EXEMPT_MEMBERS = {
    ("poly", "GaussianRational", "im"): "read only by bench/worker.py; ROADMAP item 7",
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


def _member_references(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.keyword) and child.arg:
            yield child.arg


def _members(tree):
    """(class, name, node) of each method, property and annotated field, dunders aside."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.name, item
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id, item


def unused_members():
    """``(module, class, member)`` of every class member no other code in ``chsurf`` refers to."""
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCES.glob("*.py"))}
    everywhere = Counter(name for tree in modules.values() for name in _member_references(tree))
    unused = []
    for module, tree in modules.items():
        for cls, name, node in _members(tree):
            # A method's references to itself (recursion) do not count.
            own = sum(1 for ref in _member_references(node) if ref == name)
            if everywhere[name] == own:
                unused.append((module, cls, name))
    return sorted(unused)


def test_every_class_member_has_a_reader():
    unused = unused_members()
    assert [entry for entry in unused if entry not in EXEMPT_MEMBERS] == []
    assert sorted(EXEMPT_MEMBERS) == [entry for entry in unused if entry in EXEMPT_MEMBERS]


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
