"""No module of the library, of ``tools/`` or of the tests imports a name
it never uses, and the library defines no private helper it never reads.

No linter runs on this repository, so this test reads the sources with
``ast``.  Each name bound by a module-level import in ``src/fscat/*.py``,
``tools/*.py`` and ``tests/*.py`` must be read somewhere in its module, be
listed in the module's ``__all__`` (the package's re-exports), or be
imported from that module by another module of the same directory, as
``cli`` imports ``DimensionGuardError`` from ``indicators``.  An import
made for its side effect says so with ``# noqa: F401`` on its line.

Each private top-level function or class of ``src/fscat`` (a name with
one leading underscore) must be read in ``src/fscat`` outside its own
definition: by name, as an attribute, or in an import.  Each public
top-level function or class must be read the same way outside its own
definition in ``src/fscat``, ``tools/`` or ``perfbench/``, where a string
constant naming it counts too (``perfbench/tracing.py`` binds
``split_step_matrix`` by its name), or be listed in ``fscat.__all__``.  A
helper that only the tests use belongs in ``tests/references.py``.
"""

import ast
import glob
import importlib
import os

import pytest

import fscat

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dead_imports(directory, package=None):
    """(module, name, line) of every module-level import in ``directory``
    that breaks the rule; ``package`` names the modules' import package,
    whose ``__all__`` lists are read."""
    trees, lines = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        mod = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        trees[mod], lines[mod] = ast.parse(text, path), text.splitlines()
    imported_from = {mod: set() for mod in trees}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                src = node.module.rsplit(".", 1)[-1]
                if src in trees and src != mod:
                    imported_from[src].update(a.name for a in node.names)
    dead = []
    for mod, tree in trees.items():
        exported = set()
        if package:
            name = package if mod == "__init__" else f"{package}.{mod}"
            exported = set(getattr(importlib.import_module(name), "__all__",
                                   ()))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            if "# noqa: F401" in lines[mod][node.lineno - 1]:
                continue
            dead += [(mod, name, node.lineno) for name in bound
                     if name not in read | exported | imported_from[mod]]
    return dead


@pytest.mark.parametrize("directory,package", [
    (os.path.join(ROOT, "src", "fscat"), "fscat"),
    (os.path.join(ROOT, "tools"), None),
    (os.path.join(ROOT, "tests"), None),
], ids=["fscat", "tools", "tests"])
def test_every_module_level_import_is_used(directory, package):
    assert _dead_imports(directory, package) == []


def _unread_definitions(directory, public, readers=()):
    """(module, name, line) of every top-level function or class in
    ``directory``, public or private (one leading underscore), that no
    top-level statement of ``directory`` or of ``readers`` other than its
    own definition reads: by name, as an attribute, in an import, or, for
    a public name, as a string constant."""
    defined, reads = [], []
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))) + [
            path for reader in readers
            for path in sorted(glob.glob(os.path.join(reader, "*.py")))]:
        mod = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) \
                        and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
                elif public and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    names.add(node.value)
            reads.append((stmt, names))
            if os.path.dirname(path) == directory \
                    and isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("__") \
                    and stmt.name.startswith("_") != public:
                defined.append((mod, stmt))
    return [(mod, stmt.name, stmt.lineno) for mod, stmt in defined
            if not any(stmt.name in names for other, names in reads
                       if other is not stmt)]


def test_every_private_library_definition_is_read():
    assert _unread_definitions(os.path.join(ROOT, "src", "fscat"), False) \
        == []


def test_every_public_library_definition_is_read_or_exported():
    unread = _unread_definitions(
        os.path.join(ROOT, "src", "fscat"), True,
        [os.path.join(ROOT, "tools"), os.path.join(ROOT, "perfbench")])
    assert [d for d in unread if d[1] not in fscat.__all__] == []
