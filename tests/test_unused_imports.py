"""Every name a module of the package imports is read somewhere in that module,
and every private module-level name is read somewhere in the package.

No linter runs on the package, so these walks stand in for the unused-import
and dead-code rules. ``__init__.py`` is skipped by the import walk: it
imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import ebchan

PACKAGE = sorted(Path(ebchan.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_the_walk_finds_an_unused_import():
    source = "import os\nfrom numpy import eye, zeros as z\nprint(z(2))\n"
    assert unused_imports(source) == ["eye (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list:
    """Private names defined at the top level of a module and read in none of ``sources``.

    ``sources`` maps module names to their text. A read is a loaded name or an
    attribute (``module._name``) anywhere; an import alone is not one.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            unread += [f"{module}.{name} (line {node.lineno})" for name in targets
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_the_walk_finds_an_unread_private_name():
    sources = {"a": "__all__ = []\n_used = 1\ndef _unused():\n    return _used\n",
               "b": "from a import _unused\n"}
    assert unread_private_names(sources) == ["a._unused (line 3)"]


def test_package_reads_every_private_name():
    assert unread_private_names({path.stem: path.read_text() for path in PACKAGE}) == []
