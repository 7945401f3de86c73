"""Every name a module of the package imports is read somewhere in that module.

No linter runs on the package, so this walk stands in for the unused-import
rule. ``__init__.py`` is skipped: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import ebchan

MODULES = sorted(path for path in Path(ebchan.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


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
