import ast
from pathlib import Path

import pytest

import xorcast

SRC = Path(xorcast.__file__).resolve().parent


def test_all_names_resolve():
    # a stale __all__ entry still imports but breaks `from xorcast import *`
    missing = [name for name in xorcast.__all__ if not hasattr(xorcast, name)]
    assert not missing


def unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports but never loads; a name listed in __all__ is used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    # a stale import also changes what a wrapper patching module attributes reaches
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_catches_a_stale_import():
    tree = ast.parse("import enum\nfrom dataclasses import dataclass\nfrom os import path\n"
                     "__all__ = ['path']\n")
    assert unused_imports(tree) == ["enum (line 1)", "dataclass (line 2)"]
