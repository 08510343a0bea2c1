"""No module of the package imports a ``_``-prefixed name from another
module: a name a module keeps private may change without notice, so a
helper two modules need is made public where it lives."""
import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))


def private_imports(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        out += [n for n in names if n.startswith("_")]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_imports(path):
    assert private_imports(ast.parse(path.read_text())) == []


def test_guard_catches_private_import():
    tree = ast.parse("from .unify import _index\nimport a._b\nfrom x import y")
    assert private_imports(tree) == ["_index", "_b"]
