"""No module of the package calls a nondeterministic Spark function: a
value that depends on partitioning, task order or a random seed would make
the same input give a different fact set.  Invented terms are hashes of
their trigger (``core.terms``)."""
import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))
FUNCTIONS = "pyspark.sql.functions"
NONDETERMINISTIC = {"monotonically_increasing_id", "rand", "randn", "uuid", "shuffle"}


def nondeterministic_calls(tree: ast.AST) -> list[str]:
    """Calls of ``NONDETERMINISTIC`` functions of ``pyspark.sql.functions``,
    through a module alias (``F.rand()``) or an imported name (``rand()``)."""
    aliases, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == FUNCTIONS and a.asname}
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if f"{node.module}.{a.name}" == FUNCTIONS:
                    aliases.add(a.asname or a.name)
                elif node.module == FUNCTIONS:
                    names[a.asname or a.name] = a.name
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in aliases:
            name = f.attr
        elif isinstance(f, ast.Name):
            name = names.get(f.id)
        else:
            continue
        if name in NONDETERMINISTIC:
            out.append(name)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_nondeterministic_spark_calls(path):
    assert nondeterministic_calls(ast.parse(path.read_text())) == []


def test_guard_catches_nondeterministic_call():
    tree = ast.parse(
        "from pyspark.sql import functions as F\n"
        "from pyspark.sql.functions import rand as r, sha2\n"
        "import pyspark.sql.functions as G\n"
        "F.monotonically_increasing_id()\nr(7)\nG.shuffle(c)\n"
        "F.sha2(c, 256)\nsha2(c, 256)\nrng.shuffle(xs)\nuuid.uuid4()"
    )
    assert nondeterministic_calls(tree) == ["monotonically_increasing_id", "rand", "shuffle"]
