"""Checks on the package's source that no installed linter makes."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "permlcu"
# (module, name) imported only for the module's importers to read
REEXPORTS = {("sched", "MODE_UNIFORM")}


def unused_imports(source: str) -> set:
    """The names that the module's imports bind and its code never reads
    (a name in a module-level `__all__` counts as read)."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == {"math"}
    assert unused_imports("from . import a, b\n__all__ = ['a']\n") == {"b"}
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "def f(x: os.PathLike): pass\n") == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    allowed = {name for module, name in REEXPORTS if module == path.stem}
    assert unused_imports(path.read_text()) == allowed
