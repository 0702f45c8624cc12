"""Source hygiene: every name that a package or test module imports is read
in that module. No linter ships with the project, so this test is the
check. ``__future__`` imports and re-exports are exempt: names listed in
``__all__`` and names imported under their own name as an alias
(``from m import n as n``, the explicit re-export form of PEP 484)."""
import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SOURCES = sorted((_ROOT / "src" / "mvcrop").glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))


def _unread_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.asname != a.name]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - read)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: str(p.relative_to(_ROOT)))
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\nimport a.b\nfrom x import y, z as w\n"
              "from q import kept, same as same\n__all__ = ['kept']\n"
              "np.ones(a.b.c)\nw = 1\n")
    assert _unread_imports(source) == ["os", "w", "y"]
