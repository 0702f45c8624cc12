"""The run directory stays behind ``mvcrop.rundir``: its writes replace a
file whole, and no other package module builds a run-directory path from
a string literal. No linter ships with the project, so the ``ast`` check
here is the guard."""
import ast
import re
from pathlib import Path

import pytest

from mvcrop import rundir

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "mvcrop"
_SOURCES = sorted(path for path in _PACKAGE.glob("*.py")
                  if path.name != "rundir.py")
_RUN_FILE = re.compile(r"\.(csv|md|mvlc)\b|checkpoints/|reports/")


def test_failed_write_keeps_the_old_table(tmp_path):
    path = tmp_path / "summary.csv"
    rundir.write_table(path, ("cell", "kappa"), [("GRU/Input", 0.5)])
    before = path.read_bytes()

    def rows():
        yield ("GRU/Feature", 0.25)
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        rundir.write_table(path, ("cell", "kappa"), rows())
    assert path.read_bytes() == before == b"cell,kappa\nGRU/Input,0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


def _literal_paths(source: str) -> list[int]:
    """Lines of ``source`` that join a path with a string literal, or hold
    an f-string that names a run file."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, str)):
            lines.add(node.lineno)
        elif isinstance(node, ast.JoinedStr) and any(
                isinstance(part, ast.Constant) and _RUN_FILE.search(part.value)
                for part in node.values):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: str(p.relative_to(_ROOT)))
def test_only_rundir_names_run_files(path):
    assert _literal_paths(path.read_text()) == []


def test_literal_paths_are_found():
    source = ('out / "records.csv"\nout / name\n'
              'f"checkpoints/{slug}.mvlc"\nf"per_{key}.csv"\n'
              'f"import manifest.{name}"\n"a/b.csv"\n')
    assert _literal_paths(source) == [1, 3, 4]
