"""``tools/src_lines.py``, the size count quoted for ``src/``, in a fresh
interpreter."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment is code


# a comment line
def area(r):
    """A function docstring."""
    text = """a string that is
    not a docstring"""
    return (
        math.pi
        * r**2
    )
'''


def run_tool(src: Path) -> list[list[str]]:
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


@pytest.mark.skipif(shutil.which("wc") is None, reason="needs wc")
def test_totals_are_wc_line_counts():
    src = ROOT / "src" / "royale_ratings"
    modules = sorted(src.glob("*.py"))
    rows = run_tool(src)
    assert rows[0] == ["module", "lines", "code"]
    assert [row[0] for row in rows[1:-1]] == [path.name for path in modules]
    done = subprocess.run(
        ["wc", "-l", *map(str, modules)], capture_output=True, text=True, check=True
    )
    counted = [int(line.split()[0]) for line in done.stdout.splitlines()]
    assert [int(row[1]) for row in rows[1:]] == counted
    assert rows[-1][0] == "total"
    code = [int(row[2]) for row in rows[1:-1]]
    assert sum(code) == int(rows[-1][2])
    assert all(0 < c < int(row[1]) for c, row in zip(code, rows[1:-1]))


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    # import, def, the string's two lines, return ( and its three lines
    assert run_tool(tmp_path)[1:] == [["sample.py", "15", "8"], ["total", "15", "8"]]
