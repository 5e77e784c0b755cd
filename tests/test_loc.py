"""tools/loc.py, the code-line count of Python sources: what counts as a
code line on a small fixture, and its command line."""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tools_loc", ROOT / "tools" / "loc.py")
loc = sys.modules["tools_loc"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

FIXTURE = '''"""A module docstring,
over two lines."""
import os  # a trailing comment leaves the line a code line

# a comment line


def f(x):
    """A function docstring."""
    text = """a string literal that is
not a docstring"""
    return (x +
            1)


class C:
    "A one-line class docstring."

    def g(self): return "# not a comment"


def h(): """A docstring on the line of its def."""
'''


def test_the_fixture_has_nine_code_lines():
    # import; def f; the two lines of `text`; the two of `return`; class C;
    # def g; def h, whose docstring shares its line
    assert loc.code_lines(FIXTURE) == 9


def test_a_file_of_docstrings_comments_and_blank_lines_has_none():
    assert loc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "pkg" / "a.py")], ["2", str(tmp_path / "pkg" / "b.py")],
        ["11", "total"]]


def test_arguments_and_a_missing_path(tmp_path, capsys):
    assert loc.parse_args([]).paths == ["src"]
    assert loc.main([str(tmp_path / "missing")]) == 2
    assert "missing" in capsys.readouterr().err
