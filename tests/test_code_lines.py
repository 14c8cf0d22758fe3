"""tools/code_lines.py counts the lines that hold code: not blank lines,
comments or docstrings, but every physical line of a continued statement."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''\
"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


class C:
    """A class docstring."""

    def f(self, a,
          b):
        """A function docstring."""
        total = a + \\
            b
        return os.sep.join([
            "not a docstring: a string in an expression",
        ]) + """a string over
two lines"""
'''
# counted by hand: "import os", "class C:", the two lines of "def f", the
# two lines of "total = ...", and the four lines of the return statement
SNIPPET_LINES = 1 + 1 + 2 + 2 + 4


def test_counts_a_snippet_as_by_hand():
    assert code_lines.count(SNIPPET) == SNIPPET_LINES


def test_blank_comment_and_docstring_lines_do_not_count():
    assert code_lines.count('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{SNIPPET_LINES:6d}  {tmp_path / 'a.py'}",
                   f"{1:6d}  {tmp_path / 'b.py'}",
                   f"{SNIPPET_LINES + 1:6d}  total"]
