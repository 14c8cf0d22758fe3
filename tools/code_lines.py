"""Count the code lines of Python modules: the lines that hold a token
other than a comment, and are not part of a docstring.  Blank lines,
comment-only lines and docstrings do not count; every physical line of a
statement continued over several lines does, and so does every line of a
string literal that is not a docstring.

Run ``python tools/code_lines.py src/msetsim`` to print each module's count
and the total.  The arguments may be files or directories; a directory
stands for the ``*.py`` files below it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a module, its classes
    and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The number of code lines in the Python source ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for module in _modules(paths):
        n = count(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
