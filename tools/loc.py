"""Count the code lines of Python source files.

    python3 tools/loc.py [PATH ...]        (default: src)

Run from the repository root.  Each PATH is a `.py` file or a directory
searched for `.py` files.  A code line is a line that holds a token other
than a comment, and that is not part of a docstring: blank lines, comment
lines and docstrings (the leading string literal of a module, class or
function, found with `ast`) are left out.  Every line of a statement that
spans several lines counts, as does every line of a string literal that
is not a docstring.  The tokens are read with `tokenize`, so a `#` inside a
string is not a comment.

Printed: one line per file, its code lines and its path, in path order,
then the total.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(lo <= tok.start < hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    """The `.py` files a list of files and directories names, in path order."""
    files = set()
    for path in map(Path, paths):
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.is_file():
            files.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files and directories to count (default: src)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        files = python_files(args.paths)
    except FileNotFoundError as exc:
        print(f"loc: {exc}", file=sys.stderr)
        return 2
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
