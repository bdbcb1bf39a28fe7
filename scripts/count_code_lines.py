#!/usr/bin/env python3
"""Count the code lines of Python files, leaving out docstrings, comments and blanks.

A line counts when a token other than a comment or a module, class or
function docstring starts, ends or continues on it.  Each PATH is a file
or a directory, whose .py files are counted in sorted order.  Prints one
line per file and a total, in the layout of ``wc -l``:

    python scripts/count_code_lines.py src tests
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            starts.add((node.body[0].lineno, node.body[0].col_offset))
    return starts


def count_code_lines(source: str) -> int:
    docstrings = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    out = []
    for path in map(Path, paths):
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="PATH")
    total = 0
    for path in _files(parser.parse_args().paths):
        count = count_code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
