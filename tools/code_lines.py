#!/usr/bin/env python3
"""Count the code lines of Python files (stdlib only).

A code line is one that holds part of a token other than a comment, and
that is not part of a docstring: blank lines, comment-only lines and the
docstrings of modules, classes and functions do not count.  A statement
spread over several lines counts each of them, and so does a string
spanning several lines that is no docstring.

Prints each file's count and then the total.  Usage::

    python tools/code_lines.py FILE [FILE ...]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from typing import List, Set

#: tokens that are layout or comments, not code
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """The lines of every module, class and function docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many code lines ``source`` has."""
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py FILE [FILE ...]", file=sys.stderr)
        return 2
    total = 0
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            count = code_lines(handle.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
