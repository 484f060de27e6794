"""Count code lines the way CHANGES.md quotes them: every line that holds a
token, not counting docstrings, comments or blank lines (stdlib only).

    python tools/code_lines.py src/pcattack/*.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    total = 0
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
