"""Count the code lines of Python source files.

A code line carries at least one token other than a comment or a line
break, and is not part of a module, class or function docstring.  Blank
lines, comment lines and docstrings are left out; every line of another
multi-line string counts.  Prints the total over all files::

    python tools/count_code_lines.py src/graphon_lqr/*.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one file's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
