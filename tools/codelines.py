#!/usr/bin/env python3
"""Count the code lines of Python modules: no blank lines, comments or docstrings.

    python3 tools/codelines.py [PATH ...]

Each PATH is a ``.py`` file or a directory, read recursively; the default
is this repository's ``src/modclass``.  A line counts when some token
other than a comment starts on it or runs across it, and it lies in no
docstring: the string statement that opens a module, a class or a
function.  The tool prints each module's count, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _modules(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "modclass"])
    args = parser.parse_args(argv)
    total = 0
    for module in _modules(args.paths):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
