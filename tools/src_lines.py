#!/usr/bin/env python3
"""Code lines of each module in a source tree: not blank, not comment, not docstring.

    python3 tools/src_lines.py [--src DIR]

A line counts if it holds part of a token other than a comment, such as
a continued string or bracket. Module, class and function docstrings
(found with `ast`) do not count, whatever lines they span. It prints one
line per module, `path count`, with paths relative to DIR and in sorted
order, then `total count`.

`--src` is the directory to walk for `*.py` files (default: `src/` of
this checkout), so two checkouts' counts can be compared:

    python3 tools/src_lines.py --src ../parent/src
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory of the modules to count (default: src/)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(args.src).as_posix()} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
