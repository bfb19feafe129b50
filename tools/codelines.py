"""Count the code lines of each module of ``src/p2pcc`` and their total.

    python3 tools/codelines.py [CHECKOUT]

A code line is a non-blank physical line that holds part of a token other
than a comment, a line break or an indent, where that token is not part of
a docstring (the string that opens a module, class or function body).  So
blank lines, comment lines and docstrings do not count, and each physical
line of a multi-line statement does.  CHECKOUT defaults to this checkout.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that hold no code
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of the docstrings in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The code lines of one module's ``source``."""
    docs = _docstring_spans(ast.parse(source))
    physical = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for n in lines if physical[n - 1].strip())


def count(checkout: Path) -> dict[str, int]:
    """Code lines per module of the checkout's ``src/p2pcc``, by file name."""
    package = checkout / "src" / "p2pcc"
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if not (args.checkout / "src" / "p2pcc").is_dir():
        parser.error(f"{args.checkout}: no src/p2pcc")
    counts = count(args.checkout)
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
