"""Count the lines of each module under ``src/``.

For each module, and in total, prints the line count as ``wc -l`` gives it
and the count of code lines: lines that are neither blank, nor comment only,
nor part of a docstring (the string that opens a module, class or function).
For each module it also prints its parser-visible tokens, those of
``tokenize`` less comments and non-logical newlines, then how far that count
is past the largest power of two below it (``over``) and short of the next
one (``under``).  CPython 3.11's parser grows its token array by doubling
and allocates every new slot's token at once, so the peak memory of
compiling a module steps up each time it reaches a power of two: by about
100 KB at 2,048 tokens and 230 KB at 4,096.  Every process that imports a
module compiles it unless a cached bytecode file is used.  The script
reports and gates nothing.  Run from anywhere: ``python tools/src_lines.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Tokens that never make a line code on their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
#: Tokens that the parser never sees.
_HIDDEN = {tokenize.COMMENT, tokenize.NL}
#: Nodes whose first statement, when a string, is a docstring.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int, int]:
    """The ``wc -l`` count of ``text``, its count of code lines and its count
    of parser-visible tokens."""
    code: set[int] = set()
    tokens = 0
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        tokens += token.type not in _HIDDEN
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text))), tokens


def main() -> int:
    total_wc = total_code = 0
    print(f"{'module':<32} {'wc -l':>7} {'code':>7} {'tokens':>7} {'over':>6} {'under':>6}")
    for path in sorted(SRC.rglob("*.py")):
        wc, code, tokens = count(path.read_text(encoding="utf-8"))
        total_wc, total_code = total_wc + wc, total_code + code
        step = 1 << (tokens - 1).bit_length() - 1  # the largest power of two below
        print(f"{path.relative_to(SRC).as_posix():<32} {wc:>7} {code:>7} {tokens:>7} {tokens - step:>6} {2 * step - tokens:>6}")
    print(f"{'total':<32} {total_wc:>7} {total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
