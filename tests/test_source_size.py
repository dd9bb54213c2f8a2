"""The package does not grow unnoticed: its lines, and its code lines
(no docstrings, comments or blank lines), stay within the bounds below.

A change that needs more raises the bound in the same change and says so
in CHANGES.md; a change that deletes code may lower it."""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fptcert"

MAX_LINES = 2967
MAX_CODE_LINES = 1937

# tokens that are not code: a comment, or layout
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


# the nodes that can open with a docstring
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(text):
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, _DOCUMENTED):
            continue
        if ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def source_size():
    """(lines, code lines) of the package's modules; a code line holds a
    token that is neither a comment, nor layout, nor part of a docstring."""
    lines = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = _docstring_lines(text)
        rows = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in _LAYOUT:
                rows.update(range(token.start[0], token.end[0] + 1))
        lines += len(text.splitlines())
        code += len(rows - docstrings)
    return lines, code


def test_source_stays_within_its_bounds():
    lines, code = source_size()
    assert lines <= MAX_LINES and code <= MAX_CODE_LINES, (
        "src/fptcert holds %d lines (bound %d), %d of them code (bound %d); "
        "raise the bound in this file in the same change and declare it in "
        "CHANGES.md" % (lines, MAX_LINES, code, MAX_CODE_LINES)
    )
