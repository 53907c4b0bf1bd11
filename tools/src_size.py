"""Print the size of the library: the ``wc -l`` total of
``src/spectral_optim/*.py``, its code lines (those that hold a token of
code: no docstring, comment or blank line), and the length of
``spectral_optim.__all__``.

Run from anywhere: ``python tools/src_size.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "spectral_optim"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token of code."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(line for line in range(tok.start[0], tok.end[0] + 1)
                         if line not in docs)
    return len(lines)


def main() -> None:
    files = sorted(PACKAGE.glob("*.py"))
    sources = [f.read_text() for f in files]
    sys.path.insert(0, str(SRC))
    import spectral_optim

    print(f"wc -l total:  {sum(s.count(chr(10)) for s in sources)}")
    print(f"code lines:   {sum(code_lines(s) for s in sources)}")
    print(f"__all__:      {len(spectral_optim.__all__)}")


if __name__ == "__main__":
    main()
