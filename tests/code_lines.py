"""Count the code lines of Python modules: the lines that hold a token of
code, without blank lines, comment lines or docstrings.

    python tests/code_lines.py [DIRECTORY ...]

prints each module's count and the total, for src/smoa by default.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token other than a
    comment, a line break or an indent and that lie outside every
    docstring, the string that opens a module, class or function body."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    folders = argv or [str(Path(__file__).resolve().parent.parent / "src" / "smoa")]
    total = 0
    for folder in folders:
        for path in sorted(Path(folder).glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{path}: {count}")
    print(f"total: {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
