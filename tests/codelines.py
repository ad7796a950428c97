"""The code lines of each module of src/plma, and their total.

Run from the repository root:

    python tests/codelines.py [DIR]

DIR defaults to src/plma.  pytest does not collect this file.  A code line
is a non-blank line outside comments and docstrings: a line that holds a
token other than a comment or a line break (`tokenize`), a string spanning
several lines counting on each of them, less the lines of every module,
class and function docstring (`ast`).  CHANGES.md quotes line counts made
this way.
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of the docstrings of the module, classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(path):
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(Path(path).read_bytes())))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/plma")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:<16} {n:>6}")
    print(f"{'total':<16} {total:>6}")


if __name__ == "__main__":
    main(sys.argv)
