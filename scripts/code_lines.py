"""Count the code lines of ``src/swingquant``, per module and in total.

Usage::

    python3 scripts/code_lines.py

A code line is one that is not blank, not a comment alone and not part
of a module, class or function docstring (found with :mod:`ast`).
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "swingquant"


def code_lines(source: str) -> int:
    lines = source.splitlines()
    skip = {i for i, line in enumerate(lines, 1)
            if not line.strip() or line.lstrip().startswith("#")}
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines) - len(skip)


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
