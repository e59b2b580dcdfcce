"""Count the code lines of src/mmrd: lines that hold a token other than a
comment, minus the lines of module, class and function docstrings.

Run from the repository root: ``python tools/count_code_lines.py [SRC_DIR]``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/mmrd")
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
