"""Line counts of the ``spreadmi`` package, per module and in total, and
the total of the test suite under ``tests/``, so that code moved from the
package into the tests shows as a move.

``lines`` is what ``wc -l`` reports; ``code`` leaves out blank lines,
comment-only lines and docstrings (of modules, classes and functions).

Run from the repository root, or name another checkout to compare trees:

    python tools/count_lines.py [ROOT]
"""

import ast
import pathlib
import sys


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path):
    """``(lines, code)`` of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip()
               and not line.strip().startswith("#"))
    return text.count("\n"), code


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".")
    rows = [(path.name, *count(path))
            for path in sorted((root / "src" / "spreadmi").glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    tests = [count(path) for path in sorted((root / "tests").rglob("*.py"))]
    rows.append(("tests/", sum(t[0] for t in tests), sum(t[1] for t in tests)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>7}{code:>7}")


if __name__ == "__main__":
    main(sys.argv)
