"""Package hygiene: modules reach each other through public names only."""

import ast
import pathlib

import spreadmi

PACKAGE = pathlib.Path(spreadmi.__file__).parent


def private_imports(path):
    """``(line, name)`` of every underscore name that ``path`` imports from
    the package, relatively or by its absolute name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "spreadmi")
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if (hits := private_imports(path))}
    assert found == {}
