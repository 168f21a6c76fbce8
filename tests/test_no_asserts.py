"""Invariants of the package raise real errors: `python -O` strips `assert`
statements, so none may appear under src/qkcalc."""

import ast
import pathlib

import qkcalc


def test_package_has_no_assert_statements():
    root = pathlib.Path(qkcalc.__file__).parent
    files = sorted(root.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
