"""Every name a module under src/qkcalc imports is used there: a leftover
import of a deleted helper keeps a dead dependency alive.  A name listed in
`__all__`, or imported on a line marked `# noqa: F401` (a re-export or a
name another tool reaches through the module), is exempt."""

import ast
import pathlib

import qkcalc


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    noqa = lambda lineno: "# noqa: F401" in lines[lineno - 1]
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name in exported or noqa(node.lineno) or noqa(alias.lineno):
                continue
            unused.append((alias.lineno, name))
    return unused


def test_checker_finds_an_unused_import_and_honours_the_exemptions():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .qkring import _matmul_mod, divisor_matrix\n"
        "from .store import (  # noqa: F401\n"
        "    load_table,\n"
        ")\n"
        "from .gamma import (\n"
        "    exact_divide,  # noqa: F401\n"
        "    ch_character,\n"
        ")\n"
        "__all__ = ['os']\n"
        "x = np.zeros(divisor_matrix)\n"
    )
    assert _unused_imports(source) == [(3, "_matmul_mod"), (9, "ch_character")]


def test_package_has_no_unused_imports():
    root = pathlib.Path(qkcalc.__file__).parent
    files = sorted(root.glob("*.py"))
    assert files
    found = [f"{path.name}:{lineno} {name}" for path in files for lineno, name in _unused_imports(path.read_text())]
    assert found == []
