"""Checks on the package as a whole."""

import ast
from pathlib import Path

import linser


def test_exports_resolve_and_no_invariant_rests_on_assert():
    # every exported name exists, so ``from linser import *`` works
    missing = [name for name in linser.__all__ if not hasattr(linser, name)]
    assert missing == []
    namespace = {}
    exec("from linser import *", namespace)
    assert set(linser.__all__) <= set(namespace)
    # ``python -O`` strips assert statements, so the package has none
    found = []
    for path in sorted(Path(linser.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
