"""The library must not rest on ``assert``: ``python -O`` strips it."""

import ast
from pathlib import Path

import pytest

import fanforge

SRC = Path(fanforge.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def test_modules_are_found():
    assert {"linalg", "refine", "theorems"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements on lines {lines}"
