"""The exact layers must not rest on ``assert``: ``python -O`` strips it."""

import ast
from pathlib import Path

import pytest

import fanforge

SRC = Path(fanforge.__file__).parent


@pytest.mark.parametrize("module", ["linalg", "lp", "plfun", "mori", "primcoll"])
def test_module_has_no_assert(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements on lines {lines}"
