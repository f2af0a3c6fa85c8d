"""Every fanforge name the benchmark workloads call still exists.

A public name removed from the library would otherwise fail only in a
benchmark run (the tracer's metric names are checked in
``test_tracer_names.py``).  ``perfbench/workloads.py`` is parsed with
``ast``; nothing under ``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("corpus", "mori", "plfun", "primcoll", "refine", "theorems", "fan")


def _workload_module_aliases(tree):
    """Local name -> fanforge module, from ``from fanforge import ...``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fanforge":
            for a in node.names:
                if a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
    return aliases


def test_workloads_attributes_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = _workload_module_aliases(tree)
    # fan is imported as fanmod; every module of the list is used
    assert set(aliases.values()) == set(MODULES) and aliases["fanmod"] == "fan"
    used = {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    assert len(used) > 10
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sorted(used)
        if not hasattr(importlib.import_module(f"fanforge.{mod}"), attr)
    ]
    assert missing == []

