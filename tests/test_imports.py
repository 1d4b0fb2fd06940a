"""Every name a `jetlie` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jetlie"
# `__init__.py` imports to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree):
    """Names inside string annotations, which the parser leaves as constants."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for sub in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def unused_imports(source: str):
    """The names `source` imports, at any depth, and never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_sees_a_use_in_code_and_in_a_string_annotation():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    from math import gcd, lcm\n"
        "    return [gcd(1, 2)]\n"
    )
    assert unused_imports(source) == ["Dict (line 3)", "lcm (line 5)", "os (line 2)"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    assert unused_imports((PACKAGE / name).read_text()) == []
