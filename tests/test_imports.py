"""Every name a `jetlie` module imports is used in that module, and a module
imports a sibling below its top level only to break an import cycle."""

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


def _relative_imports(node):
    """The sibling modules a `from .X import ...` or `from . import X` node names."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def needless_local_imports(sources):
    """The relative imports below the top level of the modules in `sources`
    ({module: text}) that break no import cycle: the imported module does not
    import the importing one, directly or through others, at top level."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    top = {
        name: {m for node in tree.body for m in _relative_imports(node)}
        for name, tree in trees.items()
    }

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name == goal:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(top.get(name, ()))
        return False

    out = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if node in tree.body:
                continue
            for target in _relative_imports(node):
                if not reaches(target, name):
                    out.append(f"{name}: {target} (line {node.lineno})")
    return sorted(out)


def test_the_scan_keeps_a_cycle_breaking_local_import_only():
    sources = {
        "expr": "def show(e):\n    from .printer import pretty\n    return pretty(e)\n",
        "printer": "from .expr import show\n",
        "engine": (
            "from .expr import show\n"
            "def basis():\n"
            "    from .expr import show\n"
            "    from . import printer\n"
        ),
    }
    assert needless_local_imports(sources) == ["engine: expr (line 3)", "engine: printer (line 4)"]


def test_a_local_import_breaks_an_import_cycle():
    sources = {name[: -len(".py")]: (PACKAGE / name).read_text() for name in MODULES}
    assert needless_local_imports(sources) == []
