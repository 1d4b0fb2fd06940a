"""Every name a `jetlie` module imports is used in that module, a module
imports a sibling below its top level only to break an import cycle, and every
function and method `jetlie` defines is named somewhere else in `jetlie`."""

import ast
from collections import Counter
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


# definitions that only tests call, each with the test that calls it: the
# cross-checks that reports are yet to run, and the inverse of `point_field_of`
TEST_REFERENCES = {
    "algebra.preserves_structure",  # test_algebra.py::test_adjoint_exp_is_automorphism
    "algebra.AdjointMap.is_identity_at_zero",  # test_algebra.py::test_adjoint_exp_is_automorphism
    "algebra.replay_steps",  # test_algebra.py::test_normalize_1d_witness_and_idempotence
    "groups.transform_solution",  # test_groups.py::test_transform_solution_*
    "groups.GroupElement.compose",  # test_groups.py::test_group_axioms
    "groups.GroupElement.is_identity_at_zero",  # test_groups.py::test_flow_affine_shift
    "fields.characteristic_of",  # test_fields.py::test_round_trip_point
}


def _names(node):
    """How often each name is read or called, as a variable or an attribute, in `node`."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions(sources):
    """The top-level functions and the methods of top-level classes in `sources`
    ({module: text}) whose name no code outside their own body uses; `main`
    and dunder methods are called from outside."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            functions = [("", node)]
            if isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.", sub) for sub in node.body]
            for prefix, fn in functions:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name == "main" or (fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                if used[fn.name] == _names(fn)[fn.name]:
                    out.append(f"{module}.{prefix}{fn.name}")
    return sorted(out)


def test_the_scan_counts_a_use_outside_the_definition_only():
    sources = {
        "a": (
            "def main():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class K:\n"
            "    def __eq__(self, other):\n        return self.used()\n"
            "    def used(self):\n        return 0\n"
            "    def unused(self):\n        return 0\n"
        ),
        "b": "from .a import K\ndef caller(k: K):\n    return k.used\n",
    }
    assert unreferenced_definitions(sources) == ["a.K.unused", "a.recursive", "b.caller"]


def test_every_definition_is_named_elsewhere_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = set(unreferenced_definitions(sources))
    # nothing else goes unnamed, and a reference that gains a caller leaves the list
    assert (sorted(found - TEST_REFERENCES), sorted(TEST_REFERENCES - found)) == ([], [])
