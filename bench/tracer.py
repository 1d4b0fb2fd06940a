"""Outside-in layer tracing of the `jetlie` package.

Nothing in the package is edited: public functions are replaced, for the
duration of a `with` block, by wrappers installed from here.  A function
imported by name into another module (`from .engine import residual` in
`cli`) is patched at every module that binds it, so calls through either
name are seen.  Each wrapped call records a span `[layer, start, end,
parent]` in memory; self times subtract the time covered by child spans.

`count_expr_ops` is separate because counting every `Expr` addition and
multiplication costs far more than the spans do.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List

# (module, attribute, layer).  "Class.method" attributes are patched on the
# class.  Layers named here feed the per-layer metrics in run.py.
_NAMED = [
    ("jetlie.cli", "main", "cli"),
    ("jetlie.parser", "parse", "parser.parse"),
    ("jetlie.printer", "pretty", "printer"),
    ("jetlie.printer", "grammar", "printer"),
    ("jetlie.engine", "residual", "engine.residual"),
    ("jetlie.engine", "ansatz_solve", "engine.ansatz"),
    ("jetlie.engine", "spot_check", "engine.spot_check"),
    ("jetlie.engine", "derive_point_algebra", "engine.point_algebra"),
    ("jetlie.jets", "Manifold.total_dx", "jets.total_d"),
    ("jetlie.jets", "Manifold.total_dt", "jets.total_d"),
    ("jetlie.jets", "expand_equation", "jets.manifold"),
    ("jetlie.jets", "Manifold.__init__", "jets.manifold"),
    ("jetlie.linsolve", "linear_solve", "linsolve.split"),
    ("jetlie.linsolve", "nullspace", "linsolve.nullspace"),
    ("jetlie.linsolve", "rational_rref", "linsolve.rref"),
]
# Every other public function or method defined in these modules is traced
# under one layer per module, so its time is not charged to the caller.
_WHOLE_MODULES = {
    "jetlie.engine": "engine.other",
    "jetlie.claims": "claims",
    "jetlie.fields": "fields",
    "jetlie.algebra": "algebra",
    "jetlie.groups": "groups",
}
# Public helpers that belong to their caller's layer: the linearization is
# part of the residual.
_UNTRACED = {"frechet_derivative"}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, post=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _patch_everywhere(self, owner, attr: str, wrapper: Callable) -> None:
        """Replace `owner.attr`, and every module-level alias of it in jetlie."""
        original = owner.__dict__[attr]
        targets = [owner]
        if inspect.ismodule(owner):
            targets = [
                mod for name, mod in sorted(sys.modules.items())
                if name.startswith("jetlie") and mod is not None
                and mod.__dict__.get(attr) is original
            ]
        for target in targets:
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _size_hook(self, layer: str):
        """Records the sizes a layer's arguments or result carry, if any."""
        counts = self.counts
        if layer == "engine.residual":
            return lambda args, r: counts.update({"engine.residual_terms": len(r.value.terms)})
        if layer == "engine.ansatz":
            return lambda args, r: counts.update({"engine.basis_size": len(args[1])})
        if layer == "linsolve.nullspace":
            return lambda args, r: counts.update({"linsolve.rows": len(args[0]), "linsolve.rank": r.rank})
        return None

    def install(self) -> None:
        import jetlie.cli  # noqa: F401  (loads every module the CLI uses)

        plan = []
        for modname, attr, layer in _NAMED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            plan.append((owner, attr, owner.__dict__[attr], layer))
        named = {id(fn) for _owner, _attr, fn, _layer in plan}
        for modname, layer in _WHOLE_MODULES.items():
            plan += [
                (owner, attr, fn, layer)
                for owner, attr, fn in _public_functions(sys.modules[modname])
                if id(fn) not in named
            ]
        for owner, attr, fn, layer in plan:
            self._patch_everywhere(owner, attr, self._wrap(layer, fn, self._size_hook(layer)))
        mixed = sys.modules["jetlie.jets"].Manifold.__dict__["reduce_mixed"]
        counts = self.counts

        # A miss is a coordinate not yet in the Manifold's private cache.
        @functools.wraps(mixed)
        def reduce_mixed(man, i, j):
            counts["jets.mixed_calls"] += 1
            if (i, j) not in man._mixed:
                counts["jets.mixed_misses"] += 1
            return mixed(man, i, j)

        self._patch_everywhere(sys.modules["jetlie.jets"].Manifold, "reduce_mixed", reduce_mixed)

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- reading ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines: layer, start, end, parent index."""
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: call count and self seconds."""
        covered = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for k, (layer, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - covered[k]
        return out

    def reverify_seconds(self) -> float:
        """Residual time inside ansatz_solve after its linear_solve returned."""
        split_end: Dict[int, float] = {}
        for layer, _start, end, parent in self.spans:
            if layer == "linsolve.split" and parent >= 0:
                split_end[parent] = end
        total = 0.0
        for layer, start, end, parent in self.spans:
            if layer == "engine.residual" and parent in split_end and start >= split_end[parent]:
                total += end - start
        return total


def _public_functions(mod):
    """(owner, attribute, function) for public functions and methods defined in mod."""
    for name, obj in sorted(vars(mod).items()):
        if (name.startswith("_") or name in _UNTRACED
                or getattr(obj, "__module__", None) != mod.__name__):
            continue
        if inspect.isfunction(obj):
            yield mod, name, obj
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield obj, attr, member


@contextmanager
def tracing():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@contextmanager
def count_expr_ops(counts: Counter):
    """Count Expr additions and multiplications (including the reflected forms)."""
    from jetlie.expr import Expr

    originals = {name: Expr.__dict__[name] for name in ("__add__", "__radd__", "__mul__", "__rmul__")}

    def counting(name, fn):
        key = "expr.add_calls" if "add" in name else "expr.mul_calls"

        def op(self, other):
            counts[key] += 1
            return fn(self, other)

        return op

    for name, fn in originals.items():
        setattr(Expr, name, counting(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(Expr, name, fn)
