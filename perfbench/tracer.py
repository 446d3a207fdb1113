"""Span recorder that wraps the public entry points of the treebsde package.

Nothing in the package is edited: `Tracer.install()` replaces, in every
treebsde namespace that holds them, the public module functions, the public
methods of the package's classes (for `ScenarioTree` only `cond_exp`, `lift`
and `expectation`), and the `fn` of every generator returned by
`families.random_generator`.  `Tracer.restore()` puts every original back.

Spans live in flat in-memory arrays (name id, start, end, parent) and are
written out once, when the run ends.  A span's self time is its duration minus
the time its child spans cover; a layer is the module a span's code lives in.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import pkgutil
import time
from array import array

# class-level methods traced on ScenarioTree; its other methods are trivial
# accessors whose wrapping would cost more than the work they do
TREE_METHODS = ("cond_exp", "lift", "expectation")
SKIP_MODULES = ("errors",)
WRAPPED = "__perfbench_wrapped__"


def package_modules(pkg) -> list:
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{pkg.__name__}.{info.name}"))
    return mods


def layer_names(pkg) -> list:
    return sorted(m.__name__.rpartition(".")[2] for m in package_modules(pkg)[1:])


class Tracer:
    """Records nested spans around treebsde calls while installed."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list = []
        self._name_id: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._active = [True]
        self._patches: list = []
        # per span-name accumulators filled by size hooks
        self.nodes: dict = {}
        self.bytes: dict = {}
        # driver evaluations: (span index of the enclosing solve or -1, step, probe?)
        self.driver_calls: list = []
        self.instances: set = set()
        self.artifact_bytes = 0

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span_name: str, hook=None):
        nid = self._intern(span_name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        active = self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        setattr(traced, WRAPPED, True)
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    # -- size and count hooks --------------------------------------------------

    def _add(self, table: dict, key: str, value: float):
        table[key] = table.get(key, 0.0) + value

    def _cond_exp_hook(self, args, kwargs, out):
        n = len(args[1])
        weights = args[3] if len(args) > 3 else kwargs.get("weights")
        width = out.size // out.shape[0]
        # computed traffic: read x, the child probabilities (and weights), write the result
        moved = 8 * (n * width + n + (n if weights is not None else 0) + out.size)
        self._add(self.nodes, "cond_exp", n)
        self._add(self.bytes, "cond_exp", moved)

    def _lift_hook(self, args, kwargs, out):
        self._add(self.nodes, "lift", out.shape[0])

    def _build_hook(self, args, kwargs, tree):
        self._add(self.nodes, "build_tree",
                  sum(tree.n_nodes(k) for k in range(tree.n_steps + 1)))

    def _instance_hook(self, args, kwargs, out):
        # one family instance per (tree shape, seed), however often it is rebuilt
        tree, seed = args[0], args[1] if len(args) > 1 else kwargs["seed"]
        self.instances.add((tree.n_steps, tree.d, int(seed)))

    def _artifact_hook(self, args, kwargs, out):
        import os
        out_dir = args[0] if args else kwargs["out_dir"]
        for fname in ("reports.json", "reports.csv", "manifest.json"):
            self.artifact_bytes += os.path.getsize(os.path.join(out_dir, fname))

    def _generator_hook(self, args, kwargs, gen):
        """Wrap the driver of a freshly built generator, counting evaluations."""
        fn = gen.fn
        calls, stack, names, solve_ids = self.driver_calls, self._stack, self.name, self._solve_ids
        probe_id = self._name_id["bsde.check_lipschitz"]

        def find_context():
            solve, probe = -1, False
            for i in reversed(stack[1:]):
                nid = names[i]
                if nid == probe_id:
                    probe = True
                elif nid in solve_ids:
                    solve = i
                    break
            return solve, probe

        def counted(k, y, z):
            solve, probe = find_context()
            calls.append((solve, int(k), probe))
            return fn(k, y, z)

        gen.fn = self._wrap(counted, "families.driver")

    # -- install / restore -----------------------------------------------------

    def _hooks(self) -> dict:
        return {
            "tree.ScenarioTree.cond_exp": self._cond_exp_hook,
            "tree.ScenarioTree.lift": self._lift_hook,
            "tree.build_tree": self._build_hook,
            "families.random_reflected": self._instance_hook,
            "families.random_bsde": self._instance_hook,
            "families.random_generator": self._generator_hook,
            "cli.write_artifacts": self._artifact_hook,
        }

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._active[0] = True
        mods = package_modules(self.pkg)
        hooks = self._hooks()
        self._intern("bsde.check_lipschitz")
        self._solve_ids = {self._intern("bsde.solve_bsde"),
                           self._intern("reflected.solve_reflected")}
        originals = {}  # id(original function) -> wrapper
        for mod in mods[1:]:
            layer = mod.__name__.rpartition(".")[2]
            if layer in SKIP_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    span = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(obj, span, hooks.get(span)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, hooks)
        # every namespace that imported a function by name, and module-level
        # tables of functions such as the CLI's suite registry
        tables = [vars(mod) for mod in mods]
        tables += [obj for t in tables for attr, obj in t.items()
                   if isinstance(obj, dict) and not attr.startswith("__")]
        for table in tables:
            for key, obj in list(table.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((table, key, obj))
                    table[key] = hit[1]

    def _wrap_class(self, cls, layer: str, hooks: dict):
        names = TREE_METHODS if cls.__name__ == "ScenarioTree" else [
            a for a in vars(cls) if not a.startswith("_") or a in ("__add__", "__sub__")]
        for attr in names:
            raw = vars(cls)[attr]
            span = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span, hooks.get(span)))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, span, hooks.get(span)))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, span, hooks.get(span))
            else:
                continue  # properties and data
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    @contextlib.contextmanager
    def paused(self):
        """Run the block untraced, e.g. the benchmark's own output checks."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def restore(self):
        # generators built while tracing keep their wrapped driver: silence it
        self._active[0] = False
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []

    # -- analysis --------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time covered by child spans."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return dur, dur - child_time

    def summary(self) -> dict:
        """Calls, self time and inclusive time per span name; top-level time."""
        import numpy as np

        dur, self_t = self.self_times()
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        selfs = np.bincount(name, weights=self_t, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        spans = {self.names[i]: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                                 "total_s": float(incl[i])}
                 for i in range(n) if calls[i]}
        return {"spans": spans, "top_level_s": float(dur[parent < 0].sum()),
                "n_spans": int(len(dur))}

    def parent_names(self, child: str) -> dict:
        """How often each span name is the direct parent of a `child` span."""
        nid = self._name_id.get(child)
        out: dict = {}
        for i, n in enumerate(self.name):
            if n == nid and self.parent[i] >= 0:
                pname = self.names[self.name[self.parent[i]]]
                out[pname] = out.get(pname, 0) + 1
        return out

    def write(self, path: str):
        """Write every span (columnar) plus the name table."""
        import numpy as np

        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 names=np.array(json.dumps(self.names)))


def installed_wrappers(pkg) -> list:
    """Names of tracing wrappers still reachable from the package."""
    left = []
    for mod in package_modules(pkg):
        for attr, obj in vars(mod).items():
            if getattr(obj, WRAPPED, False):
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(obj, dict) and not attr.startswith("__"):
                left += [f"{mod.__name__}.{attr}[{k!r}]" for k, v in obj.items()
                         if getattr(v, WRAPPED, False)]
            elif inspect.isclass(obj):
                for a, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, WRAPPED, False):
                        left.append(f"{mod.__name__}.{obj.__name__}.{a}")
    return left
