"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules, and
every function ``permstab.cli`` imports, wherever a package module binds
it.  Each call records a span: op id, span id, parent span id, name,
start, end and self time (duration minus the time of child spans).  The
hottest methods -- ``Permutation.__init__``/``__mul__``, which run
millions of times, and the ``Subgroup``/``FiniteGroup`` constructors --
are timed and counted in aggregate instead of as spans; the traced run
reports what all this costs as ``tracing.overhead_ratio``.  Generator
functions are left unwrapped: their work is charged to the consumer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
from time import perf_counter

LAYERS = (
    "perm",
    "groups",
    "trace_stats",
    "multiplicity",
    "stability",
    "graphs",
    "jsonio",
    "cli",
)
HOT = (
    ("perm", "Permutation", "__init__"),
    ("perm", "Permutation", "__mul__"),
    ("groups", "Subgroup", "__init__"),
    ("groups", "FiniteGroup", "__init__"),
)
INCLUSIVE = {
    "groups.lattice_s": ("groups.subgroup_conjugacy_classes", "groups.all_subgroups"),
    "stability.extend_s": ("stability.has_extension",),
    "stability.min_conj_s": ("stability.min_conjugator_distance",),
    "stability.correct_s": ("stability.centralizer_correct",),
    "stability.small_conj_s": ("stability.small_conjugator",),
    "graphs.enumerate_s": ("graphs.enumerate_patterns",),
    "graphs.frequency_s": ("graphs.pattern_frequency",),
}
CALLS = {
    "groups.hom_checks": "groups.check_homomorphism",
    "multiplicity.decompositions": "multiplicity.orbit_decomposition",
    "graphs.frequency_calls": "graphs.pattern_frequency",
}
COUNTERS = (
    "trace_stats.subsets",
    "multiplicity.orbits",
    "graphs.patterns_enumerated",
    "jsonio.bytes_in",
    "cli.bytes_out",
)


def _s_from_tr_subsets(args, kwargs, result, before):
    B = kwargs["B"] if "B" in kwargs else args[2]
    return "trace_stats.subsets", 2 ** len(set(B))


def _orbits(args, kwargs, result, before):
    return "multiplicity.orbits", len(result.orbits)


def _patterns(args, kwargs, result, before):
    return "graphs.patterns_enumerated", len(result) if before else 0


def _bytes_in(args, kwargs, result, before):
    path = args[0] if args else kwargs.get("path")
    size = os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0
    return "jsonio.bytes_in", size


# name -> counter hook(args, kwargs, result, missed_cache) -> (counter, amount)
HOOKS = {
    "trace_stats.s_from_tr": _s_from_tr_subsets,
    "multiplicity.orbit_decomposition": _orbits,
    "graphs.enumerate_patterns": _patterns,
    "jsonio._load_json": _bytes_in,
}


def _traceable(obj, modname):
    fn = getattr(obj, "__wrapped__", obj)
    return (
        inspect.isfunction(fn)
        and fn.__module__ == modname
        and not inspect.isgeneratorfunction(fn)
    )


class Tracer:
    def __init__(self):
        self.spans = []
        self.hot = {}  # "perm.Permutation.__mul__" -> [calls, self seconds]
        self.counts = {c: 0 for c in COUNTERS}
        self.cache = {}  # lru-cached function name -> [hits, misses]
        self.op = -1
        self._ids = itertools.count(1)
        self._stack = [[0, 0.0]]  # [span id, child seconds]
        self._undo = []

    # -- installing ------------------------------------------------------

    def install(self):
        mods = {f"permstab.{l}": importlib.import_module(f"permstab.{l}") for l in LAYERS}
        cli = mods["permstab.cli"]
        targets = {}
        for modname, mod in mods.items():
            layer = modname.split(".")[1]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _traceable(obj, modname):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        for attr, obj in vars(cli).items():  # what cli imports, private or not
            owner = getattr(getattr(obj, "__wrapped__", obj), "__module__", "")
            if owner in mods and owner != cli.__name__ and _traceable(obj, owner):
                targets[id(obj)] = (obj, f"{owner.split('.')[1]}.{attr}")
        wrappers = {key: self._span_wrapper(obj, name) for key, (obj, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "permstab" and not modname.startswith("permstab."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for layer, cls_name, meth in HOT:
            cls = getattr(mods[f"permstab.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._hot_wrapper(orig, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- recording -------------------------------------------------------

    def _span_wrapper(self, fn, name):
        stack, spans, ids, tracer = self._stack, self.spans, self._ids, self
        hook = HOOKS.get(name)
        cached = isinstance(fn, functools._lru_cache_wrapper)
        if cached:
            self.cache[name] = [0, 0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0]
            frame = [sid, 0.0]
            misses = fn.cache_info().misses if cached else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][1] += t1 - t0
                spans.append((tracer.op, sid, parent, name, t0, t1, t1 - t0 - frame[1]))
            missed = cached and fn.cache_info().misses > misses
            if cached:
                tracer.cache[name][1 if missed else 0] += 1
            if hook is not None:
                counter, amount = hook(args, kwargs, result, missed)
                tracer.counts[counter] += amount
            return result

        return wrapper

    def _hot_wrapper(self, fn, name):
        stack = self._stack
        acc = self.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [stack[-1][0], 0.0]  # not a span: spans inside keep the parent
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dur
                acc[0] += 1
                acc[1] += dur - frame[1]

        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn`` as a span named ``name`` (for work the benchmark
        itself does on a layer's behalf, such as serializing a report)."""
        return self._span_wrapper(fn, name)(*args)

    # -- exporting -------------------------------------------------------

    def export(self):
        return {
            "spans": self.spans,
            "hot": self.hot,
            "counts": self.counts,
            "cache": self.cache,
        }


def merge(parts):
    """Combine exports (one per forked child); span ids become unique by
    prefixing the part number."""
    out = {"spans": [], "hot": {}, "counts": {c: 0 for c in COUNTERS}, "cache": {}}
    for n, part in enumerate(parts):
        for op, sid, parent, *rest in part["spans"]:
            out["spans"].append([op, f"{n}.{sid}", f"{n}.{parent}" if parent else None, *rest])
        for name, (calls, secs) in part["hot"].items():
            acc = out["hot"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for name, amount in part["counts"].items():
            out["counts"][name] += amount
        for name, (hits, misses) in part["cache"].items():
            acc = out["cache"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return out


def layer_metrics(data, overhead_ratio):
    """The per-layer metrics of one traced pass."""
    self_s = {layer: 0.0 for layer in LAYERS}
    total, calls = {}, {}
    for _op, _sid, _parent, name, t0, t1, own in data["spans"]:
        layer = name.split(".")[0]
        if layer in self_s:
            self_s[layer] += own
        total[name] = total.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
    for name, (_n, secs) in data["hot"].items():
        self_s[name.split(".")[0]] += secs
    hot_calls = {name: n for name, (n, _s) in data["hot"].items()}
    hits, misses = data["cache"].get("groups.subgroup_conjugacy_classes", [0, 0])

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if name.startswith(layer + "."))

    m = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    m.update({k: (sum(total.get(n, 0.0) for n in names), "s") for k, names in INCLUSIVE.items()})
    m.update({k: (calls.get(name, 0), "count") for k, name in CALLS.items()})
    m.update({k: (v, "bytes" if k.endswith("bytes_in") or k.endswith("bytes_out") else "count")
              for k, v in data["counts"].items()})
    m["perm.products"] = (hot_calls.get("perm.Permutation.__mul__", 0), "count")
    m["perm.validated"] = (hot_calls.get("perm.Permutation.__init__", 0), "count")
    m["groups.tables_built"] = (hot_calls.get("groups.FiniteGroup.__init__", 0), "count")
    m["groups.subgroups_built"] = (hot_calls.get("groups.Subgroup.__init__", 0), "count")
    m["groups.lattices_built"] = (misses, "count")
    m["groups.lattice_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["trace_stats.calls"] = (layer_calls("trace_stats"), "count")
    m["stability.calls"] = (layer_calls("stability"), "count")
    m["tracing.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def write_spans(path, meta, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**meta, **data}, fh)
