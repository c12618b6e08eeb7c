"""Run one gwhurwitz command with timing wrappers on every layer.

Usage: python3 bench/trace_shim.py SPAN_FILE CLI_ARG...

The package is imported unchanged from the source tree, then a span-recording
wrapper is installed on each public function and method of the layer modules
(plus the few private entry points that per-layer metrics name), and bound
again at every module attribute that referred to the original, so that names
imported with `from .x import f` are traced too.  Spans stay in memory
(parallel arrays: name id, parent index, start, end) and are written to
SPAN_FILE when the command ends; `bench/layers.py` reads them.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time

LAYERS = ("qseries", "partitions", "characters", "fock", "hurwitz", "gwh", "cli")

# Dunder methods that are part of a class's public arithmetic surface.
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__pow__", "__neg__"}

# Private names that per-layer metrics need.
PRIVATE = {"fock._a_family", "characters._build_table", "cli._emit",
           "hurwitz._GroupContext.__init__",
           "hurwitz._GroupContext.commutator_distribution"}


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters = {"mul_term_products": 0, "state_terms_max": 0,
                         "table_cells": 0, "table_loads": 0, "table_hits": 0}

    def wrap(self, fn, label: str, hook=None):
        if label not in self.name_id:
            self.name_id[label] = len(self.names)
            self.names.append(label)
        nid = self.name_id[label]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def write(self, path: str, extra: dict) -> None:
        header = {"names": self.names, "n": len(self.name),
                  "counters": self.counters, **extra}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)


def _hooks(rec: Recorder, modules: dict) -> dict:
    series_cls = modules["qseries"].MultiSeries
    state_cls = modules["fock"].FockState
    c = rec.counters

    def mul(args, result):
        if len(args) == 2 and isinstance(args[1], series_cls):
            c["mul_term_products"] += len(args[0].coeffs) * len(args[1].coeffs)

    def state(args, result):
        if isinstance(result, state_cls) and len(result.terms) > c["state_terms_max"]:
            c["state_terms_max"] = len(result.terms)

    def table(args, result):
        c["table_cells"] += len(result.partitions) ** 2

    def load(args, result):
        c["table_loads"] += 1
        c["table_hits"] += result is not None

    hooks = {"qseries.MultiSeries.__mul__": mul,
             "characters._build_table": table,
             "cli.load_cached_table": load}
    for name in vars(modules["fock"]):
        if name.startswith("apply_"):
            hooks[f"fock.{name}"] = state
    return hooks


def _wanted(label: str) -> bool:
    if label in PRIVATE:
        return True
    *owners, last = label.split(".")[1:]
    return (not any(o.startswith("_") for o in owners)
            and (last in DUNDERS or not last.startswith("_")))


def install(rec: Recorder, package) -> None:
    """Wrap every traced callable and rebind it wherever it is referenced."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    hooks = _hooks(rec, modules)
    replaced: dict[int, object] = {}

    def wrap_function(fn, label):
        if id(fn) not in replaced:
            replaced[id(fn)] = rec.wrap(fn, label, hooks.get(label))
        return replaced[id(fn)]

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            label = f"{layer}.{name}"
            if isinstance(obj, type):
                for attr, member in list(vars(obj).items()):
                    mlabel = f"{label}.{attr}"
                    if not _wanted(mlabel):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        kind = type(member)
                        setattr(obj, attr, kind(wrap_function(member.__func__, mlabel)))
                    elif callable(member) and not isinstance(member, type):
                        setattr(obj, attr, wrap_function(member, mlabel))
            elif hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"):
                # An lru_cache: trace the cached computation, i.e. misses only.
                if _wanted(label):
                    inner = wrap_function(obj.__wrapped__, label)
                    replaced[id(obj)] = functools.lru_cache(maxsize=None)(inner)
            elif callable(obj) and _wanted(label):
                wrap_function(obj, label)

    for mod in [package, *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gwhurwitz
    from gwhurwitz import cli
    import_s = time.perf_counter() - t0
    rec = Recorder()
    install(rec, gwhurwitz)
    try:
        code = cli.main(argv)
    finally:
        rec.write(span_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
