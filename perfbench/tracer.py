"""In-memory span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function of the package's layer
modules, both where it is defined and wherever another module imported it
by name (cli, qmodel, density, ...), plus `cli.main` and the
`BsgsTable` methods.  Per-multiplication entry points (`FieldElement`
operators, `RawOps`, `QueryCounter.mults`) are classes and stay unwrapped,
so a span never costs more than the work inside it.

Each span is (name, start_ns, end_ns, parent index, op index, work).
`work` is the size of the call's input where a throughput figure needs
it.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import json
import time

from expzeros import (arith, charsum, cli, density, fields, instances, qmodel,
                      reduction, solver)

LAYERS = (fields, arith, charsum, density, solver, qmodel, reduction,
          instances)
PATCHED_MODULES = LAYERS + (cli,)
CLASS_METHODS = ((arith, "BsgsTable", ("__init__", "lookup")),)


def _count_evals(eq, box, *args, **kwargs):
    return eq.q * sum(box.limits())


def _box_points(eq, box, *args, **kwargs):
    return box.card


WORK = {
    "charsum.count_via_charsum": _count_evals,
    "charsum.brute_count": _box_points,
    "density.sweep_b": _box_points,
}


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        work_of = WORK.get(name)

        def traced(*args, **kwargs):
            work = work_of(*args, **kwargs) if work_of else 0
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, work)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for module in LAYERS:
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{_layer(module)}.{name}", fn)
        wrappers[id(cli.main)] = self._wrap("cli.main", cli.main)
        for module in PATCHED_MODULES:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        for module, cls_name, methods in CLASS_METHODS:
            cls = getattr(module, cls_name)
            for meth in methods:
                self._patch(cls, meth, self._wrap(
                    f"{_layer(module)}.{cls_name}.{meth}",
                    getattr(cls, meth)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self):
        self.spans.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "work"], "spans": self.spans}, fh)


def summarize(spans):
    """Per span name: calls, inclusive ns, self ns, work; plus per-op
    inclusive ns by name.  Self time is a span's duration minus the
    duration of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name = {}
    per_op = {}
    for i, (name, start, end, _, op, work) in enumerate(spans):
        agg = by_name.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0,
                                        "work": 0})
        dur = end - start
        agg["calls"] += 1
        agg["ns"] += dur
        agg["self_ns"] += dur - child_ns[i]
        agg["work"] += work
        per_op.setdefault(name, {})
        per_op[name][op] = per_op[name].get(op, 0) + dur
    return by_name, per_op
