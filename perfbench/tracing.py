"""Outside-in tracer: spans around the package's layer functions.

The package is not edited.  `instrument` rebinds each traced function
in every `sombor.*` module that holds it by name, and wraps methods on
their classes, for the duration of a `with` block.  Spans stay in
memory as parallel arrays; self time is computed when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

# (span, module, attribute); an attribute "Class.method" wraps a method.
# Functions marked as iterators are timed at the call and then per next().
SPANS = (
    ("cli.main", "sombor.cli", "main"),
    ("degrees.normalize", "sombor.degrees", "DegreeSequence.normalize"),
    ("tree.init", "sombor.tree", "Tree.__init__"),
    ("tree.sombor", "sombor.tree", "Tree.sombor"),
    ("tree.canonical_form", "sombor.tree", "Tree.canonical_form"),
    ("tree.parse", "sombor.tree", "Tree.from_edge_list"),
    ("tree.parse", "sombor.tree", "Tree.from_json"),
    ("greedy.build", "sombor.greedy", "build_greedy_tree"),
    ("greedy.root", "sombor.greedy", "RootedTree.from_tree"),
    ("greedy.path_scan", "sombor.greedy", "iter_path_violations"),
    ("swaps.find", "sombor.swaps", "find_improving_swap"),
    ("swaps.apply", "sombor.swaps", "apply_swap"),
    ("swaps.local_search", "sombor.swaps", "local_search"),
    ("oracle.verify", "sombor.oracle", "verify_minimality"),
    ("oracle.enumerate", "sombor.oracle", "enumerate_trees"),
    ("oracle.prufer_decode", "sombor.oracle", "prufer_decode"),
    ("decompose.decompose", "sombor.decompose", "decompose"),
)
ITERATORS = {"greedy.path_scan", "oracle.enumerate"}
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
COUNTS = (
    "oracle.trees_scanned",
    "oracle.sweep.rows",
    "oracle.sweep.skipped",
    "decompose.steps",
)


class Tracer:
    """Spans and counters recorded in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.current_request = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    def inside(self, name: str) -> bool:
        """True while a span of this name is open."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._open)

    def wrap(self, name: str, fn, on_result=None):
        """fn with one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn, on_item=None):
        """fn returning an iterator: one span for the call, one per next()."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self.begin(name)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self.finish(idx)
            return self._timed(name, it, on_item)

        return traced

    def _timed(self, name, it, on_item):
        while True:
            idx = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.finish(idx)
            if on_item is not None:
                on_item(item)
            yield item

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Spans nest strictly (one thread, stack discipline), so a span's
        children never overlap and their durations simply add.
        """
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            out[self.names[self.name_id[i]]] += end[i] - start[i] - child[i]
        return out

    def write_spans(self, path) -> None:
        """All spans as gzip CSV: request, span, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("request,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.request[i]},{i},{self.parent[i]},"
                    f"{self.names[self.name_id[i]]},{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the package's layer functions inside the block, then restore them."""
    for _, module_name, _ in SPANS:
        importlib.import_module(module_name)
    modules = [m for k, m in sorted(sys.modules.items()) if k == "sombor" or k.startswith("sombor.")]
    undo: list[tuple[object, str, object]] = []

    def on_verify(report):
        tracer.counts["oracle.trees_scanned"] += report.labeled_count

    def on_enumerated(_tree):
        if not tracer.inside("oracle.verify"):
            tracer.counts["oracle.trees_scanned"] += 1

    def on_row(row):
        tracer.counts["oracle.sweep.rows"] += 1
        tracer.counts["oracle.sweep.skipped"] += row.report is None

    def on_decompose(steps):
        tracer.counts["decompose.steps"] += len(steps)

    result_hooks = {"oracle.verify": on_verify, "decompose.decompose": on_decompose}
    item_hooks = {"oracle.enumerate": on_enumerated}

    def rebind(original, replacement):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, replacement)

    try:
        for span, module_name, attribute in SPANS:
            module = importlib.import_module(module_name)
            cls_name, _, name = attribute.rpartition(".")
            if not cls_name:
                original = getattr(module, name)
                if span in ITERATORS:
                    replacement = tracer.wrap_iter(span, original, item_hooks.get(span))
                else:
                    replacement = tracer.wrap(span, original, result_hooks.get(span))
                rebind(original, replacement)
                continue
            cls = getattr(module, cls_name)
            raw = cls.__dict__[name]
            undo.append((cls, name, raw))
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(span, raw.__func__)))
            else:
                setattr(cls, name, tracer.wrap(span, raw))
        oracle = importlib.import_module("sombor.oracle")
        sweep = oracle.sweep_verify
        rebind(sweep, functools.wraps(sweep)(lambda *a, **k: _counted(sweep(*a, **k), on_row)))
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def _counted(it, on_item):
    for item in it:
        on_item(item)
        yield item
