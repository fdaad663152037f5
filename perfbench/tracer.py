"""Per-layer tracing from outside the program.

install() replaces every public function of the layer modules (graphs,
form, solver, hbounds, cli) with a wrapper, at every module binding that
holds it: hbounds imports compute_m2, betti and induced_subgraph by name
and form imports enumerate_cliques, so patching raagh.graphs alone would
miss those calls.  uninstall() puts the originals back.

Each wrapped call records a span (name, start, end, parent, graph id) in
memory.  rank_gf2 runs once per functional, hundreds of thousands of
times a pass, so it is only counted, keyed by the span it runs in; its
time stays in that span.  Pool workers are forked from the traced
process, so they count into an anonymous shared mapping, one slot per
fork, which the parent reads back.
"""

from __future__ import annotations

import functools
import inspect
import mmap
import os
import sys
import time
from collections import Counter

LAYERS = ("graphs", "form", "solver", "hbounds", "cli")
COUNTED_ONLY = frozenset({"form.rank_gf2"})
_FORK_SLOTS = 4096


def self_times(spans) -> dict:
    """name -> [calls, inclusive seconds, self seconds] for closed spans
    (name, start, end, parent index, graph id).  A span's self time is its
    duration minus the durations of its direct children, which lie inside
    it."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _gid in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, _gid) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []   # open spans: (index, name)
        self.graph_id: str | None = None
        self.counts: Counter = Counter()     # (counted name, enclosing span) -> calls
        self._patched: list[tuple[object, str, object]] = []
        self._active = False
        self._shared = mmap.mmap(-1, 8 * _FORK_SLOTS)
        self._fork_counts = memoryview(self._shared).cast("q")
        self._next_slot = 0
        self._slot = -1                       # set in a forked child
        self._slot_owner: dict[int, str] = {}   # fork slot -> enclosing span
        self._pending = -1
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._after_fork_child)

    # -- fork bookkeeping ------------------------------------------------

    def _before_fork(self):
        if not self._active:
            return
        if self._next_slot >= _FORK_SLOTS:
            raise RuntimeError("tracer ran out of fork slots")
        enclosing = self.stack[-1][1] if self.stack else ""
        self._slot_owner[self._next_slot] = enclosing
        self._pending = self._next_slot
        self._next_slot += 1

    def _after_fork_child(self):
        if self._active:
            self._slot = self._pending

    def _collect_forks(self):
        for slot, enclosing in self._slot_owner.items():
            calls = self._fork_counts[slot]
            if calls:
                self.counts[("form.rank_gf2", enclosing)] += calls
            self._fork_counts[slot] = 0
        self._slot_owner.clear()
        self._next_slot = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.graph_id)
        return wrapper

    def _counter(self, name, fn):
        counts, stack, forked = self.counts, self.stack, self._fork_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._slot >= 0:
                forked[self._slot] += 1
            else:
                counts[(name, stack[-1][1] if stack else "")] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package: str = "raagh"):
        """Wrap every public function of the layer modules at every binding
        in the package's modules."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                make = self._counter if name in COUNTED_ONLY else self._span
                wrappers[id(obj)] = (obj, make(name, obj))
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self._active = True

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        self._active = False

    def close(self):
        self.uninstall()
        self._fork_counts.release()
        self._shared.close()

    # -- per-pass results ----------------------------------------------------

    def take_pass(self):
        """(spans, counts) recorded since the last call, then reset.  Call
        between graphs, when no span is open."""
        self._collect_forks()
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts
