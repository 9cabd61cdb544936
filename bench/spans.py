"""Spans and call counts around bpb4's layers, recorded from outside.

The tracer replaces the public names that each bpb4 module looks up at call
time (``bpb4.certify.convex_fix``, ``bpb4.fixes.l1_fix`` ...) with wrappers
and puts the originals back on ``uninstall``.  Nothing in the package
changes.  Records are kept in memory, keyed by the id of the operation
being measured, and only while an operation is open.

Two kinds of records:

- stage spans (name, start, end, parent) form a tree per operation; a
  stage's self time is its duration minus that of its child stages;
- primitive counters (calls and, if timed, inclusive seconds) for names
  such as ``norm`` that are called from many places and nest freely.

Times are process CPU seconds.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

clock = time.process_time


class Tracer:
    def __init__(self):
        self.spans = []  # (op, name, start, end, parent index or -1)
        self.counts = defaultdict(lambda: [0, 0.0])  # (op, name) -> [calls, s]
        self.op = None
        self._stack = []
        self._plan = []  # (module, attribute, wrapper factory)
        self._saved = []

    # -- what to wrap ----------------------------------------------------

    def stage(self, module, attr, name):
        self._plan.append((module, attr, lambda fn: self._span(fn, name)))

    def counter(self, module, attr, name, timed=True):
        self._plan.append((module, attr,
                           lambda fn: self._count(fn, name, timed)))

    def install(self):
        for module, attr, factory in self._plan:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, factory(fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (op, name, start, end, parent)

        return wrapper

    def _count(self, fn, name, timed):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if not timed:
                counts[op, name][0] += 1
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = counts[op, name]
                cell[0] += 1
                cell[1] += clock() - start

        return wrapper

    # -- reading -----------------------------------------------------------

    def totals(self, ops, scale):
        """Per-name sums over the given operations.

        Seconds recorded in operation ``op`` are multiplied by
        ``scale[op]``.  Returns {name: {"calls", "s", "self_s"}};
        ``self_s`` is only meaningful for stage spans.
        """
        ops = set(ops)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for op, name, start, end, parent in self.spans:
            if op not in ops:
                continue
            seconds = (end - start) * scale[op]
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += seconds
            entry["self_s"] += seconds
            if parent >= 0:
                out[self.spans[parent][1]]["self_s"] -= seconds
        for (op, name), (calls, seconds) in self.counts.items():
            if op in ops:
                out[name]["calls"] += calls
                out[name]["s"] += seconds * scale[op]
        return out
