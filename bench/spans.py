"""Span tracing from outside the program.

The tracer replaces module-level names through which one layer of
dexretarget calls the next with wrappers that record a span (name, start,
end, parent) per call.  Nothing inside the package is edited; ``remove``
puts every original back.  A name that no longer exists is noted as
absent instead of failing, so a refactor that drops a call site shows up
as a missing layer metric.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

pc = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.absent = set()
        self._patches = []     # (module, attr, name, before, after)
        self._undo = []

    # -- spans -----------------------------------------------------------
    def open(self, name):
        self.spans.append([name, pc(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = pc()

    def wrap(self, fn, name, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, result)
            return result
        return traced

    # -- patching --------------------------------------------------------
    def add(self, module, attr, name, before=None, after=None):
        """Register a module attribute to wrap whenever tracing is on."""
        if getattr(module, attr, None) is None:
            self.absent.add(name)
        else:
            self._patches.append((module, attr, name, before, after))

    def install(self):
        for module, attr, name, before, after in self._patches:
            fn = getattr(module, attr)
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, before, after))

    def remove(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def reset(self):
        self.spans, self.stack, self.counts = [], [], Counter()


def summarize(spans):
    """Per span name: count, inclusive and self seconds.

    Inclusive time counts only spans whose parent has another name, so a
    reader calling a reader is not counted twice; self time is a span's
    duration minus the time covered by its direct children.
    """
    child_time = defaultdict(float)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    count, incl, self_t = Counter(), defaultdict(float), defaultdict(float)
    for k, (name, t0, t1, parent) in enumerate(spans):
        count[name] += 1
        if parent < 0 or spans[parent][0] != name:
            incl[name] += t1 - t0
        self_t[name] += (t1 - t0) - child_time[k]
    return count, incl, self_t
