"""In-memory spans around calls into qeuler, installed from outside.

Tracer.wrap replaces a module or object attribute with a wrapper that
records one span per call: name, start and end (perf_counter_ns) and the
index of the enclosing span. Code that looks the attribute up at call time
(a module global, a method of a click command) goes through the wrapper; a
name bound by `from ... import` before wrapping does not. Spans are kept in
one flat int64 array, four numbers a span, until write() is called.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._codes = {}
        self._spans = array("q")  # name code, start ns, end ns, parent span (-1: none)
        self._stack = [-1]
        self._installed = []

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, owner, attr, name):
        """Trace every call of owner.attr as a span called `name`."""
        fn = getattr(owner, attr)
        code = self._code(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            at = len(spans)
            spans.extend((code, 0, 0, stack[-1]))
            stack.append(at // 4)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[at + 2] = clock()
                spans[at + 1] = start
                stack.pop()

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def unwrap_all(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        spans, stack = self._spans, self._stack
        at = len(spans)
        spans.extend((self._code(name), 0, 0, stack[-1]))
        stack.append(at // 4)
        spans[at + 1] = time.perf_counter_ns()
        try:
            yield
        finally:
            spans[at + 2] = time.perf_counter_ns()
            stack.pop()

    def table(self) -> np.ndarray:
        """The spans as an (n, 4) int64 array."""
        # a copy: a live view would stop the array from growing
        return np.frombuffer(self._spans, dtype=np.int64).reshape(-1, 4).copy()

    def totals(self) -> dict:
        """name -> (calls, total ns, self ns), self = total minus direct children."""
        t = self.table()
        dur = t[:, 2] - t[:, 1]
        nested = t[:, 3] >= 0
        children = np.bincount(t[nested, 3], weights=dur[nested], minlength=len(t))
        own = dur - children
        n = len(self.names)
        calls = np.bincount(t[:, 0], minlength=n)
        total = np.bincount(t[:, 0], weights=dur, minlength=n)
        self_ns = np.bincount(t[:, 0], weights=own, minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(self_ns[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path, extra=None):
        """One JSON document; the span rows go out in chunks to bound memory."""
        head = {"names": self.names, "columns": ["name", "start_ns", "end_ns", "parent"]}
        head.update(extra or {})
        t = self.table()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1] + ', "spans": [')
            for at in range(0, len(t), 10_000):
                if at:
                    fh.write(",")
                fh.write(json.dumps(t[at : at + 10_000].tolist(), separators=(",", ":"))[1:-1])
            fh.write("]}")
