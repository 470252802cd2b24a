"""
In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are opened by the benchmark
around each operation, and by wrappers that the benchmark puts on the public
names the layers call each other through.  Nothing inside the program is
edited: a wrapper replaces a module or class attribute for the length of the
traced run and is put back afterwards.  A wrapper records only inside an
operation, so the benchmark's own checks are not counted.  A name that no
longer exists is skipped, so its metric reads 0 instead of failing the run.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, on_result=None):
        """Record a span around every call of ``owner.attr`` until restore().

        ``on_result``, if given, is called with each result recorded.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            with self.span(name):
                out = original(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        self.patch(owner, attr, traced)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement`` until restore()."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def counting(self, fn, key):
        """``fn`` that adds one to ``counts[key]`` per call inside an operation (no span)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def total_ms(self, name):
        """Summed duration of every span called ``name``; 0 if none ran."""
        return 1e3 * sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_ms(self, select):
        """Summed self time of the spans whose name satisfies ``select``.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return 1e3 * sum(
            (s[2] - s[1]) - child_time[i]
            for i, s in enumerate(self.spans) if select(s[0])
        )
