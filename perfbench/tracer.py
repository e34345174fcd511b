"""In-memory span recorder for the benchmark's calls into viscobessel.

A span records its name, start and end (``time.perf_counter``), the index of
the span that was open when it started, the op it belongs to and free-form
attributes such as the number of points.  Spans stay in memory and are
reduced to per-layer metrics when the run ends.  ``NullTracer`` is what the
untraced run uses: its ``span`` hands back a shared no-op context manager.
"""

import contextlib
import time


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "attrs")

    def __init__(self, name, parent, op, attrs):
        self.name = name
        self.parent = parent
        self.op = op
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(name, parent, self.op, attrs)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()


class NullTracer:
    enabled = False
    spans = ()
    op = None
    _noop = contextlib.nullcontext()

    def span(self, name, **attrs):
        return self._noop
