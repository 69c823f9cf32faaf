"""In-memory spans recorded by the benchmark around each call into a
layer of the program.

Every span carries the id of the operation it belongs to (one drag,
one animation frame, one request), its parent span, and monotonic
start/end times from :func:`time.perf_counter`.  Spans stay in memory
and are written out as JSON lines when the run ends.  The program's own
``repro.obs`` spans can be folded in under the benchmark span that
wrapped the call which produced them (:meth:`Recorder.adopt`).
"""

from __future__ import annotations

import json
import time


class Span(object):
    __slots__ = ("sid", "name", "op", "parent", "start", "end", "attrs",
                 "source")

    def __init__(self, sid, name, op, parent, start, attrs, source="bench"):
        self.sid = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = attrs
        #: ``"bench"`` for spans the benchmark opened, ``"program"`` for
        #: adopted ``repro.obs`` spans.
        self.source = source

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "sid": self.sid, "name": self.name, "op": self.op,
            "parent": self.parent, "start": self.start, "end": self.end,
            "source": self.source, "attrs": self.attrs,
        }


class _Open(object):
    __slots__ = ("recorder", "span")

    def __init__(self, recorder, span):
        self.recorder = recorder
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        if exc is not None:
            self.span.attrs["error"] = repr(exc)
        self.recorder._stack.pop()
        return False


class _NullOpen(object):
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_OPEN = _NullOpen()


class Recorder(object):
    """Span recorder for one single-threaded benchmark loop."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, op=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(
            len(self.spans), name, op,
            parent.sid if parent is not None else None,
            time.perf_counter(), attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        return _Open(self, span)

    def add(self, name, op, start, end, **attrs):
        """Record a span timed elsewhere (e.g. by a sender thread)."""
        span = Span(len(self.spans), name, op, None, start, attrs)
        span.end = end
        self.spans.append(span)
        return span

    def adopt(self, program_spans, epoch, under):
        """Fold finished ``repro.obs`` spans (times relative to their
        tracer's ``epoch``) into this recorder.  Program root spans
        become children of the innermost benchmark span below ``under``
        whose interval contains them; nested program spans keep their
        own parents."""
        candidates = [s for s in self._subtree(under) if s.end is not None]
        remap = {}
        for ps in sorted(program_spans, key=lambda s: s.sid):
            if ps.end is None:
                continue
            start = epoch + ps.start
            end = epoch + ps.end
            if ps.parent is not None and ps.parent in remap:
                parent = remap[ps.parent]
            else:
                parent = _innermost(candidates, start, end, under)
            span = Span(
                len(self.spans), ps.name, under.op, parent.sid, start,
                dict(ps.attrs), source="program",
            )
            span.end = end
            self.spans.append(span)
            remap[ps.sid] = span

    def _subtree(self, root):
        members = {root.sid}
        out = [root]
        for span in self.spans[root.sid + 1:]:
            if span.parent in members:
                members.add(span.sid)
                out.append(span)
        return out

    def named(self, name, source=None):
        return [
            s for s in self.spans
            if s.name == name and s.end is not None
            and (source is None or s.source == source)
        ]

    def write(self, path):
        own = self_times(self.spans)
        with open(path, "w") as out:
            for span in self.spans:
                row = span.as_dict()
                row["self"] = own.get(span.sid)
                out.write(json.dumps(row, sort_keys=True) + "\n")


class NullRecorder(object):
    """Tracing off: every span is the same no-op."""

    enabled = False
    spans = ()

    def span(self, name, op=None, **attrs):
        return _NULL_OPEN

    def adopt(self, program_spans, epoch, under):
        pass

    def named(self, name, source=None):
        return []


NULL_RECORDER = NullRecorder()


def _innermost(candidates, start, end, fallback):
    best = fallback
    for span in candidates:
        if span.start <= start and end <= span.end:
            if best is None or span.duration <= best.duration:
                best = span
    return best


def self_times(spans):
    """``{sid: self seconds}``: each span's duration minus the part of
    its interval covered by its direct children (overlapping children
    are merged, and child time outside the parent is ignored)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        if span.end is None:
            continue
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()),
                            key=lambda c: c.start):
            if child.end is None:
                continue
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = span.duration - covered
    return result
