"""Pipeline span tracing: nested, monotonic-clock spans over the
specialize → render pipeline.

A :class:`Tracer` records *spans* — named intervals with attributes —
nested by a context-manager stack, so one ``repro trace`` session
reconstructs exactly where wall time went: parse/typecheck, each
specializer stage, codegen, and every loader/reader frame on either
backend.  The finished spans export to Chrome trace-event JSON
(:func:`repro.obs.export.to_chrome_trace`) and open directly in
``chrome://tracing`` / Perfetto as a flamegraph.

Tracing must never perturb the system it measures:

* all timings come from ``time.perf_counter`` (monotonic); the abstract
  :class:`~repro.runtime.interp.CostMeter` scale is untouched, so
  traced runs stay byte-identical to untraced ones (gated by
  ``tests/test_obs_parity.py``);
* when tracing is off, call sites hold the :data:`NULL_TRACER`
  singleton whose ``span()`` returns one shared, stateless no-op
  context manager — no allocation, no clock reads, no branches beyond
  the method call itself.  Hot per-pixel loops additionally guard on
  ``tracer.enabled`` so the disabled path stays within the <2%
  overhead budget.
"""

from __future__ import annotations

import os
import threading
import time

_REQUEST = threading.local()


def current_request_id():
    """The request/trace id bound to this thread, or None.

    Bound by :class:`request_context` at HTTP ingress (or by any other
    entry point that wants correlation); read by the tracer (every span
    opened while bound carries a ``trace`` attribute) and by the
    incident rings (``FaultLog``, ``SupervisorIncident``) so faults
    correlate with traces without threading an id through every call.
    """
    return getattr(_REQUEST, "rid", None)


class request_context(object):
    """Bind a request id to the current thread for the ``with`` body.

    Nestable and exception-safe: the previous binding (usually None) is
    restored on exit.  Thread-local, so concurrent daemon requests on
    different handler threads never see each other's ids.
    """

    __slots__ = ("rid", "_prev")

    def __init__(self, rid):
        self.rid = rid
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_REQUEST, "rid", None)
        _REQUEST.rid = self.rid
        return self.rid

    def __exit__(self, exc_type, exc, tb):
        _REQUEST.rid = self._prev
        return False


class Span(object):
    """One finished (or in-flight) named interval.

    ``start``/``end`` are seconds on the tracer's monotonic clock,
    relative to the tracer's epoch (its construction time), so spans
    from one tracer share a common timeline.
    """

    __slots__ = ("name", "sid", "parent", "depth", "start", "end",
                 "attrs", "pid", "tid", "_tracer")

    def __init__(self, tracer, name, sid, parent, depth, start, attrs,
                 pid=None, tid=None):
        self.name = name
        #: Span id, unique and monotonically increasing per tracer.
        self.sid = sid
        #: Parent span id (None for a root span).
        self.parent = parent
        self.depth = depth
        self.start = start
        self.end = None
        self.attrs = attrs
        #: OS process / thread the span ran on — real ids, remapped to
        #: stable small integers only at Chrome-trace export time.
        self.pid = pid
        self.tid = tid
        self._tracer = tracer

    @property
    def duration(self):
        """Elapsed seconds (None while the span is still open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attrs):
        """Attach/overwrite attributes on the span."""
        self.attrs.update(attrs)
        return self

    # -- context manager -----------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._finish(self, exc)
        return False

    def as_dict(self):
        return {
            "name": self.name,
            "sid": self.sid,
            "parent": self.parent,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    def __repr__(self):
        dur = self.duration
        return "Span(%s, %s)" % (
            self.name,
            "open" if dur is None else "%.6fs" % dur,
        )


class Tracer(object):
    """Records nested spans on a monotonic clock.

    ``clock`` is injectable for deterministic tests.  Spans are closed
    by exiting their context manager; mis-nested exits raise so a
    broken instrumentation site cannot silently corrupt the tree.

    One tracer may be shared across threads (the render service traces
    many concurrent sessions through one Observability): the nesting
    stack is thread-local, so each thread builds its own correct
    parent/depth chain, while span ids and the finished-spans list are
    lock-protected and remain globally consistent.
    """

    enabled = True

    def __init__(self, clock=None):
        self._clock = clock if clock is not None else time.perf_counter
        self.epoch = self._clock()
        #: Finished spans, in completion order.
        self.spans = []
        #: Process that owns this tracer (spans it opens directly).
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 0

    @property
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------------

    def span(self, name, **attrs):
        """Open a nested span; use as ``with tracer.span("x"): ...``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        rid = getattr(_REQUEST, "rid", None)
        if rid is not None and "trace" not in attrs:
            attrs["trace"] = rid
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        span = Span(
            self,
            name,
            sid,
            parent.sid if parent is not None else None,
            len(stack),
            self._clock() - self.epoch,
            attrs,
            pid=self.pid,
            tid=threading.get_ident(),
        )
        stack.append(span)
        return span

    def _finish(self, span, exc):
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                "span %r closed out of order (open: %r)"
                % (span.name, [s.name for s in stack])
            )
        stack.pop()
        span.end = self._clock() - self.epoch
        if exc is not None:
            span.attrs.setdefault("error", str(exc))
        with self._lock:
            self.spans.append(span)

    # -- inspection ----------------------------------------------------------

    def __len__(self):
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def roots(self):
        """Finished root (depth-0) spans, in completion order."""
        return [s for s in self.spans if s.parent is None]

    def total_seconds(self):
        """Wall seconds covered by root spans (children are contained
        in their parents, so roots alone measure coverage)."""
        return sum(s.duration for s in self.roots())

    def stage_totals(self):
        """``{span name: {"count", "total", "median"}}`` over finished
        spans — the per-stage timing summary ``repro trace`` prints and
        ``tests/test_trace_smoke.py`` checks."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span.duration)
        summary = {}
        for name, durations in by_name.items():
            durations.sort()
            mid = len(durations) // 2
            if len(durations) % 2:
                median = durations[mid]
            else:
                median = (durations[mid - 1] + durations[mid]) / 2.0
            summary[name] = {
                "count": len(durations),
                "total_seconds": sum(durations),
                "median_seconds": median,
            }
        return summary


class _NullSpan(object):
    """Shared, stateless stand-in for a span when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


_NULL_SPAN = _NullSpan()


class NullTracer(object):
    """The disabled tracer: every ``span()`` is the same no-op object."""

    enabled = False
    spans = ()

    __slots__ = ()

    def span(self, name, **attrs):
        return _NULL_SPAN

    def roots(self):
        return []

    def total_seconds(self):
        return 0.0

    def stage_totals(self):
        return {}

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())


#: Module-level singleton used wherever tracing is disabled.
NULL_TRACER = NullTracer()
