"""Span recording, adoption of program spans, and self time."""

from types import SimpleNamespace

from renderbench.spans import NULL_RECORDER, Recorder, Span, self_times


def _span(sid, parent, start, end):
    span = Span(sid, "s%d" % sid, 0, parent, start, {})
    span.end = end
    return span


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
             _span(2, 0, 4.0, 6.0)]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 2.0}


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
             _span(2, 0, 2.0, 5.0), _span(3, 0, 9.0, 12.0)]
    own = self_times(spans)
    # covered: [1, 5] and [9, 10] -> 5 of 10 seconds
    assert own[0] == 5.0


def test_self_time_counts_only_direct_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 8.0),
             _span(2, 1, 3.0, 7.0)]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 4.0}


def test_recorder_nests_and_inherits_op():
    rec = Recorder()
    with rec.span("drag", op=7) as root:
        with rec.span("load") as child:
            pass
    assert child.parent == root.sid
    assert child.op == 7
    assert root.end >= child.end >= child.start >= root.start


def test_adopt_places_program_roots_under_innermost_span():
    rec = Recorder()
    with rec.span("drag", op=1) as root:
        with rec.span("specialize") as inner:
            pass
    epoch = 100.0
    rel = lambda t: t - epoch  # noqa: E731
    program = [
        SimpleNamespace(sid=5, name="specialize.ssa", parent=4,
                        start=rel(inner.start + 1e-7),
                        end=rel(inner.end - 1e-7), attrs={}),
        SimpleNamespace(sid=4, name="specialize", parent=None,
                        start=rel(inner.start), end=rel(inner.end),
                        attrs={"k": 1}),
    ]
    rec.adopt(program, epoch, root)
    adopted = {s.name: s for s in rec.spans if s.source == "program"}
    assert adopted["specialize"].parent == inner.sid
    assert adopted["specialize.ssa"].parent == adopted["specialize"].sid
    assert adopted["specialize"].op == 1


def test_null_recorder_records_nothing():
    with NULL_RECORDER.span("x", op=1) as span:
        assert span is None
    assert NULL_RECORDER.named("x") == []
