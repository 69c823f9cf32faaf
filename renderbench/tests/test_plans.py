"""The seeded inputs: reproducible, and with the fixed composition the
workloads promise on every seed."""

from collections import Counter

from renderbench import animate, common, drag, serve


def test_drag_covers_every_partition_once_per_pass():
    drags = drag.plan(3)
    assert len(drags) == 131
    assert sorted((d.shader, d.param) for d in drags) == sorted(
        common.partitions()
    )
    assert all(len(d.values) == drag.ADJUSTS for d in drags)
    assert [(d.shader, d.param, d.values) for d in drag.plan(3)] == [
        (d.shader, d.param, d.values) for d in drags
    ]
    assert [(d.shader, d.param) for d in drag.plan(4)] != [
        (d.shader, d.param) for d in drags
    ]


def test_animate_frames_move_one_two_and_three_invariant_parameters():
    pairs = animate.plan(5)
    assert sorted((p.shader, p.param) for p in pairs) == sorted(
        common.partitions()
    )
    for pair in pairs:
        prior = common.controls_of(pair.shader)
        widths = []
        for frame in pair.frames:
            moved = {k for k in frame if frame[k] != prior[k]}
            assert pair.param not in moved
            assert 1 <= len(moved) <= 3
            widths.append(len(moved))
            prior = frame
        assert sorted(set(widths)) == [1, 2, 3]
        assert len(pair.frames) == animate.FRAMES


def test_serve_round_is_drag_blocks_closed_by_a_switch():
    rng, sessions = serve.sessions_for(7)
    assert sorted(s.shader for s in sessions) == list(range(1, 11))
    assert Counter(s.tenant for s in sessions) == {"alice": 5, "bob": 5}
    assert serve.DRAGS == drag.ADJUSTS
    dragged = {s.index: s.param for s in sessions}
    requests = serve.next_round(rng, sessions, 0, 7)
    kinds = Counter(r.kind for r in requests)
    assert len(requests) == 10 * serve.BLOCK
    assert kinds == {"drag": 10 * serve.DRAGS, "switch": 10}
    for session in sessions:
        block = [r for r in requests if r.session == session.index]
        assert [r.kind for r in block] == ["drag"] * serve.DRAGS + ["switch"]
        assert all(r.body["param"] == dragged[session.index]
                   for r in block[:-1])
        assert block[-1].body["param"] == session.param
        assert session.param != dragged[session.index]
    assert [r.due for r in requests] == sorted(r.due for r in requests)
    following = serve.next_round(rng, sessions, len(requests), 7)
    assert following[0].index == len(requests)
    assert following[0].due == 0.0
