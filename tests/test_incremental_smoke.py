"""Incremental edits: delta refills vs full reloads (run with
``-m incsmoke``; deselected by default).

On the noise-heavy shaders, where loads dominate, the same
single-invariant-parameter edit runs through two identical drags — one
``incremental=True`` (the delta loader refills only the dirtied cache
slots), one reloading the whole cache.  Every frame pair must be
byte-identical and served by the delta path; then the delta refill
must beat the full load by ``MIN_INCREMENTAL_SPEEDUP`` in wall time
and cost fewer abstract steps.
"""

import time

import pytest

from repro.shaders.render import RenderSession

SIZE = 48
#: Best-of-N timing to damp scheduler noise.
REPEATS = 3
#: Required delta-refill advantage over a full cache load.
MIN_INCREMENTAL_SPEEDUP = 3.0


@pytest.mark.incsmoke
@pytest.mark.parametrize("shader,param", [(3, "veinfreq"), (5, "density")])
def test_delta_refill_beats_full_load(shader, param):
    full_session = RenderSession(shader, width=SIZE, height=SIZE)
    inc_session = RenderSession(shader, width=SIZE, height=SIZE,
                                incremental=True)
    full_edit = full_session.begin_edit(param)
    inc_edit = inc_session.begin_edit(param)
    full_edit.load(full_session.controls)
    inc_edit.load(inc_session.controls)

    # Edit the control parameter with the smallest non-empty dirty set:
    # the edit the delta path exists for.
    spec = inc_edit.specialization
    candidates = [
        (len(spec.dirty_slots({name})), name)
        for name in full_session.spec_info.control_params
        if name != param and spec.dirty_slots({name})
    ]
    assert candidates, "no control parameter dirties any cache slot"
    edited = min(candidates)[1]
    base = full_session.controls[edited]

    full_seconds = delta_seconds = float("inf")
    for step in range(REPEATS):
        controls = full_session.controls_with(
            **{edited: base * (1.2 + 0.2 * step) + 0.01}
        )
        start = time.perf_counter()
        full_frame = full_edit.load(controls)
        full_seconds = min(full_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        inc_frame = inc_edit.load(controls)
        delta_seconds = min(delta_seconds, time.perf_counter() - start)
        assert inc_edit._last_load_path == "delta", (
            "edit of %r took the %r path" % (edited, inc_edit._last_load_path)
        )
        assert inc_frame.colors == full_frame.colors, (
            "delta refill diverges from full load on %r" % edited
        )
    full_edit.close()
    inc_edit.close()

    assert full_frame.total_cost > inc_frame.total_cost
    speedup = full_seconds / delta_seconds
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        "delta refill only %.2fx a full load on edit of %r (need >= %.1fx)"
        % (speedup, edited, MIN_INCREMENTAL_SPEEDUP)
    )


@pytest.mark.incsmoke
def test_animation_workload():
    """Seeded sweep + orbit animation through the incremental path:
    byte parity with full reloads (asserted inside animate) and a
    cheaper total cost whenever any frame rode the delta path."""
    from repro.bench.animation import animate

    trace = animate(width=10, height=10, frames_per_segment=2, seed=3)
    counts = trace.path_counts()
    assert sum(counts.values()) == len(trace.frames)
    assert counts.get("delta", 0) > 0
    assert trace.total_cost < trace.total_full_cost
