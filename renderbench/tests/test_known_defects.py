"""Program defects the workloads leave out, because a workload must be
one on which no operation fails.  Each test states the behaviour the
program should have and is expected to fail until the program has it;
once one passes, the request kind it covers goes back into the
workload's mix."""

import numpy as np
import pytest


@pytest.mark.xfail(strict=True, reason=(
    "RenderService._render_locked runs adjust whenever the session is "
    "loaded, so a move of a non-dragged slider is answered from the "
    "current drag's cache; serve's mix leaves this request kind out"))
def test_daemon_answers_a_non_dragged_move_with_fresh_colours(tmp_path):
    from repro.serve.service import RenderService, ServiceConfig
    from repro.shaders.render import RenderSession

    service = RenderService(ServiceConfig(str(tmp_path / "store")))
    try:
        session = service.create_session("alice", 3, 16, 16)["session"]
        service.render(session, param="veinfreq")
        reply = service.render(session, controls={"b1": 0.9})
    finally:
        service.drain()
    reference = RenderSession(3, width=16, height=16)
    controls = dict(reference.controls, b1=0.9)
    want = reference.render_reference(controls).colors
    assert np.array_equal(np.asarray(reply["colors"]), np.asarray(want),
                          equal_nan=True)
