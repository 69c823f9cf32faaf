"""Every runner an ``EditSession`` can build, against one oracle.

A drag's runner is picked once from its plan: the scalar or batch
backend, each plain, guarded, dispatch-table or guarded with a table,
plus the tiled batch runner.  Unsupervised, a frame is that runner
alone; supervised, it heads the degradation ladder.  Whatever the row,
colours must be byte-identical to the unspecialized shader and
``CostMeter`` totals must equal the plain scalar runner's (paper
Section 2: the reader/loader split changes cost, never the answer).
"""

import functools

import pytest

from repro.runtime import batch as B
from repro.runtime.supervise import SupervisorPolicy
from repro.shaders.render import RenderSession

#: shader -> (dragged param, invariant control moved by the delta frame)
DRAGS = {1: ("ka", "kd"), 3: ("veinfreq", "b1"), 9: ("brickw", "ka")}

#: row -> (session options, begin_edit options)
ROWS = {
    "scalar": ({"backend": "scalar"}, {}),
    "scalar+guard": ({"backend": "scalar", "guard": True}, {}),
    "scalar+dispatch": ({"backend": "scalar"}, {"dispatch": True}),
    "scalar+guard+dispatch": (
        {"backend": "scalar", "guard": True}, {"dispatch": True},
    ),
    "batch": ({"backend": "batch"}, {}),
    "batch+guard": ({"backend": "batch", "guard": True}, {}),
    "batch+dispatch": ({"backend": "batch"}, {"dispatch": True}),
    "batch+guard+dispatch": (
        {"backend": "batch", "guard": True}, {"dispatch": True},
    ),
    "batch+tiled": ({"backend": "batch", "tile": 16, "workers": 1}, {}),
}


def _bits(image):
    return image.colors.to_wire()["b64"]


def _drag(shader, row, supervised):
    """Load, adjust, then one incremental frame moving an invariant.
    Returns ``[(bits, total_cost, last_path, reference_bits)]``."""
    options, edit_options = ROWS[row]
    param, other = DRAGS[shader]
    session = RenderSession(
        shader, width=8, height=8, incremental=True,
        policy=SupervisorPolicy() if supervised else None, **options
    )
    try:
        edit = session.begin_edit(param, **edit_options)
        steps = [
            session.controls,
            session.controls_with(**{param: session.controls[param] * 1.3}),
            session.controls_with(**{
                param: session.controls[param] * 1.3,
                other: session.controls[other] * 0.7,
            }),
        ]
        frames = []
        for controls in steps:
            image = edit.frame(controls)
            reference = session.render_reference(
                controls, specialization=edit.specialization
            )
            frames.append((
                _bits(image), image.total_cost, edit.last_path,
                _bits(reference),
            ))
        if supervised:
            assert edit.last_rung == edit.runner.name
            assert session.supervisor.health()["exhausted"] == 0
        else:
            assert edit.last_rung is None
        return frames
    finally:
        session.close()


@functools.lru_cache(maxsize=None)
def _plain_scalar(shader, dispatch):
    row = "scalar+dispatch" if dispatch else "scalar"
    return _drag(shader, row, supervised=False)


@pytest.mark.parametrize("supervised", (False, True),
                         ids=("unsupervised", "supervised"))
@pytest.mark.parametrize("row", sorted(ROWS))
@pytest.mark.parametrize("shader", sorted(DRAGS))
def test_runner_matrix_parity(shader, row, supervised):
    if row.startswith("batch") and not B.HAVE_NUMPY:
        pytest.skip("the batch runners need NumPy")
    frames = _drag(shader, row, supervised)
    expected = _plain_scalar(shader, "dispatch" in row)
    for phase, got, want in zip(("load", "adjust", "delta"), frames,
                                expected):
        bits, total, path, reference = got
        assert bits == reference, (row, phase)
        assert total == want[1], (row, phase)
        assert path == want[2], (row, phase)
    assert expected[2][2] == "delta" or "dispatch" in row


# -- the step deadline holds on every runner ---------------------------------

#: Shader 9 at 4x4 under a 5-step deadline: every pixel blows it.
DEADLINE = 5


def _deadline_drag(backend, guard, dispatch):
    session = RenderSession(
        9, width=4, height=4, backend=backend, guard=guard,
        policy=SupervisorPolicy(deadline_steps=DEADLINE),
    )
    try:
        edit = session.begin_edit("brickw", dispatch=dispatch)
        assert (edit.table is not None) == dispatch
        images = [
            edit.frame(session.controls),
            edit.frame(session.controls_with(brickw=0.4)),
        ]
        return (
            [(_bits(image), image.total_cost) for image in images],
            edit.last_rung, session.supervisor.health(),
        )
    finally:
        session.close()


@pytest.mark.parametrize("dispatch", (False, True),
                         ids=("plain", "dispatch"))
@pytest.mark.parametrize("guard", (False, True), ids=("unguarded", "guard"))
@pytest.mark.parametrize("backend", ("scalar", "batch"))
def test_step_deadline_holds_on_every_runner(backend, guard, dispatch):
    """A specialized runner that blows the supervisor's step deadline
    never serves: unguarded, the frame degrades to the original;
    guarded, each blown pixel is contained, as the scalar guard does."""
    if backend == "batch" and not B.HAVE_NUMPY:
        pytest.skip("the batch runners need NumPy")
    frames, rung, health = _deadline_drag(backend, guard, dispatch)
    scalar_frames, _, scalar_health = _deadline_drag("scalar", guard,
                                                      dispatch)
    if guard:
        assert health["faults_contained"] > 0
        assert health["faults_contained"] == \
            scalar_health["faults_contained"]
    else:
        assert rung == "original"
        assert health["deadline_misses"] > 0
    assert frames == scalar_frames


def test_dispatch_runner_without_numpy(monkeypatch):
    """The row-at-a-time dispatch path keeps the deadline and the
    oracle too: its variant kernels carry the step budget."""
    from repro.runtime import compiler, vecops

    for module in (vecops, compiler, B):
        monkeypatch.setattr(module, "HAVE_NUMPY", False)
    frames, rung, health = _deadline_drag("batch", False, True)
    assert rung == "original"
    assert health["deadline_misses"] > 0
    assert frames == _deadline_drag("scalar", False, True)[0]
    for got, want in zip(_drag(9, "batch+dispatch", False),
                         _plain_scalar(9, True)):
        assert got[0] == got[3]
        assert got[1:3] == want[1:3]
