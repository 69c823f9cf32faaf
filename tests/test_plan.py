"""The resolved execution plan: one value, resolved once, read everywhere.

``RenderSession`` resolves its execution keywords into an immutable
:class:`ExecutionPlan`; each drag derives its own plan from it once.
Combinations that cannot tile (guarded, dispatch-table, scalar) resolve
to an untiled plan instead of carrying a tile nothing reads, and those
drags run exactly the untiled drag.
"""

import dataclasses

import pytest

from repro.runtime import batch as B
from repro.runtime.faultinject import FaultInjector
from repro.runtime.plan import ExecutionPlan
from repro.serve import RenderService, ServiceConfig
from repro.shaders.render import RenderSession, ShaderInstallation

requires_numpy = pytest.mark.skipif(
    not B.HAVE_NUMPY, reason="NumPy unavailable"
)


@requires_numpy
@pytest.mark.parametrize("backend", ["batch", "scalar"])
@pytest.mark.parametrize("guard", [False, True])
@pytest.mark.parametrize("dispatch", [False, True])
def test_resolution_matrix(backend, guard, dispatch):
    """Every backend x guard x dispatch x tile combination resolves;
    only the plain batch path keeps its tile."""
    plain = backend == "batch" and not guard and not dispatch
    for tile, lanes in [(None, None), ("64", 64), (64.0, 64)]:
        plan = ExecutionPlan(backend=backend, guard=guard,
                             dispatch=dispatch, tile=tile)
        tiled = plain and lanes is not None
        assert plan.tiled is tiled
        assert plan.as_dict() == {
            "backend": backend, "guard": guard, "dispatch": dispatch,
            "tiled": tiled, "tile": lanes if tiled else None,
        }
        # Resolution is idempotent: re-resolving changes nothing.
        assert dataclasses.replace(plan) == plan


def test_backend_defaults_to_auto():
    assert ExecutionPlan().backend == B.resolve_backend("auto")


@pytest.mark.parametrize("knobs", [
    {"backend": "bogus"}, {"tile": "2.5"}, {"tile": -1},
    {"tile": 0}, {"tile": "x"},
    # A knob the combination ignores is still validated.
    {"backend": "scalar", "tile": 0}, {"guard": True, "tile": "x"},
    # Not lane counts: a bool, a fractional float.
    {"tile": True}, {"tile": 2.7},
])
def test_bad_knobs_raise(knobs):
    with pytest.raises(ValueError):
        ExecutionPlan(**knobs)


def test_plan_is_immutable():
    plan = ExecutionPlan(backend="batch", tile=16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.tile = 1
    session = RenderSession(3, width=4, height=4, backend="batch", tile=16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        session.plan.guard = True


@requires_numpy
def test_for_edit_guards_an_injected_drag():
    session = ExecutionPlan(backend="batch", tile=16)
    assert session.tiled
    for injector in (FaultInjector(seed=1, kernel_rate=0.5),
                     FaultInjector(seed=1, cache_rate=0.5)):
        plan = session.for_edit(injector=injector)
        assert plan.guard and not plan.tiled and plan.tile is None
        assert plan.injector is injector

    plan = session.for_edit(dispatch=True)
    assert plan.dispatch and not plan.tiled
    assert session.for_edit() == session


# -- drags that cannot tile run untiled -------------------------------------


def _frames(session, edit, param, controls_list):
    """The drag's frames, and the path each reload took."""
    images = [edit.load(session.controls)]
    paths = []
    for controls in controls_list:
        images.append(edit.load(controls))
        paths.append(edit.last_path)
        images.append(edit.adjust(
            dict(controls, **{param: controls[param] * 1.25})
        ))
    return images, paths


def _assert_same(a_images, b_images):
    for a, b in zip(a_images, b_images):
        assert a.colors == b.colors
        assert a.total_cost == b.total_cost


@requires_numpy
@pytest.mark.parametrize("index,param,knobs,dispatch", [
    (3, "veinfreq", {"guard": True}, False),
    (3, "veinfreq", {"guard": True, "incremental": True}, False),
    (9, "brickw", {}, True),
])
def test_untileable_drag_runs_untiled(index, param, knobs, dispatch):
    """A guarded or dispatch-table drag given a tile runs exactly the
    untiled drag: identical frames and costs — including a guarded
    incremental delta refill."""
    base = RenderSession(index, width=8, height=8, backend="batch", **knobs)
    tiled = RenderSession(index, width=8, height=8, backend="batch",
                          tile=16, **knobs)
    base_edit = base.begin_edit(param, dispatch=dispatch)
    edit = tiled.begin_edit(param, dispatch=dispatch)
    assert not edit.plan.tiled and edit.plan.tile is None
    assert (edit.table is not None) is dispatch
    other = [p for p in base.spec_info.control_params if p != param][0]
    edits = [base.controls_with(**{other: base.controls[other] * 1.2})]
    base_images, _ = _frames(base, base_edit, param, edits)
    images, paths = _frames(tiled, edit, param, edits)
    _assert_same(base_images, images)
    if knobs.get("incremental"):
        assert paths == ["delta"]


def test_installation_forwards_session_options():
    install = ShaderInstallation(3, width=4, height=4, compile_code=False,
                                 incremental=True)
    assert install.session.incremental
    assert install.edit("veinfreq").incremental


# -- the render service resolves its plan at construction -------------------


@pytest.mark.parametrize("knobs", [
    {"tile": 0}, {"tile": "2.5"}, {"backend": "bogus"},
])
def test_service_rejects_bad_plan_at_construction(tmp_path, knobs):
    with pytest.raises(ValueError):
        RenderService(ServiceConfig(str(tmp_path), **knobs), obs=False)
