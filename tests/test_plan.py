"""The resolved execution plan: one value, resolved once, read everywhere.

``RenderSession`` resolves its execution keywords into an immutable
:class:`ExecutionPlan`; each drag derives its own plan from it once.
Combinations that cannot tile (guarded, dispatch-table, scalar) resolve
to an untiled plan instead of carrying knobs nothing reads, and those
drags build no tiled executor and touch no shared memory.
"""

import dataclasses
import os
import threading

import pytest

from repro.runtime import batch as B
from repro.runtime import parallel as P
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
    """Every backend x guard x dispatch x workers x tile combination
    resolves; only the plain batch path keeps its pool knobs."""
    plain = backend == "batch" and not guard and not dispatch
    for workers, count in [(None, 1), (1, 1), (2, 2), ("fork:3", 3)]:
        for tile, lanes in [(None, None), ("64", 64)]:
            plan = ExecutionPlan(backend=backend, guard=guard,
                                 dispatch=dispatch, workers=workers,
                                 tile=tile)
            tiled = plain and (count > 1 or lanes is not None)
            runs = count if tiled else 1
            assert plan.tiled is tiled
            assert plan.as_dict() == {
                "backend": backend, "guard": guard, "dispatch": dispatch,
                "tiled": tiled, "workers": runs,
                "tile": (lanes or P.DEFAULT_TILE) if tiled else None,
                "transport": (
                    "shm" if runs > 1 and P._pool_available() else "serial"
                ),
            }
            # Resolution is idempotent: re-resolving changes nothing.
            assert dataclasses.replace(plan) == plan


def test_backend_defaults_to_auto():
    assert ExecutionPlan().backend == B.resolve_backend("auto")


@pytest.mark.parametrize("knobs", [
    {"backend": "bogus"}, {"workers": "threads:2"}, {"workers": -1},
    {"tile": 0}, {"tile": "x"},
    # A knob the combination ignores is still validated.
    {"backend": "scalar", "tile": 0}, {"guard": True, "workers": "x"},
])
def test_bad_knobs_raise(knobs):
    with pytest.raises(ValueError):
        ExecutionPlan(**knobs)


def test_plan_is_immutable():
    plan = ExecutionPlan(backend="batch", workers=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.workers = 1
    session = RenderSession(3, width=4, height=4, backend="batch",
                            workers=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        session.plan.guard = True


@requires_numpy
def test_for_edit_splits_the_injector():
    session = ExecutionPlan(backend="batch", workers=2)
    proc = FaultInjector(seed=1, proc_rate=0.5)
    kernel = FaultInjector(seed=1, kernel_rate=0.5)
    mixed = FaultInjector(seed=1, kernel_rate=0.5, proc_rate=0.5)

    plan = session.for_edit(injector=proc)
    assert plan.tiled and not plan.guard
    assert plan.pool_injector is proc and plan.guard_injector is None

    for injector in (kernel, mixed):
        plan = session.for_edit(injector=injector)
        assert plan.guard and not plan.tiled
        assert plan.guard_injector is injector
        assert plan.pool_injector is None

    plan = session.for_edit(dispatch=True)
    assert plan.dispatch and not plan.tiled
    assert session.for_edit() == session


# -- drags that cannot tile run untiled -------------------------------------


def _segments():
    """This process's live ``repro_shm_*`` segments (Linux only)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    prefix = "repro_shm_%d_" % os.getpid()
    return {f for f in os.listdir("/dev/shm") if f.startswith(prefix)}


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
def test_untileable_drag_builds_no_executor(index, param, knobs, dispatch):
    """A guarded or dispatch-table ``workers=2`` drag runs exactly the
    untiled drag: no executor, no shm segment, identical frames and
    costs — including a guarded incremental delta refill."""
    before = _segments()
    base = RenderSession(index, width=8, height=8, backend="batch", **knobs)
    pooled = RenderSession(index, width=8, height=8, backend="batch",
                           workers=2, tile=16, **knobs)
    base_edit = base.begin_edit(param, dispatch=dispatch)
    edit = pooled.begin_edit(param, dispatch=dispatch)
    assert edit.runner.executor is None
    assert not edit.plan.tiled and edit.plan.workers == 1
    assert (edit.table is not None) is dispatch
    other = [p for p in base.spec_info.control_params if p != param][0]
    edits = [base.controls_with(**{other: base.controls[other] * 1.2})]
    base_images, _ = _frames(base, base_edit, param, edits)
    images, paths = _frames(pooled, edit, param, edits)
    _assert_same(base_images, images)
    if knobs.get("incremental"):
        assert paths == ["delta"]
    assert _segments() <= before


def test_installation_forwards_session_options():
    install = ShaderInstallation(3, width=4, height=4, compile_code=False,
                                 incremental=True)
    assert install.session.incremental
    assert install.edit("veinfreq").incremental


# -- the render service resolves its plan at construction -------------------


@pytest.mark.parametrize("knobs", [
    {"tile": 0}, {"workers": "threads:2"}, {"backend": "bogus"},
])
def test_service_rejects_bad_plan_at_construction(tmp_path, knobs):
    with pytest.raises(ValueError):
        RenderService(ServiceConfig(str(tmp_path), **knobs), obs=False)


@requires_numpy
def test_service_pool_mutex_reads_the_plan(tmp_path):
    pooled = RenderService(
        ServiceConfig(str(tmp_path), backend="batch", workers=2),
        obs=False,
    )
    scalar = RenderService(
        ServiceConfig(str(tmp_path), backend="scalar", workers=2),
        obs=False,
    )
    try:
        assert pooled.plan.workers == 2 and pooled._pool_mutex is not None
        assert scalar.plan.workers == 1 and scalar._pool_mutex is None
    finally:
        pooled.drain()
        scalar.drain()


# -- frames at or below the pool's break-even run untiled -------------------


UNTILED = {"tiled": False, "workers": 1, "tile": None, "transport": "serial"}


def _pool_fields(plan):
    return {key: plan.as_dict()[key] for key in UNTILED}


@requires_numpy
@pytest.mark.parametrize("pixels", [64 * 64, P.POOL_MIN_PIXELS])
def test_small_frame_with_default_tile_is_untiled(pixels):
    plan = ExecutionPlan(backend="batch", workers=2, pixels=pixels)
    assert _pool_fields(plan) == UNTILED
    assert _pool_fields(plan.for_edit()) == UNTILED
    assert dataclasses.replace(plan) == plan


@requires_numpy
@pytest.mark.parametrize("pixels,tile,lanes", [
    (64 * 64, 16, 16),
    (P.POOL_MIN_PIXELS + 1, None, P.DEFAULT_TILE),
    (None, None, P.DEFAULT_TILE),
])
def test_explicit_tile_or_large_frame_still_tiles(pixels, tile, lanes):
    """An explicit tile tiles at any size; a frame above the constant
    (or a plan with no frame size) tiles with the default tile."""
    plan = ExecutionPlan(backend="batch", workers=2, tile=tile,
                         pixels=pixels)
    for resolved in (plan, plan.for_edit()):
        assert resolved.tiled
        assert (resolved.workers, resolved.tile) == (2, lanes)


@requires_numpy
def test_session_plan_reads_its_frame_size():
    session = RenderSession(3, width=8, height=8, backend="batch",
                            workers=2)
    try:
        assert session.plan.pixels == 64
        assert _pool_fields(session.plan) == UNTILED
        assert session.pool is None
        edit = session.begin_edit("veinfreq")
        assert edit.runner.executor is None
        assert _pool_fields(edit.plan) == UNTILED
    finally:
        session.close()


@requires_numpy
def test_untiled_session_does_not_take_the_pool_mutex(tmp_path):
    """A 64x64 session of a ``fork:2`` service renders while another
    thread holds the service's pool mutex."""
    service = RenderService(
        ServiceConfig(str(tmp_path), backend="batch", workers="fork:2"),
        obs=False,
    )
    try:
        sid = service.create_session("t", 3, 64, 64)["session"]
        replies = []
        with service._pool_mutex:
            worker = threading.Thread(
                target=lambda: replies.append(service.render(sid))
            )
            worker.start()
            worker.join(timeout=60.0)
            assert not worker.is_alive(), "render waited for the pool mutex"
        assert replies[0]["phase"] == "load"
    finally:
        service.drain()
