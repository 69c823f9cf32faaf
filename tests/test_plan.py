"""The resolved execution plan: one value, resolved once, read everywhere.

``RenderSession`` resolves its execution keywords into an immutable
:class:`ExecutionPlan`; each drag derives its own plan from it once.
Combinations that cannot tile (guarded, dispatch-table, scalar) resolve
to an untiled plan instead of carrying knobs nothing reads, and those
drags build no tiled executor and touch no shared memory.
"""

import dataclasses
import os

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
    images = [edit.load(session.controls)]
    for controls in controls_list:
        images.append(edit.load(controls))
        images.append(edit.adjust(
            dict(controls, **{param: controls[param] * 1.25})
        ))
    return images


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
    assert edit._executor is None
    assert not edit.plan.tiled and edit.plan.workers == 1
    assert (edit.table is not None) is dispatch
    other = [p for p in base.spec_info.control_params if p != param][0]
    edits = [base.controls_with(**{other: base.controls[other] * 1.2})]
    _assert_same(
        _frames(base, base_edit, param, edits),
        _frames(pooled, edit, param, edits),
    )
    if knobs.get("incremental"):
        assert edit._last_load_path == "delta"
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
