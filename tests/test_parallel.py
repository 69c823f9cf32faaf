"""Tiled frame scheduler: byte-identity, determinism, degradation.

The scheduler's contract is the batch backend's contract, sharded:
``workers=N, tile=T`` must produce byte-identical colors and exact
CostMeter totals versus the single-call whole-frame path, for every
shader, partition, and execution mode (plain, guarded, supervised).
"""

import os
import pickle

import pytest

from repro.lang import types as T
from repro.runtime import batch as batch_mod
from repro.runtime import parallel as P
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not batch_mod.HAVE_NUMPY, reason="NumPy unavailable"
)


def _params_of(index):
    params = SHADERS[index].control_params
    return sorted({params[0], params[-1]})


def _drag(session, edit, param):
    """One load + one adjust; returns both images."""
    loaded = edit.load(session.controls)
    dragged = session.controls_with(
        **{param: session.controls[param] * 1.3 + 0.05}
    )
    return loaded, edit.adjust(dragged)


def _assert_equal(a, b, what):
    assert a.colors == b.colors, "%s: colors differ" % what
    assert a.total_cost == b.total_cost, (
        "%s: cost %d != %d" % (what, a.total_cost, b.total_cost)
    )


# -- tile planning -----------------------------------------------------------


def test_plan_tiles_covers_exactly_once():
    for n, tile, width in [(0, 8, None), (1, 8, None), (100, 7, None),
                           (100, 7, 10), (256, 64, 16), (9, 100, 3),
                           (30, 4, 10)]:
        plan = P.plan_tiles(n, tile, width)
        lanes = [i for (s, e) in plan for i in range(s, e)]
        assert lanes == list(range(n)), (n, tile, width, plan)
        if width:
            for s, e in plan:
                assert s % width == 0
                assert e == n or e % width == 0


def test_plan_tiles_is_worker_independent():
    assert P.plan_tiles(1000, 64, 10) == P.plan_tiles(1000, 64, 10)


def test_resolve_workers_and_tile():
    assert P.resolve_workers(None) == 1
    assert P.resolve_workers(0) == 1
    assert P.resolve_workers(1) == 1
    assert P.resolve_workers(5) == 5
    assert P.resolve_workers("auto") >= 1
    with pytest.raises(ValueError):
        P.resolve_workers(-2)
    assert P.resolve_tile(None) == P.DEFAULT_TILE
    assert P.resolve_tile(7) == 7
    with pytest.raises(ValueError):
        P.resolve_tile(0)


def test_threads_spelling_is_rejected():
    """The fork/shm pool is the only pool: ``threads[:N]`` (and any
    other unknown spelling) is a bad spec naming the accepted ones."""
    for spec in ("threads", "threads:2", "fork:x", "fork:0", "bogus"):
        with pytest.raises(ValueError, match=r"'auto', or 'fork\[:N\]'"):
            P.resolve_workers(spec)
    with pytest.raises(ValueError):
        P.TileExecutor(workers="threads:2")
    with pytest.raises(ValueError):
        RenderSession(3, width=4, height=4, workers="threads:2")
    assert P.resolve_workers("fork:3") == 3
    assert P.resolve_workers("fork") == P.resolve_workers("auto")


def test_type_singletons_survive_pickling():
    """Annotated ASTs cross the worker-pool boundary; every consumer
    compares types with ``is``, so pickling must re-intern."""
    for ty in T.ALL_TYPES:
        assert pickle.loads(pickle.dumps(ty)) is ty


# -- byte-identity across every shader x partition ---------------------------


@requires_numpy
@pytest.mark.parametrize("index", sorted(SHADERS))
def test_workers_parity_all_shaders(index):
    """workers=2 with a tile smaller than the frame: every shader and
    partition stays byte-identical to the whole-frame run."""
    for param in _params_of(index):
        base = RenderSession(index, width=8, height=6, backend="batch")
        tiled = RenderSession(index, width=8, height=6, backend="batch",
                              workers=2, tile=16)
        load_a, adj_a = _drag(base, base.begin_edit(param), param)
        edit = tiled.begin_edit(param)
        load_b, adj_b = _drag(tiled, edit, param)
        _assert_equal(load_a, load_b, "shader %d %s load" % (index, param))
        _assert_equal(adj_a, adj_b, "shader %d %s adjust" % (index, param))
        stats = edit._executor.last_stats
        assert stats.tiles == 3  # 48 lanes / 16-lane (two-row) tiles


@requires_numpy
def test_worker_and_tile_sweep_byte_identical():
    """Assignment determinism: any workers x tile combination matches
    workers=1, including tiles that don't divide the frame."""
    index, param = 3, "veinfreq"
    base = RenderSession(index, width=10, height=5, backend="batch")
    ref_load, ref_adj = _drag(base, base.begin_edit(param), param)
    for workers, tile in [(1, 7), (2, 7), (3, 10), (4, 11), (2, 1000)]:
        session = RenderSession(index, width=10, height=5,
                                backend="batch", workers=workers, tile=tile)
        edit = session.begin_edit(param)
        load, adj = _drag(session, edit, param)
        what = "workers=%d tile=%d" % (workers, tile)
        _assert_equal(ref_load, load, what + " load")
        _assert_equal(ref_adj, adj, what + " adjust")


@requires_numpy
def test_guarded_parity_with_workers():
    """Guarded requests run whole-frame (the guard wraps per-pixel
    fallbacks), so the workers knob must be a byte-identical no-op."""
    session = RenderSession(4, width=6, height=6, backend="batch",
                            guard=True, workers=3, tile=8)
    base = RenderSession(4, width=6, height=6, backend="batch", guard=True)
    param = _params_of(4)[0]
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    load_b, adj_b = _drag(session, session.begin_edit(param), param)
    _assert_equal(load_a, load_b, "guarded load")
    _assert_equal(adj_a, adj_b, "guarded adjust")


@requires_numpy
def test_supervised_parity_with_workers():
    from repro.runtime.supervise import SupervisorPolicy

    policy = SupervisorPolicy(deadline_steps=10 ** 9)
    base = RenderSession(10, width=8, height=4, backend="batch",
                         policy=policy)
    tiled = RenderSession(10, width=8, height=4, backend="batch",
                          policy=SupervisorPolicy(deadline_steps=10 ** 9),
                          workers=2, tile=8)
    param = _params_of(10)[0]
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    edit = tiled.begin_edit(param)
    load_b, adj_b = _drag(tiled, edit, param)
    _assert_equal(load_a, load_b, "supervised load")
    _assert_equal(adj_a, adj_b, "supervised adjust")
    assert edit.last_rung == "batch"


@requires_numpy
def test_dispatch_table_parity_with_workers():
    """Dispatch-table drags stay whole-frame; workers must not change
    their output either."""
    base = RenderSession(6, width=6, height=4, backend="batch")
    tiled = RenderSession(6, width=6, height=4, backend="batch",
                          workers=2, tile=6)
    param = _params_of(6)[0]
    load_a, adj_a = _drag(base, base.begin_edit(param, dispatch=True), param)
    load_b, adj_b = _drag(tiled, tiled.begin_edit(param, dispatch=True),
                          param)
    _assert_equal(load_a, load_b, "dispatch load")
    _assert_equal(adj_a, adj_b, "dispatch adjust")


# -- the process pool itself -------------------------------------------------


@requires_numpy
def test_pool_engages_and_matches_serial():
    if not P._pool_available():
        pytest.skip("fork/shm pool unavailable")
    session = RenderSession(5, width=8, height=8, backend="batch")
    param = _params_of(5)[0]
    spec = session.specialize(param)
    columns = session.batch_args()
    n = len(session.scene)
    kernel = spec.batch_kernel("reader")
    cache = spec.new_batch_cache(n)
    loader = spec.batch_kernel("loader")
    serial = P.TileExecutor(workers=1, tile=16)
    pooled = P.TileExecutor(workers=3, tile=16)
    lv, lc = serial.run(loader, columns, n, frame_cache=cache,
                        layout=spec.layout, width=8)
    assert serial.last_stats.pooled is False
    cache2 = pooled.new_frame_cache(loader, spec.layout, n)
    pv, pc = pooled.run(loader, columns, n, frame_cache=cache2,
                        layout=spec.layout, width=8)
    assert pooled.last_stats.pooled is True
    assert lv == pv and lc.tolist() == pc.tolist()
    rv, rc = serial.run(kernel, columns, n, frame_cache=cache, width=8)
    qv, qc = pooled.run(kernel, columns, n, frame_cache=cache2, width=8)
    assert rv == qv and rc.tolist() == qc.tolist()


# -- per-tile deadlines ------------------------------------------------------


@requires_numpy
def test_unsupervised_tile_deadline_raises():
    from repro.lang.errors import DeadlineError

    session = RenderSession(3, width=6, height=4, backend="batch",
                            workers=1, tile=6)
    param = "veinfreq"
    spec = session.specialize(param)
    columns = session.batch_args()
    n = len(session.scene)
    executor = P.TileExecutor(workers=1, tile=6)
    kernel = spec.batch_kernel("loader", 5)
    cache = spec.new_batch_cache(n)
    with pytest.raises(DeadlineError) as exc:
        executor.run(kernel, columns, n, frame_cache=cache,
                     layout=spec.layout, width=6, cap=5)
    assert "tile 0" in str(exc.value)


@requires_numpy
def test_supervised_tile_degradation_serves_original():
    """A blown adjust tile degrades alone to the original shader; the
    supervisor counts it and the frame matches the original frame."""
    from repro.runtime.supervise import SupervisorPolicy

    policy = SupervisorPolicy(deadline_steps=10 ** 9)
    session = RenderSession(3, width=6, height=4, policy=policy,
                            backend="batch", workers=2, tile=6)
    param = "veinfreq"
    edit = session.begin_edit(param)
    edit.load(session.controls)
    controls = session.controls_with(veinfreq=3.0)
    columns = session.batch_args(controls)
    n = len(session.scene)
    colors, total = edit._adjust_batch_tiled(columns, n, 5, controls)
    stats = edit._executor.last_stats
    assert stats.degraded_tiles == stats.tiles > 0
    expect_colors, expect_total = edit._original_frame(controls)
    assert colors == expect_colors
    assert total == expect_total
    health = session.supervisor.health()
    assert health["tile_degradations"] == stats.tiles
    assert health["deadline_misses"] == stats.tiles
    causes = {i["cause"] for i in health["incidents"]}
    assert causes == {"tile_deadline"}


@requires_numpy
def test_tile_degradation_marks_request_bad_for_breaker():
    """note_tile_degradation flags the enclosing request as bad, so
    repeated per-tile misses trip the breaker like frame misses do."""
    from repro.runtime.supervise import (
        RenderSupervisor, SupervisorPolicy,
    )

    policy = SupervisorPolicy(deadline_steps=10 ** 9)
    supervisor = RenderSupervisor(policy)
    key = ("marble", "veinfreq")
    supervisor.note_tile_degradation(key, "adjust", 0, 0, 6, 999)
    assert supervisor._request_tile_misses == 1
    assert supervisor.tile_degradations == 1
    assert supervisor.deadline_misses == 1


# -- telemetry ---------------------------------------------------------------


@requires_numpy
def test_tile_spans_and_histogram():
    from repro.obs import Observability

    obs = Observability()
    session = RenderSession(3, width=6, height=4, backend="batch",
                            workers=1, tile=6, obs=obs)
    param = "veinfreq"
    edit = session.begin_edit(param)
    _drag(session, edit, param)
    tile_spans = [s for s in obs.tracer.spans if s.name == "render.tile"]
    assert len(tile_spans) == 8  # 4 tiles x (load + adjust)
    assert obs.registry.value(
        "repro_tiles_per_second", shader="marble", partition=param,
        phase="adjust",
    ) is not None


@requires_numpy
def test_cache_tile_splice_roundtrip():
    """SoACache.tile views + splice reassembly reproduce a loader-built
    frame cache column-for-column, including partial fill masks."""
    np = batch_mod._np
    session = RenderSession(2, width=4, height=4, backend="batch")
    param = _params_of(2)[0]
    edit = session.begin_edit(param)
    edit.load(session.controls)
    cache = edit.caches
    assert isinstance(cache, batch_mod.SoACache)
    rebuilt = batch_mod.SoACache(cache.layout, cache.n)
    for start, stop in P.plan_tiles(cache.n, 5):
        tile = cache.tile(start, stop)
        local = batch_mod.SoACache(cache.layout, stop - start)
        for k, column in enumerate(tile.columns):
            if column is None:
                continue
            local.columns[k] = (
                column.copy()
                if isinstance(column, np.ndarray) else list(column)
            )
            local.filled[k] = (
                tile.filled[k].copy()
                if isinstance(tile.filled[k], np.ndarray)
                else tile.filled[k]
            )
        rebuilt.splice(start, stop, local)
    for k in range(len(cache.layout)):
        a, b = cache.columns[k], rebuilt.columns[k]
        if a is None:
            assert b is None
            continue
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert list(a) == list(b)
        for lane in range(cache.n):
            assert cache.lane_filled(k, lane) == rebuilt.lane_filled(k, lane)


def test_cache_container_protocol():
    session = RenderSession(2, width=3, height=3)
    param = _params_of(2)[0]
    edit = session.begin_edit(param)
    edit.load(session.controls)
    assert len(edit.caches) == 9
    rows = list(edit.caches)
    assert len(rows) == 9
