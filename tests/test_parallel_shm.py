"""Zero-copy shared-memory tile transport: parity, reuse, hygiene.

The shm transport's contract is the tiled scheduler's contract with the
pickling removed: pooled workers write loader/reader results straight
into arena-backed columns, so every frame must stay byte-identical to
the serial path while only tile descriptors cross the pipe.  These
tests pin that contract plus the lifecycle rules around it: warm
workers reuse installed kernels across frames, diverged caches,
non-vectorized kernels and no-NumPy sessions run serially in-process
instead of touching the arena, degraded tiles splice correctly over
shared columns, and no ``/dev/shm`` segment outlives its owners.
"""

import gc
import os

import pytest

from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not B.HAVE_NUMPY, reason="NumPy unavailable"
)
requires_shm = pytest.mark.skipif(
    not (B.HAVE_NUMPY and B.HAVE_SHM), reason="shared memory unavailable"
)
requires_fork = pytest.mark.skipif(
    not P._fork_available(), reason="fork start method unavailable"
)


def _params_of(index):
    params = SHADERS[index].control_params
    return sorted({params[0], params[-1]})


def _drag(session, edit, param):
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


def _shm_segments():
    """Names of this package's live /dev/shm segments (Linux only; on
    other platforms the weaker shm_resident_bytes check still runs)."""
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith("repro_shm_")}
    except OSError:
        return set()


# -- the arena itself --------------------------------------------------------


@requires_shm
def test_arena_roundtrip_and_release():
    np = B._np
    arena = B.ShmArena.create([
        ("a", "float64", (6,)),
        ("b", "int64", (4, 3)),
    ])
    try:
        arena.column("a")[:] = np.arange(6.0)
        arena.column("b")[...] = 7
        desc = arena.descriptor()
        assert desc["segment"] == arena.descriptor()["segment"]
        attached = B.ShmArena.attach(desc)
        try:
            assert np.array_equal(attached.column("a"), np.arange(6.0))
            assert attached.column("b").shape == (4, 3)
            # Writes through the attachment land in the owner's views
            # (the whole point of the transport).
            attached.column("a")[0] = 42.0
            assert arena.column("a")[0] == 42.0
        finally:
            attached.release()
        assert arena.alive
    finally:
        arena.release()
    assert not arena.alive


@requires_shm
def test_arena_columns_are_aligned_views():
    arena = B.ShmArena.create([
        ("x", "bool", (3,)),
        ("y", "float64", (5,)),
    ])
    try:
        # Each column starts on a 64-byte boundary so NumPy never sees
        # a misaligned float plane after a bool plane.
        for key in ("x", "y"):
            offset = arena._placed[key][0]
            assert offset % 64 == 0
    finally:
        arena.release()


@requires_shm
def test_shm_cache_lifecycle_frees_segment():
    session = RenderSession(3, width=6, height=4, backend="batch")
    spec = session.specialize("veinfreq")
    before = _shm_segments()
    resident = B.shm_resident_bytes()
    cache = B.ShmSoACache.allocate(spec.layout, 24)
    assert cache.arena.alive
    assert B.shm_resident_bytes() > resident
    created = _shm_segments() - before
    assert len(created) == 1
    del cache
    gc.collect()
    assert B.shm_resident_bytes() == resident
    assert not (_shm_segments() & created)


# -- byte-identity sweep: shaders x partitions x transports ------------------


@requires_numpy
@pytest.mark.parametrize("index", sorted(SHADERS))
def test_transport_parity_all_shaders(index):
    """Every shader and partition is byte-identical across the serial
    and fork (shm) transports, load and adjust both."""
    for param in _params_of(index):
        base = RenderSession(index, width=8, height=6, backend="batch")
        load_a, adj_a = _drag(base, base.begin_edit(param), param)
        specs = [(1, "serial")]
        if P._fork_available():
            specs.append(("fork:2", "fork"))
        for workers, family in specs:
            session = RenderSession(index, width=8, height=6,
                                    backend="batch", workers=workers,
                                    tile=16)
            edit = session.begin_edit(param)
            load_b, adj_b = _drag(session, edit, param)
            what = "shader %d %s %s" % (index, param, family)
            _assert_equal(load_a, load_b, what + " load")
            _assert_equal(adj_a, adj_b, what + " adjust")
            stats = edit.runner.executor.last_stats
            if family == "fork" and B.HAVE_SHM:
                assert stats.transport == "shm", what
            elif family == "serial":
                assert stats.transport == "serial", what


@requires_numpy
def test_guarded_and_supervised_parity_per_transport():
    from repro.runtime.supervise import SupervisorPolicy

    param = _params_of(4)[0]
    specs = ["fork:2"] if P._fork_available() else []
    # Guarded requests run whole-frame; the workers knob must be a
    # byte-identical no-op.
    base = RenderSession(4, width=6, height=6, backend="batch", guard=True)
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    for workers in specs:
        tiled = RenderSession(4, width=6, height=6, backend="batch",
                              guard=True, workers=workers, tile=8)
        load_b, adj_b = _drag(tiled, tiled.begin_edit(param), param)
        _assert_equal(load_a, load_b, "guarded %s load" % workers)
        _assert_equal(adj_a, adj_b, "guarded %s adjust" % workers)
    # Supervised requests do tile out; the pool must match the
    # unsupervised whole-frame result on a healthy frame.
    sparam = _params_of(10)[0]
    sbase = RenderSession(10, width=8, height=4, backend="batch")
    load_a, adj_a = _drag(sbase, sbase.begin_edit(sparam), sparam)
    for workers in specs:
        policy = SupervisorPolicy(deadline_steps=10 ** 9)
        tiled = RenderSession(10, width=8, height=4, backend="batch",
                              policy=policy, workers=workers, tile=8)
        edit = tiled.begin_edit(sparam)
        load_b, adj_b = _drag(tiled, edit, sparam)
        _assert_equal(load_a, load_b, "supervised %s load" % workers)
        _assert_equal(adj_a, adj_b, "supervised %s adjust" % workers)
        assert edit.last_rung == "batch"


# -- warm workers ------------------------------------------------------------


@requires_numpy
@requires_fork
def test_warm_worker_reuse_across_frames():
    """The first pooled frame ships kernel specs (misses); repeats of
    the same kernels reuse the installed copies (hits, no spec)."""
    session = RenderSession(3, width=8, height=6, backend="batch",
                            workers=2, tile=12)
    edit = session.begin_edit("veinfreq")
    edit.load(session.controls)
    stats = edit.runner.executor.last_stats
    assert stats.pooled
    assert stats.warm_misses > 0
    assert stats.warm_hits == 0
    hits = misses = 0
    for step in (1.1, 1.2, 1.3):
        dragged = session.controls_with(
            veinfreq=session.controls["veinfreq"] * step
        )
        edit.adjust(dragged)
        stats = edit.runner.executor.last_stats
        if step == 1.1:
            # First adjust installs the reader kernel.
            assert stats.warm_misses > 0
        hits += stats.warm_hits
        misses += stats.warm_misses
    assert hits > 0
    # Only the first adjust frame may miss; later frames are all warm.
    assert misses <= stats.workers


# -- divergence runs serially (never corrupts the arena) ---------------------


@requires_numpy
@requires_fork
@requires_shm
def test_diverged_cache_runs_serial():
    """Rebinding a cache column after load (guarded repair, demotion,
    manual edit) must demote the adjust to the serial transport and
    stay byte-identical."""
    base = RenderSession(3, width=8, height=6, backend="batch")
    ref_load, ref_adj = _drag(base, base.begin_edit("veinfreq"),
                              "veinfreq")
    session = RenderSession(3, width=8, height=6, backend="batch",
                            workers=2, tile=12)
    edit = session.begin_edit("veinfreq")
    loaded = edit.load(session.controls)
    _assert_equal(ref_load, loaded, "load")
    assert edit.runner.executor.last_stats.transport == "shm"
    cache = edit.caches
    assert isinstance(cache, B.ShmSoACache)
    rebound = None
    for k, column in enumerate(cache.columns):
        if column is not None:
            cache.columns[k] = column.copy()
            rebound = k
            break
    assert rebound is not None
    assert P._shm_cache_states(cache) is None
    dragged = session.controls_with(
        veinfreq=session.controls["veinfreq"] * 1.3 + 0.05
    )
    adjusted = edit.adjust(dragged)
    _assert_equal(ref_adj, adjusted, "adjust after divergence")
    assert edit.runner.executor.last_stats.transport == "serial"


@requires_numpy
@requires_fork
@requires_shm
def test_fault_injected_cache_is_detected_as_diverged():
    """A seeded cache-corruption storm demotes columns to lists; the
    eligibility probe must refuse the arena rather than let workers
    read stale planes."""
    from repro.runtime.faultinject import FaultInjector

    session = RenderSession(3, width=6, height=4, backend="batch",
                            workers=2, tile=6)
    edit = session.begin_edit("veinfreq")
    edit.load(session.controls)
    cache = edit.caches
    assert isinstance(cache, B.ShmSoACache)
    assert P._shm_cache_states(cache) is not None
    injector = FaultInjector(seed=13, cache_rate=0.3, modes=("clear",))
    assert injector.corrupt_caches(cache) > 0
    assert P._shm_cache_states(cache) is None


# -- serial fallbacks touch neither the arena nor the breaker ----------------


def _assert_serial_drag_matches_untiled(workers, param="veinfreq"):
    """A tiled drag of shader 3 that must run serially: byte-identical
    to the untiled drag, and no shared-memory segment is created."""
    base = RenderSession(3, width=8, height=6, backend="batch")
    ref_load, ref_adj = _drag(base, base.begin_edit(param), param)
    before = _shm_segments()
    resident = B.shm_resident_bytes()
    session = RenderSession(3, width=8, height=6, backend="batch",
                            workers=workers, tile=12)
    edit = session.begin_edit(param)
    try:
        loaded = edit.load(session.controls)
        assert edit.runner.executor.last_stats.transport == "serial"
        assert edit.runner.executor.last_stats.tiles > 1
        dragged = session.controls_with(
            **{param: session.controls[param] * 1.3 + 0.05}
        )
        adjusted = edit.adjust(dragged)
        assert edit.runner.executor.last_stats.transport == "serial"
        _assert_equal(ref_load, loaded, "%s load" % workers)
        _assert_equal(ref_adj, adjusted, "%s adjust" % workers)
        assert not isinstance(edit.caches, B.ShmSoACache)
        assert _shm_segments() == before
        assert B.shm_resident_bytes() == resident
    finally:
        edit.close()


@requires_numpy
def test_non_vectorized_kernel_runs_serial(monkeypatch):
    """A kernel that cannot vectorize never reaches the fork pool."""
    def refuse(fn):
        raise B.BatchCompileError("per-row fallback forced by the test")

    monkeypatch.setattr(B, "compile_batch_function", refuse)
    spec = RenderSession(3, width=4, height=4,
                         backend="batch").specialize("veinfreq")
    assert not spec.batch_kernel("loader").vectorized
    _assert_serial_drag_matches_untiled("fork:2")


def test_no_numpy_session_runs_serial(monkeypatch):
    """Without NumPy the per-row fallback runs its tiles in-process."""
    from repro.runtime import compiler as compiler_mod
    from repro.runtime import vecops as vecops_mod

    monkeypatch.setattr(vecops_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(compiler_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(B, "HAVE_NUMPY", False)
    _assert_serial_drag_matches_untiled(2)


@requires_numpy
@requires_fork
@requires_shm
def test_serial_fallback_leaves_half_open_breaker_alone():
    """Only shm-eligible runs count as pool-breaker time: a run that
    falls back to serial for its own reasons (here a diverged cache)
    while the breaker is half-open neither advances its request count
    nor closes it."""
    session = RenderSession(3, width=8, height=6, backend="batch",
                            workers=2, tile=12)
    edit = session.begin_edit("veinfreq")
    breaker = session.pool.breaker
    try:
        edit.load(session.controls)
        assert edit.runner.executor.last_stats.transport == "shm"
        cache = edit.caches
        k = next(k for k, c in enumerate(cache.columns) if c is not None)
        cache.columns[k] = cache.columns[k].copy()
        breaker.trip()
        breaker.state = "half_open"
        before = breaker.as_dict()
        edit.adjust(session.controls_with(
            veinfreq=session.controls["veinfreq"] * 1.3 + 0.05
        ))
        stats = edit.runner.executor.last_stats
        assert stats.transport == "serial"
        assert not stats.breaker_open
        assert breaker.as_dict() == before
    finally:
        session.close()


# -- serial loaders keep the shm frame cache backed --------------------------


@requires_shm
def test_shm_splice_writes_arena_planes():
    """Splicing tiles into an shm frame cache writes the arena planes
    in place; lanes no tile reached (a degraded tile) read as zeros
    with False masks, and a mismatched tile column takes the plain
    SoACache path (the column diverges from the arena)."""
    np = B._np
    session = RenderSession(3, width=6, height=4, backend="batch")
    edit = session.begin_edit("veinfreq")
    edit.load(session.controls)
    source = edit.caches
    cache = B.ShmSoACache.allocate(source.layout, source.n)
    try:
        cache.arena.column("col0")[...] = 7  # stale bytes get cleared
        for start, stop in ((8, 16), (16, 24)):  # lanes 0:8 degraded
            tile = source.tile(start, stop)
            tile.columns = [
                None if c is None else np.array(c) for c in tile.columns
            ]
            cache.splice(start, stop, tile)
        for k, column in enumerate(source.columns):
            if column is None:
                assert cache.columns[k] is None
                continue
            plane = cache.arena.column("col%d" % k)
            assert cache.columns[k] is plane
            assert not plane[:8].any()
            assert not cache.arena.column("mask%d" % k)[:8].any()
            assert np.array_equal(plane[8:], column[8:])
            assert cache.filled[k] is cache.arena.column("mask%d" % k)
        assert P._shm_cache_states(cache) is not None

    finally:
        cache.arena.release()

    fresh = B.ShmSoACache.allocate(source.layout, source.n)
    try:
        k = next(k for k, c in enumerate(source.columns) if c is not None)
        odd = B.SoACache(source.layout, 8)
        odd.columns[k] = np.asarray(source.columns[k][:8], dtype=np.float32)
        fresh.splice(0, 8, odd)
        assert fresh.columns[k] is not fresh.arena.column("col%d" % k)
        assert P._shm_cache_states(fresh) is None
    finally:
        fresh.arena.release()


def _force_serial_load(cause, edit, monkeypatch):
    """Make the next tiled load of ``edit`` miss the pool: an open
    breaker, a quarantined loader kernel, or (``pipe``) one tile whose
    results come back over the pipe inside an otherwise pooled run."""
    pool = edit.runner.executor.pool
    if cause == "breaker":
        pool.breaker.trip()
        pool.breaker.probe_at = 10 ** 9
    elif cause == "quarantine":
        loader = edit.specialization.batch_kernel("loader")
        pool.quarantine[edit.runner.executor._token_for(loader)] = "loader"
    else:
        store = P._store_tile

        def pipe_first_tile(frame, values_buf, costs_buf, loader,
                            tile_index, start, stop, values, lane_costs,
                            tile_cache):
            if loader and tile_index == 0:
                return (tile_index, "pipe", (values, lane_costs, tile_cache))
            return store(frame, values_buf, costs_buf, loader, tile_index,
                         start, stop, values, lane_costs, tile_cache)

        # Workers fork after the patch, so they inherit it too.
        monkeypatch.setattr(P, "_store_tile", pipe_first_tile)


@requires_numpy
@requires_fork
@requires_shm
@pytest.mark.parametrize("cause", ["breaker", "quarantine", "pipe"])
def test_serial_loader_keeps_shm_cache_pooled(cause, monkeypatch):
    """A loader that runs (some of) its tiles outside the pool on an
    shm frame cache splices them into the arena planes, so the cache
    stays arena-backed and the drag's adjusts go back to the pool as
    soon as it is usable — with frames and costs byte-identical to the
    untiled drag, and no segment left behind."""
    param = "veinfreq"
    base = RenderSession(3, width=16, height=16, backend="batch")
    ref_load, ref_adj = _drag(base, base.begin_edit(param), param)
    before = _shm_segments()
    session = RenderSession(3, width=16, height=16, backend="batch",
                            workers=2, tile=64)
    edit = session.begin_edit(param)
    try:
        _force_serial_load(cause, edit, monkeypatch)
        loaded = edit.load(session.controls)
        stats = edit.runner.executor.last_stats
        if cause == "breaker":
            assert stats.breaker_open and not stats.pooled
        elif cause == "quarantine":
            assert stats.quarantined and not stats.pooled
        else:
            assert stats.pooled
        assert isinstance(edit.caches, B.ShmSoACache)
        assert P._shm_cache_states(edit.caches) is not None
        if cause == "breaker":
            session.pool.breaker.probe_at = 0  # probe on the next run
        adjusted = edit.adjust(session.controls_with(
            **{param: session.controls[param] * 1.3 + 0.05}
        ))
        assert edit.runner.executor.last_stats.pooled
        _assert_equal(ref_load, loaded, "%s load" % cause)
        _assert_equal(ref_adj, adjusted, "%s adjust" % cause)
    finally:
        session.close()
    del edit, session
    gc.collect()
    assert not (_shm_segments() - before)


# -- degradation over shared columns -----------------------------------------


@requires_numpy
@requires_fork
def test_degraded_tiles_splice_over_shm():
    """Blown tiles served by the degradation ladder splice correctly
    even when the healthy tiles were written into shared memory."""
    from repro.runtime.supervise import SupervisorPolicy

    # A generous deadline for the load, then one its adjust tiles blow;
    # three requests before the breaker may trip keep it closed.
    policy = SupervisorPolicy(deadline_steps=10 ** 9, breaker_min_requests=3)
    session = RenderSession(3, width=6, height=4, policy=policy,
                            backend="batch", workers=2, tile=6)
    edit = session.begin_edit("veinfreq")
    edit.load(session.controls)
    assert edit.runner.executor.last_stats.pooled
    controls = session.controls_with(veinfreq=3.0)
    policy.deadline_steps = 5
    image = edit.frame(controls)
    colors, total = image.colors, image.total_cost
    stats = edit.runner.executor.last_stats
    assert stats.degraded_tiles == stats.tiles > 0
    original = session.render_reference(
        controls, specialization=edit.specialization
    )
    expect_colors, expect_total = original.colors, original.total_cost
    assert colors == expect_colors
    assert total == expect_total


# -- hygiene: nothing survives shutdown --------------------------------------


@requires_numpy
@requires_fork
@requires_shm
def test_no_segment_leaks_after_sessions_and_shutdown():
    before = _shm_segments()
    for _ in range(2):
        session = RenderSession(5, width=8, height=8, backend="batch",
                                workers=2, tile=16)
        param = _params_of(5)[0]
        edit = session.begin_edit(param)
        _drag(session, edit, param)
        assert edit.runner.executor.last_stats.pooled
        session.close()
    gc.collect()
    assert B.shm_resident_bytes() == 0
    leaked = _shm_segments() - before
    assert not leaked, "leaked segments: %s" % sorted(leaked)


@requires_numpy
@requires_fork
@requires_shm
def test_session_close_stops_its_pool():
    """A pooled session builds its own pool, which forks on the first
    pooled run; ``close()`` leaves no live worker, resident arena or
    segment, even with the drag and its frame cache still referenced."""
    before = _shm_segments()
    session = RenderSession(5, width=8, height=8, backend="batch",
                            workers=2, tile=16)
    param = _params_of(5)[0]
    edit = session.begin_edit(param)
    assert session.pool.health()["workers"]["alive"] == 0
    _drag(session, edit, param)
    assert edit.runner.executor.last_stats.pooled
    procs = list(session.pool._procs)
    assert len(procs) == 2 and all(proc.is_alive() for proc in procs)
    session.close()
    assert all(not proc.is_alive() for proc in procs)
    assert B.shm_resident_bytes() == 0
    assert not (_shm_segments() - before)
