"""Self-healing worker pool: chaos recovery, respawn, quarantine.

The pool's robustness contract: under seeded process-level chaos —
workers killed mid-chunk, hung past the deadline, replying garbage —
every frame still completes *byte-identically* to the serial backend
(colors and int64 cost totals both), lost workers are respawned under
the restart budget, kernels that keep killing workers are quarantined
to the serial transport, budget exhaustion trips the pool breaker, and
no process or shared-memory segment outlives ``shutdown_pools``.
"""

import gc

import pytest

from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.runtime.faultinject import FaultInjector
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not B.HAVE_NUMPY, reason="NumPy unavailable"
)
requires_fork = pytest.mark.skipif(
    not P._fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    """Quarantine sets, breaker state, health counters, and the pool's
    own restart ledger are process globals; every test starts from a
    clean slate (forking a fresh 2-worker pool costs ~2 ms)."""
    P._discard_pool()
    P.reset_pool_state()
    yield
    P._discard_pool()
    P.reset_pool_state()


class ScriptedInjector(FaultInjector):
    """Chaos with an explicit script: ``directives`` maps the
    executor's dispatch ordinal to a ``(kind, seconds)`` fault, so
    tests control exactly which chunk of which frame is hit."""

    def __init__(self, directives):
        FaultInjector.__init__(self, proc_rate=1.0)
        self.directives = dict(directives)

    def proc_fault(self, chunk):
        fault = self.directives.get(chunk)
        if fault is not None:
            self.injected.append(("proc", chunk, None, fault[0]))
        return fault


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


def _chaos_session(index, policy, workers=2, tile=12):
    return RenderSession(index, width=8, height=6, backend="batch",
                         workers=workers, tile=tile, pool_policy=policy)


# -- policy validation -------------------------------------------------------


def test_pool_policy_validates():
    assert P.PoolPolicy().deadline_ms == 30000.0
    assert P.PoolPolicy(deadline_ms=None).deadline_ms is None
    with pytest.raises(ValueError):
        P.PoolPolicy(deadline_ms=0)
    with pytest.raises(ValueError):
        P.PoolPolicy(max_restarts=-1)
    with pytest.raises(ValueError):
        P.PoolPolicy(restart_window=0)
    with pytest.raises(ValueError):
        P.PoolPolicy(quarantine_threshold=0)


# -- chaos sweep: kill + hang across every shader and partition --------------


@requires_numpy
@requires_fork
@pytest.mark.parametrize("index", sorted(SHADERS))
def test_kill_hang_chaos_byte_identical(index):
    """Seeded kill+hang chaos at a >10% chunk rate: every frame of
    every shader/partition must match the serial backend exactly."""
    policy = P.PoolPolicy(deadline_ms=250.0, max_restarts=50,
                          quarantine_threshold=99)
    for param in _params_of(index):
        base = RenderSession(index, width=8, height=6, backend="batch")
        load_a, adj_a = _drag(base, base.begin_edit(param), param)
        injector = FaultInjector(seed=100 + index, proc_rate=0.35,
                                 proc_kinds=("kill", "hang"))
        session = _chaos_session(index, policy)
        edit = session.begin_edit(param, injector=injector)
        load_b, adj_b = _drag(session, edit, param)
        what = "shader %d %s under kill+hang chaos" % (index, param)
        _assert_equal(load_a, load_b, what + " load")
        _assert_equal(adj_a, adj_b, what + " adjust")
        if injector.injected:
            health = P.pool_health()
            losses = sum(health["lost_workers"].values())
            recovered = (health["redispatched_tiles"]
                         + health["inline_tiles"])
            assert losses > 0, what + ": faults planted but none typed"
            assert recovered > 0 or health["restarts"] > 0, (
                what + ": losses recorded but nothing recovered"
            )


# -- single-fault anatomy ----------------------------------------------------


@requires_numpy
@requires_fork
def test_killed_worker_redispatches_to_survivor():
    """One worker killed mid-load: its tiles are re-served by the
    surviving warm worker, the frame is byte-identical, and the lost
    worker is respawned — pool all-warm again afterwards."""
    param = _params_of(3)[0]
    base = RenderSession(3, width=8, height=6, backend="batch")
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    injector = ScriptedInjector({0: ("kill", None)})
    policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=99)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    load_b, adj_b = _drag(session, edit, param)
    _assert_equal(load_a, load_b, "kill-recovered load")
    _assert_equal(adj_a, adj_b, "adjust after recovery")
    health = P.pool_health()
    assert health["lost_workers"]["crash"] == 1
    assert health["redispatched_tiles"] > 0
    assert health["restarts"] == 1
    assert health["respawn_ms_median"] is not None
    assert health["workers"]["alive"] == health["workers"]["configured"]
    kinds = [i["kind"] for i in health["incidents"]]
    assert "worker_crash" in kinds
    assert "redispatch" in kinds
    assert "respawn" in kinds


@requires_numpy
@requires_fork
def test_hung_worker_detected_by_deadline():
    """A worker sleeping far past the chunk deadline is declared hung
    (typed ``"hang"``, not ``"crash"``), SIGKILLed, and its tiles are
    recovered — the frame never waits out the sleep."""
    import time

    param = _params_of(3)[0]
    base = RenderSession(3, width=8, height=6, backend="batch")
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    injector = ScriptedInjector({0: ("hang", 30.0)})
    policy = P.PoolPolicy(deadline_ms=300.0, quarantine_threshold=99)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    started = time.monotonic()
    load_b, adj_b = _drag(session, edit, param)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, "hang detection waited %.1fs" % elapsed
    _assert_equal(load_a, load_b, "hang-recovered load")
    _assert_equal(adj_a, adj_b, "adjust after recovery")
    health = P.pool_health()
    assert health["lost_workers"]["hang"] == 1
    assert health["lost_workers"]["crash"] == 0
    assert health["restarts"] == 1


@requires_numpy
@requires_fork
def test_garbled_reply_is_typed_and_recovered():
    """An unparseable reply means the pipe framing can no longer be
    trusted: the worker is written off as ``"garbled"`` and replaced."""
    param = _params_of(3)[0]
    base = RenderSession(3, width=8, height=6, backend="batch")
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    injector = ScriptedInjector({1: ("garbled", None)})
    policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=99)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    load_b, adj_b = _drag(session, edit, param)
    _assert_equal(load_a, load_b, "garbled-recovered load")
    _assert_equal(adj_a, adj_b, "adjust after recovery")
    health = P.pool_health()
    assert health["lost_workers"]["garbled"] == 1
    assert health["restarts"] == 1


@requires_numpy
@requires_fork
def test_slow_reply_is_not_a_loss():
    """A slow (but within-deadline) reply is just a slow reply: no
    loss, no respawn, byte-identical frame."""
    param = _params_of(3)[0]
    base = RenderSession(3, width=8, height=6, backend="batch")
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    injector = ScriptedInjector({0: ("slow", 0.05)})
    policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=99)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    load_b, adj_b = _drag(session, edit, param)
    _assert_equal(load_a, load_b, "slow load")
    _assert_equal(adj_a, adj_b, "slow adjust")
    health = P.pool_health()
    assert sum(health["lost_workers"].values()) == 0
    assert health["restarts"] == 0


@requires_numpy
@requires_fork
def test_total_loss_falls_back_inline():
    """Every worker killed in one frame: no survivor remains, so every
    lost tile is served by the in-process fallback — still
    byte-identical, and the pool respawns to full strength."""
    param = _params_of(3)[0]
    base = RenderSession(3, width=8, height=6, backend="batch")
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    injector = ScriptedInjector({0: ("kill", None), 1: ("kill", None)})
    policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=99)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    load_b, adj_b = _drag(session, edit, param)
    _assert_equal(load_a, load_b, "total-loss load")
    _assert_equal(adj_a, adj_b, "adjust after total loss")
    health = P.pool_health()
    assert health["lost_workers"]["crash"] == 2
    assert health["inline_tiles"] > 0
    assert health["restarts"] == 2
    assert health["workers"]["alive"] == health["workers"]["configured"]


# -- reconvergence: the pool returns to all-warm -----------------------------


@requires_numpy
@requires_fork
def test_pool_reconverges_warm_after_respawn():
    """Respawned workers start with a cold kernel memo; the first
    post-chaos frame reinstalls (misses), and the next is all-warm."""
    param = _params_of(3)[0]
    serial = RenderSession(3, width=8, height=6, backend="batch")
    sedit = serial.begin_edit(param)
    sedit.load(serial.controls)
    injector = ScriptedInjector({0: ("kill", None), 1: ("kill", None)})
    policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=99)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    edit.load(session.controls)
    assert edit._executor.last_stats.respawns == 2
    edit._executor.injector = None  # chaos off; watch reconvergence
    dragged = session.controls_with(
        **{param: session.controls[param] * 1.3 + 0.05}
    )
    first = edit.adjust(dragged)
    stats = edit._executor.last_stats
    assert stats.pooled
    assert stats.warm_misses > 0  # cold memos reinstall the reader
    second = edit.adjust(dragged)
    stats = edit._executor.last_stats
    assert stats.warm_hits == stats.workers
    assert stats.warm_misses == 0
    sdragged = serial.controls_with(
        **{param: serial.controls[param] * 1.3 + 0.05}
    )
    expect = sedit.adjust(sdragged)
    _assert_equal(expect, first, "first post-chaos adjust")
    _assert_equal(expect, second, "all-warm adjust")


# -- quarantine: poison kernels route to serial ------------------------------


@requires_numpy
@requires_fork
def test_repeat_killer_kernel_is_quarantined():
    """A kernel that keeps killing workers crosses the strike threshold
    and is routed to the serial transport (byte-identical, never
    fatal); other kernels keep the pool."""
    param = _params_of(3)[0]
    base = RenderSession(3, width=8, height=6, backend="batch")
    load_a, _ = _drag(base, base.begin_edit(param), param)
    injector = ScriptedInjector({0: ("kill", None)})
    policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=1)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    load_b = edit.load(session.controls)
    _assert_equal(load_a, load_b, "load that trips quarantine")
    health = P.pool_health()
    assert health["quarantined"], "loader kernel not quarantined"
    # The same loader again: routed to serial before any dispatch.
    load_c = edit.load(session.controls)
    _assert_equal(load_a, load_c, "quarantined load")
    stats = edit._executor.last_stats
    assert stats.quarantined
    assert stats.transport == "serial"
    assert P.pool_health()["quarantine_routed"] >= 1


# -- restart budget and the pool breaker -------------------------------------


@requires_numpy
@requires_fork
def test_restart_budget_exhaustion_trips_breaker():
    """With a zero restart budget the first loss degrades the pool:
    breaker open, pool discarded, subsequent runs ride serial —
    and after the cooldown a half-open probe closes the breaker."""
    param = _params_of(3)[0]
    base = RenderSession(3, width=8, height=6, backend="batch")
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    injector = ScriptedInjector({0: ("kill", None)})
    policy = P.PoolPolicy(deadline_ms=5000.0, max_restarts=0,
                          breaker_cooldown=2, quarantine_threshold=99)
    session = _chaos_session(3, policy)
    edit = session.begin_edit(param, injector=injector)
    load_b = edit.load(session.controls)
    _assert_equal(load_a, load_b, "load that exhausts the budget")
    health = P.pool_health()
    assert health["breaker"]["state"] == "open"
    assert health["restarts"] == 0  # budget forbade every respawn
    assert any(i["kind"] == "pool_degraded" for i in health["incidents"])
    # While open: fork is refused, frames stay byte-identical.
    edit._executor.injector = None
    dragged = session.controls_with(
        **{param: session.controls[param] * 1.3 + 0.05}
    )
    adj_b = edit.adjust(dragged)
    _assert_equal(adj_a, adj_b, "adjust while breaker open")
    stats = edit._executor.last_stats
    assert stats.breaker_open
    assert stats.transport == "serial"
    # Healthy runs advance breaker time; the half-open probe forks a
    # fresh pool, survives, and closes the breaker.
    for _ in range(12):
        adj_c = edit.adjust(dragged)
        _assert_equal(adj_a, adj_c, "adjust during cooldown")
        if P._BREAKER.state == "closed":
            break
    assert P._BREAKER.state == "closed", "probe never closed the breaker"
    assert any(
        i["kind"] == "pool_recovered"
        for i in P.pool_health()["incidents"]
    )


# -- failure aggregation (satellite: _gather masked later errors) ------------


def test_most_actionable_prefers_structured_errors():
    """A structured kernel error must never be masked by an earlier
    broken-worker error; the rest ride along as ``related_failures``."""
    lost = P.WorkerLostError(0, "crash", "process exited with code 23",
                             exitcode=23)
    structured = ValueError("bad lane 7")
    picked = P.TileExecutor._most_actionable([lost, structured])
    assert picked is structured
    assert picked.related_failures == (lost,)
    # All-broken gathers raise the first, with the rest attached.
    lost_b = P.WorkerLostError(1, "hang", "no reply within 300 ms")
    picked = P.TileExecutor._most_actionable([lost, lost_b])
    assert picked is lost
    assert picked.related_failures == (lost_b,)
    assert P.PoolBrokenError.related_failures == ()


def test_worker_lost_error_shape():
    exc = P.WorkerLostError(2, "hang", "no reply within 250 ms")
    assert isinstance(exc, P.PoolBrokenError)
    assert exc.worker == 2
    assert exc.kind == "hang"
    assert exc.exitcode is None
    assert "worker 2 hang" in str(exc)
    assert exc.kind in P.FAULT_KINDS


# -- lifecycle hygiene (satellite: rebuild/shutdown leak regression) ---------


@requires_numpy
@requires_fork
def test_pool_rebuild_on_count_change_leaks_nothing():
    """Changing ``workers=`` rebuilds the pool; every old process must
    be joined (``is_alive`` bookkeeping only — no ps scraping) and no
    arena may survive the final shutdown."""
    pool_a = P._get_pool(2)
    old_procs = list(pool_a._procs)
    assert all(proc.is_alive() for proc in old_procs)
    pool_b = P._get_pool(3)
    assert pool_b is not pool_a
    assert all(not proc.is_alive() for proc in old_procs), (
        "old pool left live workers behind"
    )
    assert pool_a._procs == []  # shutdown cleared its process table
    new_procs = list(pool_b._procs)
    P.shutdown_pools()
    gc.collect()
    assert P._POOL is None
    assert all(not proc.is_alive() for proc in new_procs)
    assert B.shm_resident_bytes() == 0


@requires_numpy
@requires_fork
def test_shutdown_kills_worker_stuck_in_sleep():
    """A worker mid-hang at shutdown time must not strand the pool:
    the escalation ladder (sentinel, TERM, KILL) always ends with every
    child dead and the process table cleared."""
    pool = P._get_pool(2)
    pool.send(0, {"chaos": ("hang", 60.0), "mode": "pickle",
                  "layout": None, "jobs": [], "token": (0, 0),
                  "kernel": None})
    procs = list(pool._procs)
    P.shutdown_pools()
    assert all(not proc.is_alive() for proc in procs)
    assert P._POOL is None


@pytest.mark.skipif(
    not B.HAVE_SHM, reason="shared memory unavailable"
)
@requires_fork
def test_reclaim_orphaned_segment_of_dead_pid():
    """A segment whose embedded creator PID is dead is an orphan (a
    crashed child's allocation): the shutdown sweep unlinks it and
    reports the reclaimed bytes."""
    import multiprocessing
    from multiprocessing import shared_memory

    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=lambda: None)
    child.start()
    child.join()
    dead_pid = child.pid
    assert not child.is_alive()
    name = "repro_shm_%d_987654" % dead_pid
    segment = shared_memory.SharedMemory(name=name, create=True, size=256)
    segment.close()
    try:
        segments, nbytes = B.reclaim_orphaned_segments()
        assert segments >= 1
        assert nbytes >= 256
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    finally:
        try:
            leftover = shared_memory.SharedMemory(name=name)
            leftover.close()
            leftover.unlink()
        except FileNotFoundError:
            pass


@requires_numpy
@requires_fork
def test_chaos_leaves_no_segment_after_shutdown():
    """The acceptance sweep in miniature: chaos frames, then
    ``shutdown_pools`` — zero resident shm bytes, zero live workers."""
    param = _params_of(5)[0]
    injector = FaultInjector(seed=11, proc_rate=0.5, proc_kinds=("kill",))
    policy = P.PoolPolicy(deadline_ms=5000.0, max_restarts=50,
                          quarantine_threshold=99)
    session = _chaos_session(5, policy)
    edit = session.begin_edit(param, injector=injector)
    _drag(session, edit, param)
    edit._executor.close()
    procs = list(P._POOL._procs) if P._POOL is not None else []
    P.shutdown_pools()
    gc.collect()
    assert B.shm_resident_bytes() == 0
    assert all(not proc.is_alive() for proc in procs)
    assert P.pool_health()["shm_resident_bytes"] == 0
