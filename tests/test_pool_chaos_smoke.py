"""Pool reconvergence after process chaos (run with ``-m poolchaos``;
deselected by default).

A sweep of shaders drives tiled drags on a 2-worker fork pool while
workers are killed mid-chunk and hung past the pool deadline at a >10%
chunk rate.  Every chaos frame must match the serial backend byte for
byte, and once the chaos stops the pool must return to all-warm — every
worker alive and warm, no loss, breaker closed — within a few frames.
How fast that happens is scheduling noise on a starved host, so the
gate runs only with enough usable cores; byte identity under the same
chaos is gated on every host by ``tests/test_pool_selfheal.py``.
"""

import pytest

from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.runtime.faultinject import FaultInjector
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

SEED = 1996
WIDTH, HEIGHT = 10, 6
TILE = 15  # 4 tiles per frame -> 2 chunks per 2-worker dispatch
WORKERS = 2
CHAOS_ADJUSTS = 4
RECONVERGE_BUDGET = 4
PROC_RATE = 0.35
DEADLINE_MS = 250.0
GATE_MIN_CORES = 4
SWEEP = (1, 3, 5, 8, 10)


def _policy():
    # Generous restart budget and no quarantine: this measures recovery
    # and reconvergence; quarantine and breaker exhaustion have their
    # own tests in tests/test_pool_selfheal.py.
    return P.PoolPolicy(
        deadline_ms=DEADLINE_MS, max_restarts=64, restart_window=16,
        quarantine_threshold=10 ** 6, seed=SEED,
    )


def _assert_identical(expect, got, what):
    assert expect.colors == got.colors, "%s: colors differ" % what
    assert expect.total_cost == got.total_cost, (
        "%s: cost %d != %d" % (what, expect.total_cost, got.total_cost)
    )


def _reconverged(edit):
    stats = edit._executor.last_stats
    health = P.pool_health()
    return (
        stats.pooled
        and stats.warm_hits == stats.workers
        and stats.lost_workers == 0
        and health["workers"]["alive"] == health["workers"]["configured"]
        and health["breaker"]["state"] == "closed"
    )


@pytest.mark.poolchaos
@pytest.mark.skipif(
    not (B.HAVE_NUMPY and P._fork_available()),
    reason="needs numpy and the fork start method",
)
@pytest.mark.skipif(
    P.usable_cores() < GATE_MIN_CORES,
    reason="only %d usable core(s), the reconvergence gate needs >= %d"
    % (P.usable_cores(), GATE_MIN_CORES),
)
def test_pool_reconverges_after_chaos():
    P.reset_pool_state()
    faulted = 0
    try:
        for index in SWEEP:
            param = SHADERS[index].control_params[0]
            serial = RenderSession(index, width=WIDTH, height=HEIGHT,
                                   backend="batch")
            serial_edit = serial.begin_edit(param)
            base = serial.controls[param]
            values = [base * (1.2 + 0.1 * step) + 0.05
                      for step in range(CHAOS_ADJUSTS)]
            injector = FaultInjector(seed=SEED + index, proc_rate=PROC_RATE,
                                     proc_kinds=("kill", "hang"))
            session = RenderSession(index, width=WIDTH, height=HEIGHT,
                                    backend="batch", workers=WORKERS,
                                    tile=TILE, pool_policy=_policy())
            edit = session.begin_edit(param, injector=injector)
            for frame, value in enumerate([None] + values):
                planted = len(injector.injected)
                if value is None:
                    expect = serial_edit.load(serial.controls)
                    got = edit.load(session.controls)
                else:
                    expect = serial_edit.adjust(
                        serial.controls_with(**{param: value}))
                    got = edit.adjust(session.controls_with(**{param: value}))
                _assert_identical(
                    expect, got,
                    "shader %d frame %d under chaos" % (index, frame),
                )
                faulted += len(injector.injected) > planted

            # Chaos off: the pool must return to all-warm.
            edit._executor.injector = None
            clean = values[-1] * 1.05
            expect = serial_edit.adjust(serial.controls_with(**{param: clean}))
            for attempt in range(1, RECONVERGE_BUDGET + 1):
                got = edit.adjust(session.controls_with(**{param: clean}))
                _assert_identical(
                    expect, got,
                    "shader %d clean frame %d" % (index, attempt),
                )
                if _reconverged(edit):
                    break
            else:
                pytest.fail("pool never reconverged for shader %d" % index)
            edit.close()
        assert faulted > 0, "chaos sweep planted no faults"
    finally:
        P.shutdown_pools()
        P.reset_pool_state()
    assert B.shm_resident_bytes() == 0, "arenas survived shutdown_pools"
