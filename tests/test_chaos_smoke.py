"""Supervised drags under escalating cache corruption (run with
``-m chaossmoke``; deselected by default).

For every built-in shader's first partition, both backends and a sweep
of corruption rates, a supervised + guarded drag is corrupted before
each adjust over the first half of its drags, then left alone:

* every frame bit-matches the partition's unspecialized reference (the
  guard heals pixels, the ladder heals requests) and the ladder is
  never exhausted;
* at rate 0.0 supervision is transparent — no degradation, no trips;
* at the aggressive rate faults are contained, breakers trip, and
  half-open probes restore the specialized path once corruption stops.
"""

import pytest

from repro.runtime.faultinject import FaultInjector
from repro.runtime.supervise import SupervisorPolicy
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

SIZE = 6
SEED = 1996
DRAGS = 8
STORM = 0.25
RATES = (0.0, 0.1, STORM)

SPECIALIZED = {"batch", "scalar"}


def _policy():
    return SupervisorPolicy(
        breaker_threshold=0.05, breaker_window=4, breaker_min_requests=2,
        breaker_trip_ratio=0.5, breaker_cooldown=2, seed=SEED,
    )


def _supervised_drag(shader, param, backend, rate):
    """One supervised drag under a corruption storm that stops
    halfway; returns ``(requests, degraded, trips, faults_contained)``."""
    session = RenderSession(shader, width=SIZE, height=SIZE, backend=backend,
                            guard=True, policy=_policy())
    what = "shader %d %r (%s, rate %.2f)" % (shader, param, backend, rate)
    drag = session.controls_with(**{param: session.controls[param] * 1.25})
    # Reassociation is partition-driven, so the bit-exact reference for
    # this partition's fallback is its *own* inlined original.
    reference = session.render_reference(
        drag, specialization=session.specialize(param)
    )
    edit = session.begin_edit(param)
    edit.load(session.controls)
    degraded = 0
    for i in range(DRAGS):
        if rate > 0.0 and i < DRAGS // 2 and edit.caches is not None:
            FaultInjector(
                seed=SEED + 31 * i, cache_rate=rate
            ).corrupt_caches(edit.caches)
        image = edit.adjust(drag)
        assert image.colors == reference.colors, (
            "%s: drag %d diverged from the unspecialized reference"
            % (what, i)
        )
        if edit.last_rung not in SPECIALIZED:
            degraded += 1

    breaker = session.supervisor.breakers[(session.spec_info.name, param)]
    health = session.supervisor.health()
    assert health["exhausted"] == 0, what + ": ladder exhausted"
    if breaker.trips:
        # Corruption stopped halfway: the probe must have restored the
        # specialized path by the end of the drag.
        assert breaker.state == "closed", what + ": breaker never recovered"
        assert edit.last_rung in SPECIALIZED
    return (health["requests"], degraded, breaker.trips,
            health["faults_contained"])


@pytest.mark.chaossmoke
@pytest.mark.parametrize("backend", ["scalar", "batch"])
def test_supervised_drags_heal_under_corruption(backend):
    for rate in RATES:
        requests = degraded = trips = contained = 0
        for shader in sorted(SHADERS):
            param = SHADERS[shader].control_params[0]
            r, d, t, c = _supervised_drag(shader, param, backend, rate)
            requests += r
            degraded += d
            trips += t
            contained += c
        if rate == 0.0:
            assert degraded == 0 and trips == 0, (
                "%s: degradation without corruption" % backend
            )
        if rate == STORM:
            assert contained > 0, "the storm must fault"
            assert trips > 0, "the storm must trip breakers"
            assert 0 < degraded < requests
