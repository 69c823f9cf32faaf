"""Unit tests for the telemetry layer (``repro.obs``): tracer, metrics
registry, cache-slot analytics, schema canonicalization, and the
``obs=`` threading through sessions and the supervisor."""

import pytest

from repro.obs import (
    NULL_OBS, NullObservability, Observability, resolve_obs,
)
from repro.obs.cachestats import cache_occupancy, slot_profile
from repro.obs.metrics import (
    NULL_REGISTRY, MetricsRegistry, _NULL_INSTRUMENT,
)
from repro.obs.schema import (
    BREAKER_STATE_CODES, RUNGS, canonical_breaker_state, canonical_rung,
)
from repro.obs.trace import _NULL_SPAN, NULL_TRACER, Tracer
from repro.runtime.guard import FaultLog
from repro.runtime.supervise import RenderSupervisor, SupervisorPolicy
from repro.shaders.render import RenderSession, ShaderInstallation


class FakeClock(object):
    """Deterministic, manually advanced clock for tracer tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds=1.0):
        self.now += seconds


# -- tracer -------------------------------------------------------------------


def test_tracer_nesting_and_timing():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer", shader="matte") as outer:
        clock.tick(1.0)
        with tracer.span("inner") as inner:
            clock.tick(0.5)
        clock.tick(1.0)
        outer.set(cost=42)
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert inner.parent == outer.sid
    assert inner.depth == 1 and outer.depth == 0
    assert inner.duration == 0.5
    assert outer.duration == 2.5
    assert outer.attrs == {"shader": "matte", "cost": 42}
    assert tracer.roots() == [outer]
    assert tracer.total_seconds() == 2.5


def test_tracer_stage_totals_median():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for seconds in (1.0, 3.0, 2.0):
        with tracer.span("stage"):
            clock.tick(seconds)
    totals = tracer.stage_totals()
    assert totals["stage"]["count"] == 3
    assert totals["stage"]["total_seconds"] == 6.0
    assert totals["stage"]["median_seconds"] == 2.0


def test_tracer_records_error_attribute():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("kaput")
    assert tracer.spans[0].attrs["error"] == "kaput"


def test_tracer_out_of_order_close_raises():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.span("outer")
    tracer.span("inner")
    with pytest.raises(RuntimeError):
        tracer._finish(outer, None)


def test_null_tracer_allocates_nothing():
    assert NULL_TRACER.span("anything", foo=1) is _NULL_SPAN
    with NULL_TRACER.span("x") as span:
        assert span.set(a=1) is span
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.stage_totals() == {}


# -- metrics ------------------------------------------------------------------


def test_counter_and_gauge_families():
    registry = MetricsRegistry()
    frames = registry.counter("frames_total", "Frames.", ("shader",))
    frames.inc(shader="matte")
    frames.inc(2, shader="matte")
    frames.inc(shader="brick")
    assert registry.value("frames_total", shader="matte") == 3
    assert registry.value("frames_total", shader="brick") == 1
    depth = registry.gauge("depth", "Depth.")
    depth.set(7)
    depth.dec()
    assert registry.value("depth") == 6


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("c_total").labels().inc(-1)


def test_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    h = registry.histogram("steps", buckets=(10, 100)).labels()
    for value in (5, 50, 500):
        h.observe(value)
    assert h.sum == 555 and h.count == 3
    assert h.cumulative() == [(10, 1), (100, 2), (float("inf"), 3)]


def _observed(values, many, buckets):
    h = MetricsRegistry().histogram("steps", buckets=buckets).labels()
    if many:
        h.observe_many(values)
    else:
        for value in values:
            h.observe(value)
    return h.counts, h.sum, h.count


@pytest.mark.parametrize("buckets", [(10, 100), (5, 10, 25, 1000), (0,)])
def test_observe_many_matches_observe_on_every_bound(buckets):
    """Values equal to each bound, either side of it, and far past the
    last one: identical bucket counts, exact sums and counts."""
    ints = [b + d for b in buckets for d in (-1, 0, 1)] + [0, 10 ** 6]
    floats = [b + d for b in buckets for d in (-0.5, 0.0, 0.25)] + [
        float("inf"), 0.1, 0.2, 0.3]
    np = pytest.importorskip("numpy")
    for values in (ints, floats, [], [7], [2 ** 62, 2 ** 62, 3]):
        want = _observed(values, False, buckets)
        for given in (values, np.asarray(values)):
            got = _observed(given, True, buckets)
            assert got == want and type(got[1]) is type(want[1])
    nan = _observed([float("nan"), 1.0], True, buckets)
    assert nan[0] == _observed([float("nan"), 1.0], False, buckets)[0]


def test_family_registration_idempotent_and_conflicts():
    registry = MetricsRegistry()
    a = registry.counter("x_total", "X.", ("shader",))
    assert registry.counter("x_total", "X.", ("shader",)) is a
    with pytest.raises(ValueError):
        registry.gauge("x_total")
    with pytest.raises(ValueError):
        registry.counter("x_total", "X.", ("other",))
    with pytest.raises(ValueError):
        registry.counter("bad name")
    with pytest.raises(ValueError):
        a.labels(wrong="labels")


def test_null_registry_absorbs_everything():
    assert NULL_REGISTRY.counter("a_total") is _NULL_INSTRUMENT
    NULL_REGISTRY.histogram("h").labels(x=1).observe(5)
    NULL_REGISTRY.histogram("h").labels(x=1).observe_many([5, 6])
    assert NULL_REGISTRY.collect() == []
    assert NULL_REGISTRY.as_dict() == {}


# -- schema -------------------------------------------------------------------


def test_canonical_rung_normalizes_casing():
    assert canonical_rung("Batch") == "batch"
    assert canonical_rung(" SCALAR ") == "scalar"
    assert canonical_rung("LKG") == "lkg"
    assert canonical_rung(None) is None
    with pytest.raises(ValueError):
        canonical_rung("warp-drive")
    assert set(RUNGS) == {"batch", "scalar", "original", "lkg"}


def test_canonical_breaker_state():
    assert canonical_breaker_state("Half-Open") == "half_open"
    assert BREAKER_STATE_CODES["closed"] == 0
    assert BREAKER_STATE_CODES["open"] == 2


# -- resolve_obs --------------------------------------------------------------


def test_resolve_obs_knob():
    assert resolve_obs(None) is NULL_OBS
    assert resolve_obs(False) is NULL_OBS
    fresh = resolve_obs(True)
    assert isinstance(fresh, Observability) and fresh.enabled
    assert resolve_obs(fresh) is fresh
    assert isinstance(NULL_OBS, NullObservability) and not NULL_OBS.enabled
    with pytest.raises(ValueError):
        resolve_obs("yes")


# -- cache-slot analytics -----------------------------------------------------


def test_slot_profile_and_occupancy():
    obs = Observability()
    session = RenderSession(1, width=4, height=4, obs=obs)
    param = session.spec_info.control_params[0]
    edit = session.begin_edit(param)
    profile = slot_profile(edit.specialization)
    assert profile, "expected at least one cache slot"
    for stats in profile:
        assert stats.bytes > 0
        assert stats.stores >= 1
        d = stats.as_dict()
        assert d["slot"] == stats.index and d["dead"] == (stats.reads == 0)
    edit.load(session.controls)
    lanes, filled = cache_occupancy(edit.caches)
    assert lanes == 16
    assert set(filled) == {s.index for s in profile}
    assert all(count == 16 for count in filled.values())
    assert cache_occupancy(None) == (0, {})


def test_specialize_publishes_cache_metrics():
    obs = Observability()
    session = RenderSession(1, width=4, height=4, obs=obs)
    param = session.spec_info.control_params[0]
    session.specialize(param)
    name = session.spec_info.name
    assert obs.registry.value(
        "repro_specializations_total", shader=name, partition=param
    ) == 1
    slots = obs.registry.value(
        "repro_cache_slots", shader=name, partition=param
    )
    assert slots and slots > 0
    bytes_per_pixel = obs.registry.value(
        "repro_cache_bytes_per_pixel", shader=name, partition=param
    )
    assert bytes_per_pixel > 0


# -- session threading --------------------------------------------------------


def test_render_session_defaults_to_null_obs():
    session = RenderSession(1, width=4, height=4)
    assert session.obs is NULL_OBS
    edit = session.begin_edit(session.spec_info.control_params[0])
    assert edit.obs is NULL_OBS
    edit.load(session.controls)  # no spans, no metrics, no errors


def test_traced_drag_emits_spans_and_frame_metrics():
    obs = Observability()
    session = RenderSession(1, width=4, height=4, obs=obs)
    param = session.spec_info.control_params[0]
    edit = session.begin_edit(param)
    edit.load(session.controls)
    edit.adjust(session.controls_with(**{param: 0.7}))
    names = {s.name for s in obs.tracer.spans}
    assert {"frontend.parse", "frontend.typecheck", "specialize",
            "specialize.split", "render.load", "render.adjust"} <= names
    name = session.spec_info.name
    labels = dict(shader=name, partition=param)
    # Sessions default to backend="auto", so the serving rung is the
    # resolved backend (batch with NumPy, scalar without).
    assert obs.registry.value(
        "repro_frames_total", phase="load", rung=session.backend, **labels
    ) == 1
    assert obs.registry.value(
        "repro_pixels_total", phase="adjust", **labels
    ) == 16
    hist = obs.registry.value(
        "repro_pixel_cost_steps", phase="adjust", **labels
    )
    assert hist is not None and hist[1] == 16
    assert obs.registry.value("repro_cache_fills_total", **labels) > 0
    assert obs.registry.value("repro_cache_hits_total", **labels) > 0

    # Frame spans carry the drag's resolved plan: a tiled drag says it
    # tiles; a guarded one reports that its tile resolved away.
    for knobs in ({"tile": 8}, {"tile": 8, "guard": True}):
        obs = Observability()
        session = RenderSession(1, width=4, height=4, obs=obs, **knobs)
        edit = session.begin_edit(param)
        edit.load(session.controls)
        edit.adjust(session.controls_with(**{param: 0.7}))
        plan = edit.plan
        guarded = knobs.get("guard", False)
        assert plan.tiled is (session.backend == "batch" and not guarded)
        if guarded:
            assert plan.tile is None
        frames = [s for s in obs.tracer.spans
                  if s.name in ("render.load", "render.adjust")]
        assert len(frames) == 2
        for span in frames:
            assert span.attrs["tiled"] is plan.tiled
            assert "workers" not in span.attrs
            assert "transport" not in span.attrs


def test_supervised_drag_mirrors_counters():
    obs = Observability()
    session = RenderSession(
        1, width=4, height=4, policy=SupervisorPolicy(), obs=obs
    )
    param = session.spec_info.control_params[0]
    edit = session.begin_edit(param)
    edit.load(session.controls)
    edit.adjust(session.controls_with(**{param: 0.6}))
    assert session.supervisor.obs is obs
    assert obs.registry.value(
        "repro_supervisor_requests_total", phase="load"
    ) == 1
    served = obs.registry.value(
        "repro_supervisor_rungs_total", rung=canonical_rung(edit.last_rung)
    )
    assert served == 2
    name = session.spec_info.name
    assert obs.registry.value(
        "repro_breaker_state", shader=name, partition=param
    ) == BREAKER_STATE_CODES["closed"]
    assert any(s.name == "supervise.rung" for s in obs.tracer.spans)


def test_guard_faults_flow_into_registry():
    from repro.runtime.faultinject import FaultInjector

    obs = Observability()
    session = RenderSession(1, width=4, height=4, obs=obs)
    param = session.spec_info.control_params[0]
    edit = session.begin_edit(
        param, injector=FaultInjector(seed=3, kernel_rate=1.0)
    )
    edit.load(session.controls)
    name = session.spec_info.name
    faults = obs.registry.value(
        "repro_guard_faults_total",
        shader=name, partition=param, phase="load",
    )
    assert faults == len(edit.fault_log) == 16


def test_installation_emits_install_spans():
    obs = Observability()
    install = ShaderInstallation(
        1, width=4, height=4, compile_code=False, obs=obs
    )
    names = [s.name for s in obs.tracer.spans]
    assert "install.shader" in names
    assert names.count("install.partition") == len(install.partitions())


# -- satellite: monotonic seq on ring-buffer incidents ------------------------


def test_fault_log_seq_is_monotonic_across_clear():
    log = FaultLog(max_incidents=2)
    for i in range(3):
        log.record("adjust", i, None, ValueError("x"), 5)
    seqs = [incident.seq for incident in log]
    assert seqs == [2, 3]  # ring dropped seq 1; numbering starts at 1
    log.clear()
    log.record("load", 0, None, ValueError("y"), 5)
    assert [i.seq for i in log] == [4]
    assert log.incidents[-1].as_dict()["seq"] == 4


def test_supervisor_incident_seq_is_monotonic():
    policy = SupervisorPolicy(max_incidents=2)
    supervisor = RenderSupervisor(policy)
    for i in range(3):
        supervisor._record_incident(
            ("matte", "ka"), "adjust", "batch", "fault", "boom %d" % i
        )
    seqs = [i.seq for i in supervisor._incidents]
    assert seqs == [2, 3]
    assert all(
        incident.as_dict()["seq"] == incident.seq
        for incident in supervisor._incidents
    )
