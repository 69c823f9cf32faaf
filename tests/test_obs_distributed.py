"""End-to-end request tracing, SLOs, and the flight recorder.

Covers the distributed-observability stack: bucket-interpolated
percentiles, the request-id context, cross-process span ingestion
(fork workers ship span buffers back over the result pipe), SLO
attainment/burn over sliding windows, flight-recorder tail sampling,
and the daemon plumbing that ties them together — one request id on
every response header, in every span, and in every incident ring.

The fork-pool tests re-use the chaos machinery of
``test_pool_selfheal.py`` to prove spans survive worker kill/hang
without leaking or duplicating, while frames stay byte-identical.
"""

import os
import threading

import pytest

from repro.obs import NULL_OBS, Observability
from repro.obs.export import to_chrome_trace
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    HistogramChild,
    MetricsRegistry,
    fraction_at_or_below,
    percentile_from_cumulative,
)
from repro.obs.slo import (
    LatencyObjective,
    RatioObjective,
    SloTracker,
    default_service_objectives,
)
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    current_request_id,
    request_context,
)
from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.runtime.faultinject import FaultInjector
from repro.runtime.guard import FaultLog
from repro.runtime.supervise import RenderSupervisor
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not B.HAVE_NUMPY, reason="NumPy unavailable"
)
requires_fork = pytest.mark.skipif(
    not P._fork_available(), reason="fork start method unavailable"
)


class FakeClock(object):
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


# -- bucket-interpolated percentiles ----------------------------------------


class TestPercentiles:
    def test_empty_is_none(self):
        assert percentile_from_cumulative([], 0.5) is None
        assert fraction_at_or_below([], 5) is None
        assert HistogramChild((), (10,)).percentile(0.5) is None

    def test_interpolates_within_lowest_bucket(self):
        hist = HistogramChild((), (10, 100))
        for _ in range(4):
            hist.observe(5)
        assert hist.percentile(0.50) == 5.0

    def test_exact_bucket_boundary(self):
        hist = HistogramChild((), (10, 100))
        for value in (5, 5, 5, 5, 50, 50, 50, 50):
            hist.observe(value)
        assert hist.percentile(0.50) == 10.0

    def test_inf_bucket_returns_highest_finite_bound(self):
        hist = HistogramChild((), (10, 100))
        hist.observe(1000)
        assert hist.percentile(0.99) == 100.0

    def test_fraction_interpolates(self):
        hist = HistogramChild((), (10, 100))
        for value in (5, 5, 5, 5, 50, 50, 50, 50):
            hist.observe(value)
        assert fraction_at_or_below(hist.cumulative(), 55) == 0.75
        assert fraction_at_or_below(hist.cumulative(), 100) == 1.0

    def test_bad_quantile_rejected(self):
        hist = HistogramChild((), (10,))
        hist.observe(1)
        with pytest.raises(ValueError):
            hist.percentile(1.5)


# -- request-id context ------------------------------------------------------


class TestRequestContext:
    def test_unbound_is_none(self):
        assert current_request_id() is None

    def test_binds_and_restores(self):
        with request_context("r-1") as rid:
            assert rid == "r-1"
            assert current_request_id() == "r-1"
            with request_context("r-2"):
                assert current_request_id() == "r-2"
            assert current_request_id() == "r-1"
        assert current_request_id() is None

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with request_context("r-1"):
                raise RuntimeError("boom")
        assert current_request_id() is None

    def test_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = current_request_id()

        with request_context("r-1"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other"] is None

    def test_spans_pick_up_the_trace_attr(self):
        tracer = Tracer(clock=FakeClock())
        with request_context("req-7"):
            with tracer.span("load"):
                pass
            with tracer.span("adjust", trace="explicit"):
                pass
        with tracer.span("outside"):
            pass
        attrs = [s.attrs.get("trace") for s in tracer.spans]
        assert attrs == ["req-7", "explicit", None]


# -- worker-buffer ingestion -------------------------------------------------


def _buffer(pid=999, spans=None):
    return {"pid": pid, "spans": spans or []}


class TestIngest:
    def test_reparents_and_remaps_ids(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("render.tile", trace="req-1") as parent:
            clock.tick(1.0)
        buffer = _buffer(spans=[
            ("worker.chunk", 0, None, 0, 0.1, 0.9, {"mode": "reader"}),
            ("worker.tile", 1, 0, 1, 0.2, 0.5, {"tile": 0}),
        ])
        ingested = tracer.ingest(buffer, parent=parent)
        chunk, tile = ingested
        assert chunk.parent == parent.sid
        assert chunk.depth == parent.depth + 1
        assert tile.parent == chunk.sid
        assert tile.depth == chunk.depth + 1
        assert chunk.pid == 999 and tile.pid == 999
        assert chunk.attrs["trace"] == "req-1"
        assert tile.attrs["trace"] == "req-1"
        sids = [s.sid for s in tracer.spans]
        assert len(set(sids)) == len(sids)

    def test_open_record_merges_as_point(self):
        tracer = Tracer(clock=FakeClock())
        spans = tracer.ingest(_buffer(spans=[
            ("worker.tile", 0, None, 0, 0.5, None, {}),
        ]))
        assert spans[0].end == spans[0].start == 0.5

    def test_trace_falls_back_to_request_context(self):
        tracer = Tracer(clock=FakeClock())
        with request_context("ambient"):
            spans = tracer.ingest(_buffer(spans=[
                ("worker.tile", 0, None, 0, 0.0, 0.1, {}),
            ]))
        assert spans[0].attrs["trace"] == "ambient"

    def test_empty_and_null(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.ingest(None) == []
        assert tracer.ingest(_buffer(spans=[])) == []
        assert NULL_TRACER.ingest(_buffer(spans=[
            ("x", 0, None, 0, 0.0, 0.1, {}),
        ])) == []


# -- SLO engine --------------------------------------------------------------


def _latency_registry():
    registry = MetricsRegistry()
    hist = registry.histogram(
        "m_ms", "", ("endpoint",), buckets=(10, 100)
    )
    return registry, hist


class TestSlo:
    def test_latency_objective_attainment_and_burn(self):
        registry, hist = _latency_registry()
        objective = LatencyObjective(
            "lat", "m_ms", threshold_ms=10, target=0.9,
            labels={"endpoint": "render"},
        )
        for _ in range(9):
            hist.observe(5, endpoint="render")
        hist.observe(500, endpoint="render")
        hist.observe(500, endpoint="other")  # label-filtered out
        report = objective.evaluate(objective.measure(registry), None)
        assert report["count"] == 10
        assert abs(report["attainment"] - 0.9) < 1e-9
        assert abs(report["burn_rate"] - 1.0) < 1e-9

    def test_latency_objective_empty_family(self):
        registry = MetricsRegistry()
        objective = LatencyObjective("lat", "m_ms", threshold_ms=10)
        report = objective.evaluate(objective.measure(registry), None)
        assert report["count"] == 0
        assert report["attainment"] is None
        assert report["burn_rate"] == 0.0

    def test_ratio_objective(self):
        registry = MetricsRegistry()
        shed = registry.counter("shed_total", "", ("scope",))
        total = registry.counter("req_total", "", ("status",))
        objective = RatioObjective(
            "shed", "shed_total", "req_total", max_ratio=0.05
        )
        for _ in range(95):
            total.inc(status="200")
        for _ in range(5):
            total.inc(status="429")
            shed.inc(scope="inflight")
        report = objective.evaluate(objective.measure(registry), None)
        assert report["count"] == 100 and report["bad"] == 5
        assert abs(report["ratio"] - 0.05) < 1e-9
        assert abs(report["burn_rate"] - 1.0) < 1e-9

    def test_sliding_window_prunes_old_state(self):
        registry, hist = _latency_registry()
        clock = FakeClock()
        tracker = SloTracker(
            [LatencyObjective("lat", "m_ms", threshold_ms=10,
                              target=0.9)],
            window_s=60.0, max_samples=6, clock=clock,
        )
        tracker.sample(registry)  # baseline at t=0, empty
        for _ in range(10):
            hist.observe(5, endpoint="render")
        clock.now = 30.0
        window = tracker.report(registry)["objectives"][0]["window"]
        assert window["count"] == 10
        assert window["attainment"] == 1.0
        assert window["burn_rate"] == 0.0
        for _ in range(10):
            hist.observe(500, endpoint="render")
        clock.now = 45.0
        tracker.sample(registry)  # snapshot with all 20 observations
        clock.now = 120.0
        entry = tracker.report(registry)["objectives"][0]
        # Window base is the t=45 snapshot: nothing new since.
        assert entry["window"]["count"] == 0
        # Lifetime still sees all 20: half fast, half slow.
        assert entry["lifetime"]["count"] == 20
        assert abs(entry["lifetime"]["attainment"] - 0.5) < 1e-9
        assert abs(entry["lifetime"]["burn_rate"] - 5.0) < 1e-9

    def test_sample_rate_limited(self):
        registry, _ = _latency_registry()
        clock = FakeClock()
        tracker = SloTracker(
            [LatencyObjective("lat", "m_ms", threshold_ms=10)],
            window_s=60.0, max_samples=6, clock=clock,
        )
        for _ in range(5):
            tracker.sample(registry)  # min gap 10s; only 1 lands
        assert len(tracker._samples) == 1

    def test_export_mirrors_gauges(self):
        registry, hist = _latency_registry()
        for _ in range(4):
            hist.observe(5, endpoint="render")
        tracker = SloTracker(
            default_service_objectives(render_ms=250.0),
            clock=FakeClock(),
        )
        tracker.export(registry)
        assert registry.value(
            "repro_slo_target", objective="render_latency"
        ) == 0.99
        assert registry.value(
            "repro_slo_burn_rate", objective="render_latency"
        ) == 0.0

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SloTracker([
                LatencyObjective("x", "m_ms", threshold_ms=10),
                LatencyObjective("x", "m_ms", threshold_ms=20),
            ])


# -- flight recorder ---------------------------------------------------------


class TestFlight:
    def test_ring_evicts_oldest(self):
        flight = FlightRecorder(capacity=3)
        for i in range(5):
            flight.record(request_id="r-%d" % i, status=200, ms=1.0)
        assert len(flight) == 3
        assert flight.dropped == 2
        assert flight.recorded == 5
        assert [e["seq"] for e in flight.entries()] == [2, 3, 4]

    def test_tail_sampling_keeps_interesting_spans_only(self):
        flight = FlightRecorder(capacity=8, slow_ms=250.0)
        spans = [{"name": "serve.request"}]
        healthy = flight.record(status=200, ms=1.0, spans=spans)
        failed = flight.record(status=500, ms=1.0, spans=spans)
        slow = flight.record(status=200, ms=900.0, spans=spans)
        assert "spans" not in healthy
        assert failed["spans"] == spans
        assert slow["spans"] == spans
        dump = flight.as_dict()
        assert dump["span_trees"] == 2

    def test_span_trees_bounded(self):
        flight = FlightRecorder(capacity=8, slow_ms=0.0, max_span_trees=2)
        for i in range(4):
            flight.record(status=200, ms=1.0, spans=[{"i": i}])
        entries = flight.entries()
        assert [("spans" in e) for e in entries] == [
            False, False, True, True,
        ]

    def test_interesting_predicate(self):
        flight = FlightRecorder(slow_ms=250.0)
        assert not flight.interesting(200, 1.0)
        assert flight.interesting(429, 1.0)
        assert flight.interesting(503, 1.0)
        assert flight.interesting(200, 250.0)
        assert not FlightRecorder(max_span_trees=0).interesting(500, 999.0)

    def test_flag_derivation(self):
        flight = FlightRecorder(slow_ms=100.0)
        shed = flight.record(status=429, ms=1.0)
        error = flight.record(status=500, ms=1.0)
        slow = flight.record(status=200, ms=150.0)
        assert shed["shed"] and not shed["error"]
        assert error["error"] and not error["shed"]
        assert slow["slow"] and not slow["error"]


# -- incident request-id stamping --------------------------------------------


class TestIncidentStamping:
    def test_fault_log_stamps_ambient_request_id(self):
        log = FaultLog()
        with request_context("req-9"):
            log.record("load", 3, None, "boom", 17)
        log.record("adjust", 4, None, "later", 5)
        first, second = log.incidents
        assert first.request_id == "req-9"
        assert first.as_dict()["request_id"] == "req-9"
        assert second.request_id is None

    def test_supervisor_incident_stamps_ambient_request_id(self):
        supervisor = RenderSupervisor(obs=NULL_OBS)
        with request_context("req-11"):
            supervisor._record_incident(
                ("s", "p"), "load", "batch", "fault", "boom"
            )
        incidents = supervisor.health()["incidents"]
        assert incidents[-1]["request_id"] == "req-11"


# -- cross-process span propagation (fork pool) ------------------------------


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


def _fork_session(index, obs=None, policy=None, workers=2, tile=12):
    return RenderSession(
        index, width=8, height=6, backend="batch", workers=workers,
        tile=tile, pool_policy=policy, obs=obs,
    )


class ScriptedInjector(FaultInjector):
    def __init__(self, directives):
        FaultInjector.__init__(self, proc_rate=1.0)
        self.directives = dict(directives)

    def proc_fault(self, chunk):
        fault = self.directives.get(chunk)
        if fault is not None:
            self.injected.append(("proc", chunk, None, fault[0]))
        return fault


def _worker_spans(tracer, name):
    return [s for s in tracer.spans if s.name == name]


def _tiles_by_phase(tracer):
    """Worker-recorded tile indices grouped by render phase (the
    phase attr lives on the parent ``worker.chunk`` span)."""
    parents = {s.sid: s for s in tracer.spans}
    grouped = {}
    for span in tracer.spans:
        if span.name == "worker.tile":
            phase = parents[span.parent].attrs.get("phase")
            grouped.setdefault(phase, []).append(span.attrs["tile"])
    return grouped


@requires_numpy
@requires_fork
class TestForkSpanPropagation:
    def test_worker_spans_merge_under_one_trace(self):
        param = _params_of(1)[0]
        obs = Observability()
        session = _fork_session(1, obs=obs)
        with request_context("req-42"):
            edit = session.begin_edit(param)
            _drag(session, edit, param)
        tracer = obs.tracer
        chunks = _worker_spans(tracer, "worker.chunk")
        tiles = _worker_spans(tracer, "worker.tile")
        parents = {s.sid: s for s in tracer.spans}
        assert chunks and tiles
        # Every worker span ran at a real worker pid, not the parent's.
        for span in chunks + tiles:
            assert span.pid != os.getpid() and span.pid is not None
        # One trace id covers ingress to worker tile.
        for span in chunks + tiles:
            assert span.attrs["trace"] == "req-42"
        # Worker chunks hang off the parent-side render.tile spans.
        for span in chunks:
            assert parents[span.parent].name == "render.tile"
            assert span.depth == parents[span.parent].depth + 1
        # Tiles hang off their chunk and carry per-tile cost.
        for span in tiles:
            assert parents[span.parent].name == "worker.chunk"
            assert span.attrs["cost"] > 0
        # The 8x6 frame at tile=12 splits into 6 tiles striped across
        # 2 workers; each phase records every tile exactly once.
        seen = _tiles_by_phase(tracer)
        assert sorted(seen["load"]) == [0, 1, 2, 3, 4, 5]
        assert sorted(seen["adjust"]) == [0, 1, 2, 3, 4, 5]

    def test_chrome_export_separates_processes(self):
        param = _params_of(1)[0]
        obs = Observability()
        session = _fork_session(1, obs=obs)
        with request_context("req-chrome"):
            edit = session.begin_edit(param)
            _drag(session, edit, param)
        document = to_chrome_trace(obs.tracer, as_text=False)
        names = {
            e["args"]["name"]: e["pid"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names.get("repro") == 1
        assert "repro worker" in names
        worker_pids = {
            e["pid"] for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("worker.")
        }
        assert worker_pids and 1 not in worker_pids

    def test_spans_survive_worker_kill_without_dupes(self):
        param = _params_of(3)[0]
        base = RenderSession(3, width=8, height=6, backend="batch")
        ebase = base.begin_edit(param)
        load_a, adj_a = _drag(base, ebase, param)
        obs = Observability()
        policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=99)
        session = _fork_session(3, obs=obs, policy=policy)
        edit = session.begin_edit(
            param, injector=ScriptedInjector({0: ("kill", None)})
        )
        with request_context("req-kill"):
            load_b, adj_b = _drag(session, edit, param)
        _assert_equal(load_a, load_b, "kill-recovered load")
        _assert_equal(adj_a, adj_b, "adjust after recovery")
        assert session.pool.health()["lost_workers"]["crash"] == 1
        # The killed worker's spans never arrive; redispatched tiles
        # are recorded exactly once by the surviving worker.
        seen = _tiles_by_phase(obs.tracer)
        assert sorted(seen["load"]) == [0, 1, 2, 3, 4, 5]
        assert sorted(seen["adjust"]) == [0, 1, 2, 3, 4, 5]
        for span in _worker_spans(obs.tracer, "worker.tile"):
            assert span.attrs["trace"] == "req-kill"

    def test_spans_survive_worker_hang_without_dupes(self):
        param = _params_of(3)[0]
        base = RenderSession(3, width=8, height=6, backend="batch")
        ebase = base.begin_edit(param)
        load_a, adj_a = _drag(base, ebase, param)
        obs = Observability()
        policy = P.PoolPolicy(deadline_ms=300.0, quarantine_threshold=99)
        session = _fork_session(3, obs=obs, policy=policy)
        edit = session.begin_edit(
            param, injector=ScriptedInjector({0: ("hang", 30.0)})
        )
        with request_context("req-hang"):
            load_b, adj_b = _drag(session, edit, param)
        _assert_equal(load_a, load_b, "hang-recovered load")
        _assert_equal(adj_a, adj_b, "adjust after recovery")
        assert session.pool.health()["lost_workers"]["hang"] == 1
        seen = _tiles_by_phase(obs.tracer)
        assert sorted(seen["load"]) == [0, 1, 2, 3, 4, 5]
        assert sorted(seen["adjust"]) == [0, 1, 2, 3, 4, 5]

    def test_total_loss_falls_back_to_traced_inline_tiles(self):
        param = _params_of(3)[0]
        base = RenderSession(3, width=8, height=6, backend="batch")
        ebase = base.begin_edit(param)
        load_a, _ = _drag(base, ebase, param)
        obs = Observability()
        policy = P.PoolPolicy(deadline_ms=5000.0, quarantine_threshold=99)
        session = _fork_session(3, obs=obs, policy=policy)
        edit = session.begin_edit(
            param,
            injector=ScriptedInjector({
                0: ("kill", None), 1: ("kill", None),
            }),
        )
        with request_context("req-inline"):
            load_b = edit.load(session.controls)
        _assert_equal(load_a, load_b, "inline-recovered load")
        inline = [
            s for s in obs.tracer.spans
            if s.name == "render.tile" and s.attrs.get("inline")
        ]
        assert sorted(s.attrs["tile"] for s in inline) == [0, 1, 2, 3, 4, 5]
        for span in inline:
            assert span.attrs["trace"] == "req-inline"

    def test_disabled_obs_ships_no_trace_context(self, monkeypatch):
        captured = []
        original = P.WorkerPool.send

        def spy(self, worker, payload):
            if isinstance(payload, dict):
                captured.append(payload)
            return original(self, worker, payload)

        monkeypatch.setattr(P.WorkerPool, "send", spy)
        param = _params_of(1)[0]
        session = _fork_session(1, obs=None)
        edit = session.begin_edit(param)
        _drag(session, edit, param)
        assert captured, "expected pooled dispatches"
        assert all("trace" not in payload for payload in captured)
        assert len(NULL_TRACER) == 0 and NULL_TRACER.spans == ()

    def test_injected_clock_ships_no_trace_context(self, monkeypatch):
        # A tracer on a fake clock cannot share a timeline with fork
        # children; the payload must not grow a trace key.
        captured = []
        original = P.WorkerPool.send

        def spy(self, worker, payload):
            if isinstance(payload, dict):
                captured.append(payload)
            return original(self, worker, payload)

        monkeypatch.setattr(P.WorkerPool, "send", spy)
        obs = Observability(clock=FakeClock())
        param = _params_of(1)[0]
        session = _fork_session(1, obs=obs)
        edit = session.begin_edit(param)
        _drag(session, edit, param)
        assert captured
        assert all("trace" not in payload for payload in captured)
        assert not _worker_spans(obs.tracer, "worker.tile")


# -- daemon end-to-end -------------------------------------------------------


def _serve(service):
    from repro.serve import start_server

    server, thread = start_server(service)
    host, port = server.server_address[:2]
    from repro.serve import ServiceClient

    client = ServiceClient("http://%s:%d" % (host, port))
    return server, thread, client


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


def _config(tmp_path, **overrides):
    from repro.serve import ServiceConfig

    overrides.setdefault("store_dir", str(tmp_path / "store"))
    overrides.setdefault("recover", False)
    return ServiceConfig(**overrides)


class TestServeTracing:
    def test_request_id_echoed_on_success_and_error(self, tmp_path):
        from repro.serve import RenderService
        from repro.serve.client import ClientError

        service = RenderService(_config(tmp_path))
        server, thread, client = _serve(service)
        try:
            _, _, headers = client.request("GET", "/health")
            minted = headers.get("X-Repro-Request-Id")
            assert minted and minted.startswith("r-")
            _, _, headers = client.request(
                "GET", "/health",
                headers={"X-Repro-Request-Id": "req-mine"},
            )
            assert headers["X-Repro-Request-Id"] == "req-mine"
            with pytest.raises(ClientError) as err:
                client.request(
                    "GET", "/no/such/route",
                    headers={"X-Repro-Request-Id": "req-404"},
                )
            assert err.value.status == 404
            assert err.value.headers["X-Repro-Request-Id"] == "req-404"
        finally:
            _stop(server, thread)

    def test_health_metrics_and_flight_surface_slo_state(self, tmp_path):
        from repro.serve import RenderService

        service = RenderService(_config(tmp_path, flight_slow_ms=0.0))
        server, thread, client = _serve(service)
        try:
            session = client.create_session(1, width=8, height=6)
            client.render(session["session"])
            health = client.health()
            slo = {o["name"]: o for o in health["slo"]["objectives"]}
            entry = slo["render_latency"]
            assert entry["lifetime"]["target"] == 0.99
            assert entry["lifetime"]["count"] >= 1
            assert health["service"]["flight"]["recorded"] >= 2
            metrics = client.metrics()
            assert "repro_slo_burn_rate" in metrics
            assert "repro_slo_attainment" in metrics
            dump = client.flight()
            rendered = [
                e for e in dump["entries"] if e["endpoint"] == "render"
            ]
            assert rendered and rendered[-1]["status"] == 200
            # slow_ms=0 makes every request "interesting": the span
            # tree rides along, rooted at serve.request.
            names = {s["name"] for s in rendered[-1]["spans"]}
            assert "serve.request" in names
        finally:
            _stop(server, thread)

    @requires_numpy
    @requires_fork
    def test_daemon_merges_worker_spans_under_client_trace_id(
        self, tmp_path
    ):
        from repro.serve import RenderService

        service = RenderService(_config(
            tmp_path, backend="batch", workers="fork:2", tile=12,
            flight_slow_ms=0.0,
        ))
        server, thread, client = _serve(service)
        try:
            session = client.create_session(1, width=8, height=6)
            sid = session["session"]
            for rid in ("req-golden-1", "req-golden-2"):
                _, payload, headers = client.request(
                    "POST", "/sessions/%s/render" % sid, {},
                    headers={"X-Repro-Request-Id": rid},
                )
                assert headers["X-Repro-Request-Id"] == rid
                assert payload["phase"] in ("load", "adjust")
            tracer = service.obs.tracer
            tiles = [
                s for s in tracer.spans
                if s.name == "worker.tile"
                and s.attrs.get("trace") == "req-golden-1"
            ]
            assert sorted(s.attrs["tile"] for s in tiles) == [
                0, 1, 2, 3, 4, 5,
            ]
            assert {s.pid for s in tiles} and os.getpid() not in {
                s.pid for s in tiles
            }
            # The ingress span closed with the routed endpoint/status.
            ingress = [
                s for s in tracer.spans
                if s.name == "serve.request"
                and s.attrs.get("trace") == "req-golden-1"
            ]
            assert len(ingress) == 1
            assert ingress[0].attrs["endpoint"] == "render"
            assert ingress[0].attrs["status"] == 200
            # One merged Chrome trace separates daemon and workers.
            document = to_chrome_trace(tracer, as_text=False)
            processes = {
                e["args"]["name"]
                for e in document["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"
            }
            assert processes == {"repro", "repro worker"}
            # The flight entry for the request carries worker spans.
            dump = service.flight_dump()
            entry = [
                e for e in dump["entries"]
                if e["request_id"] == "req-golden-1"
            ][0]
            span_names = {s["name"] for s in entry["spans"]}
            assert "worker.tile" in span_names
            assert entry["rung"] if "rung" in entry else True
        finally:
            _stop(server, thread)
            service.drain()
