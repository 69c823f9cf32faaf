"""Tests for the fault-tolerant render service (``repro serve``).

Covers the tentpole's robustness contract at every layer:

* the crash-safe shared :class:`~repro.serve.store.ArtifactStore`
  (build-once under concurrency, lock stealing, startup recovery),
* :class:`~repro.serve.service.Admission` (immediate 429-style
  shedding with deterministic seeded Retry-After, never a hang),
* :class:`~repro.serve.service.RenderService` lifecycle (tenant
  quotas, idle reaping in virtual time, drain idempotence,
  byte-identical frames vs in-process rendering),
* the stdlib HTTP layer end-to-end, and
* the real daemon under SIGTERM (exits 0, no ``repro_shm_*`` segments
  or store lockfiles left behind).
"""

import glob
import http.client
import io
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.core import persist
from repro.lang.errors import ArtifactError
from repro.serve import (
    Admission,
    ArtifactStore,
    DrainingError,
    LoadShedError,
    RenderService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SessionNotFound,
    start_server,
)
from repro.serve.client import ClientError
from repro.runtime.colors import ColorColumn
from repro.serve.http import FRAME_MEDIA_TYPE, encode_reply
from repro.shaders import render as R
from repro.shaders.render import RenderSession

from tests.helpers import (
    SPECIAL_FLOAT_BITS,
    special_float_rows,
    specialize_source,
)


DOTPROD = """
float dotprod(float x1, float y1, float z1,
              float x2, float y2, float z2, float scale) {
    if (scale != 0.0) {
        return (x1*x2 + y1*y2 + z1*z2) / scale;
    } else {
        return -1.0;
    }
}
"""

SHADER = 1  # matte
SIZE = 8


def make_spec():
    return specialize_source(DOTPROD, "dotprod", {"z1", "z2"})


def service_config(tmp_path, **overrides):
    overrides.setdefault("store_dir", str(tmp_path / "store"))
    overrides.setdefault("recover", False)
    return ServiceConfig(**overrides)


def frame_colors(image):
    return [[float(c) for c in pixel] for pixel in image.colors]


def reference_frames(param_updates, shader=SHADER, size=SIZE):
    """In-process load + adjusts, converted exactly like the service."""
    session = RenderSession(shader, width=size, height=size)
    param = session.spec_info.control_params[0]
    edit = session.begin_edit(param)
    frames = [frame_colors(edit.load(session.controls))]
    for value in param_updates:
        frames.append(
            frame_colors(edit.adjust(session.controls_with(**{param: value})))
        )
    return param, frames


class TestArtifactStore:
    def test_build_once_then_memo(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        calls = []

        def builder():
            calls.append(1)
            return make_spec()

        key = "k" * 64
        spec1 = store.get_or_build(key, builder)
        spec2 = store.get_or_build(key, builder)
        assert spec1 is spec2
        assert len(calls) == 1
        assert store.builds == 1 and store.hits == 1

    def test_forget_reloads_from_disk(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "k" * 64
        store.get_or_build(key, make_spec)
        store.forget()
        spec = store.get_or_build(key, lambda: pytest.fail("rebuilt"))
        assert store.loads == 1
        result, cache, _ = spec.run_loader([1, 2, 3, 4, 5, 6, 2.0])
        out, _ = spec.run_reader(cache, [1, 2, 3, 4, 5, 6, 2.0])
        assert out == result

    def test_concurrent_threads_build_once(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "k" * 64
        calls = []
        lock = threading.Lock()

        def builder():
            with lock:
                calls.append(1)
            time.sleep(0.02)
            return make_spec()

        results = []

        def worker():
            # Fresh stores share only the directory — cross-process
            # shape, in-thread speed.
            local = ArtifactStore(str(tmp_path))
            results.append(local.get_or_build(key, builder))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len(results) == 6
        assert not store.lock_files()

    def test_store_key_is_stable_and_distinct(self):
        spec = make_spec()
        key1 = persist.store_key(
            DOTPROD, "dotprod", {"z1", "z2"}, spec.options
        )
        key2 = persist.store_key(
            DOTPROD, "dotprod", {"z2", "z1"}, spec.options
        )
        key3 = persist.store_key(
            DOTPROD, "dotprod", {"scale"}, spec.options
        )
        assert key1 == key2  # varying-set order is canonicalized
        assert key1 != key3
        assert re.match(r"^[0-9a-f]{64}$", key1)

    def test_stale_lock_of_dead_owner_is_stolen(self, tmp_path):
        directory = str(tmp_path / "art")
        os.makedirs(directory)
        # PIDs just below the default max are effectively never live.
        with open(os.path.join(directory, ".lock"), "w") as handle:
            handle.write("4194303\n")
        with persist.ArtifactLock(directory, timeout_s=2.0):
            pass  # acquiring proves the dead owner's lock was stolen
        assert not os.path.exists(os.path.join(directory, ".lock"))

    def test_live_lock_times_out_instead_of_hanging(self, tmp_path):
        directory = str(tmp_path / "art")
        lock = persist.ArtifactLock(directory)
        lock.acquire()
        try:
            contender = persist.ArtifactLock(
                directory, timeout_s=0.2, poll_s=0.02
            )
            with pytest.raises(ArtifactError, match="timed out"):
                contender.acquire()
        finally:
            lock.release()

    def test_save_is_idempotent_under_lock(self, tmp_path):
        spec = make_spec()
        directory = str(tmp_path / "art")
        persist.save_specialization(spec, directory)
        before = persist.verified_fingerprint(directory)
        persist.save_specialization(spec, directory)  # re-verifies, skips
        assert persist.verified_fingerprint(directory) == before

    def test_recover_repairs_and_drops(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        good = store.get_or_build("a" * 64, make_spec)
        store.get_or_build("b" * 64, make_spec)
        store.get_or_build("c" * 64, make_spec)
        # b: repairable damage (loader corrupted, fragment survives).
        with open(store.path_for("b" * 64) + "/loader.ds", "a") as handle:
            handle.write("// bitrot\n")
        # c: beyond repair (fragment itself gone).
        os.remove(store.path_for("c" * 64) + "/fragment.ds")
        os.remove(store.path_for("c" * 64) + "/spec.json")
        # a: a crashed builder's stale lock.
        with open(store.path_for("a" * 64) + "/.lock", "w") as handle:
            handle.write("4194303\n")
        summary = store.recover(stale_s=0.0)
        assert summary["artifacts"] == 3
        assert summary["verified"] >= 1
        assert summary["respecialized"] == 1
        assert summary["dropped"] == 1
        assert summary["stale_locks"] == 1
        assert not store.lock_files()
        # The repaired artifact loads; the dropped one rebuilds.
        reloaded = store.get_or_build(
            "b" * 64, lambda: pytest.fail("should load repaired")
        )
        assert reloaded.layout.describe() == good.layout.describe()
        rebuilt = store.get_or_build("c" * 64, make_spec)
        assert rebuilt is not None


class TestAdmission:
    def test_sheds_at_bound_with_deterministic_jitter(self):
        admission = Admission(2, retry_after_s=0.5, seed=7)
        p1 = admission.admit("a")
        admission.admit("b")
        with pytest.raises(LoadShedError) as err:
            admission.admit("c")
        expected = 0.5 * (
            1.0 + random.Random("%r|shed|%d" % (7, 1)).random()
        )
        assert err.value.scope == "inflight"
        assert err.value.retry_after_s == pytest.approx(expected)
        assert 0.5 <= err.value.retry_after_s < 1.0
        assert admission.shed == {"inflight": 1}
        # Releasing frees the slot immediately — no queue, no hang.
        p1.__exit__(None, None, None)
        with admission.admit("c"):
            pass

    def test_tenant_quota_scope(self):
        admission = Admission(8, tenant_inflight=1, seed=0)
        with admission.admit("a"):
            with pytest.raises(LoadShedError) as err:
                admission.admit("a")
            assert err.value.scope == "tenant_inflight"
            with admission.admit("b"):  # other tenants unaffected
                pass

    def test_jitter_sequence_advances(self):
        admission = Admission(0, retry_after_s=0.5, seed=7)
        hints = set()
        for _ in range(4):
            with pytest.raises(LoadShedError) as err:
                admission.admit("a")
            hints.add(err.value.retry_after_s)
        assert len(hints) == 4  # per-shed jitter, not one constant


class TestServiceLifecycle:
    def test_load_then_adjust_byte_identical_to_in_process(self, tmp_path):
        service = RenderService(service_config(tmp_path), obs=False)
        param, expected = reference_frames([2.0, 0.75])
        created = service.create_session("t1", SHADER, SIZE, SIZE)
        sid = created["session"]
        assert created["params"][0] == param
        got = [service.render(sid, param=param)]
        got.append(service.render(sid, controls={param: 2.0}))
        got.append(service.render(sid, controls={param: 0.75}))
        assert got[0]["phase"] == "load"
        assert got[1]["phase"] == "adjust"
        assert [g["colors"].tolist() for g in got] == expected

    def test_tenants_share_one_store_build(self, tmp_path):
        service = RenderService(service_config(tmp_path), obs=False)
        a = service.create_session("alice", SHADER, SIZE, SIZE)["session"]
        b = service.create_session("bob", SHADER, SIZE, SIZE)["session"]
        fa = service.render(a)
        fb = service.render(b)
        assert fa["colors"] == fb["colors"]
        assert service.store.builds == 1
        assert service.store.stats()["artifacts"] == 1

    def test_json_roundtrip_of_frames_is_exact(self, tmp_path):
        service = RenderService(service_config(tmp_path), obs=False)
        sid = service.create_session("t", SHADER, SIZE, SIZE)["session"]
        payload = service.render(sid)
        body, content_type = encode_reply(payload)
        assert content_type == "application/json"
        again = json.loads(body)
        assert again["colors"] == payload["colors"].tolist()

    def test_per_tenant_supervisors_are_isolated(self, tmp_path):
        service = RenderService(service_config(tmp_path), obs=False)
        service.create_session("alice", SHADER, SIZE, SIZE)
        service.create_session("bob", SHADER, SIZE, SIZE)
        assert (
            service._supervisors["alice"]
            is not service._supervisors["bob"]
        )

    def test_session_quotas_shed(self, tmp_path):
        service = RenderService(
            service_config(tmp_path, max_sessions=2, tenant_sessions=1),
            obs=False,
        )
        service.create_session("a", SHADER, SIZE, SIZE)
        with pytest.raises(LoadShedError) as err:
            service.create_session("a", SHADER, SIZE, SIZE)
        assert err.value.scope == "tenant_sessions"
        service.create_session("b", SHADER, SIZE, SIZE)
        with pytest.raises(LoadShedError) as err:
            service.create_session("c", SHADER, SIZE, SIZE)
        assert err.value.scope == "sessions"

    def test_bad_requests_are_typed(self, tmp_path):
        service = RenderService(service_config(tmp_path), obs=False)
        with pytest.raises(ServiceError):
            service.create_session("t", "no-such-shader")
        with pytest.raises(ServiceError):
            service.create_session("t", SHADER, 1000, 1000)  # max_pixels
        sid = service.create_session("t", SHADER, SIZE, SIZE)["session"]
        with pytest.raises(ServiceError):
            service.render(sid, controls={"bogus": 1.0})
        with pytest.raises(SessionNotFound):
            service.render("s999999")
        with pytest.raises(SessionNotFound):
            service.close_session("s999999")

    def test_idle_reaping_in_virtual_time(self, tmp_path):
        clock = [0.0]
        service = RenderService(
            service_config(tmp_path, idle_timeout_s=10.0),
            obs=False, clock=lambda: clock[0], sleep=lambda s: None,
        )
        sid = service.create_session("t", SHADER, SIZE, SIZE)["session"]
        clock[0] = 5.0
        service.render(sid)  # touches last_used
        clock[0] = 14.0
        assert service.reap_idle() == []  # idle 9s < 10s
        clock[0] = 16.0
        assert service.reap_idle() == [sid]
        assert service.list_sessions()["sessions"] == []

    def test_drain_is_idempotent_and_refuses_new_work(self, tmp_path):
        service = RenderService(
            service_config(tmp_path), obs=False,
            sleep=lambda s: None,
        )
        sid = service.create_session("t", SHADER, SIZE, SIZE)["session"]
        service.render(sid)
        first = service.drain(timeout_s=0.1)
        assert first["drained"] and first["closed_sessions"] == 1
        assert not first["timed_out"]
        with pytest.raises(DrainingError) as err:
            service.create_session("t", SHADER, SIZE, SIZE)
        assert err.value.status == 503
        assert err.value.retry_after_s > 0
        with pytest.raises(DrainingError):
            service.render(sid)
        assert service.drain() == first  # second call: cached summary
        assert not service.store.lock_files()

    def test_service_owns_one_pool(self, tmp_path):
        """Every hosted session renders on the service's one pool:
        ``fork:2`` with three sessions is two worker processes, and
        ``drain()`` leaves no worker, arena or segment behind."""
        import multiprocessing

        from repro.runtime import batch as B
        from repro.runtime import parallel as P

        if not P._pool_available():
            pytest.skip("fork/shm pool unavailable")
        prefix = "repro_shm_%d_" % os.getpid()
        service = RenderService(
            service_config(tmp_path, backend="batch", workers="fork:2",
                           tile=16),
            obs=False,
        )
        assert service.pool.health()["workers"]["alive"] == 0
        for tenant in ("a", "b", "c"):
            sid = service.create_session(tenant, 3, 8, 8)["session"]
            service.render(sid)
            service.render(sid)
        assert len(multiprocessing.active_children()) == 2
        assert service.pool.health()["runs"] == 6
        service.drain()
        assert multiprocessing.active_children() == []
        assert B.shm_resident_bytes() == 0
        assert not [f for f in os.listdir("/dev/shm") if f.startswith(prefix)]

    def test_small_frames_fork_no_worker(self, tmp_path):
        """A ``fork:2`` service resolves 64x64 sessions to the untiled
        plan: no worker forks, and the colours and costs equal those of
        the same service with an explicit tile (which does pool)."""
        import multiprocessing

        from repro.runtime import parallel as P

        if not P._pool_available():
            pytest.skip("fork/shm pool unavailable")

        def serve(tile, store):
            service = RenderService(
                service_config(tmp_path, store_dir=str(tmp_path / store),
                               backend="batch", workers="fork:2",
                               tile=tile),
                obs=False,
            )
            try:
                sid = service.create_session("t", 3, 64, 64)["session"]
                replies = [
                    service.render(sid, param="veinfreq",
                                   controls={"veinfreq": value})
                    for value in (5.0, 7.0, 9.0)
                ]
                replies.append(service.render(sid, controls={"b1": 0.9}))
                forked = len(multiprocessing.active_children())
                return [
                    (r["path"], r["cost"], r["colors"].to_wire()["b64"])
                    for r in replies
                ], forked
            finally:
                service.drain()

        untiled, forked = serve(None, "untiled")
        tiled, pooled = serve(P.DEFAULT_TILE, "tiled")
        assert forked == 0 and pooled == 2
        assert untiled == tiled
        assert [path for path, _, _ in untiled] == [
            "full", "adjust", "adjust", "full",
        ]

    def test_inflight_gauge_ends_at_zero(self, tmp_path, monkeypatch):
        """Two renders that finish together: the gauge must show the
        count their releases left, not a count read before them."""
        service = RenderService(service_config(tmp_path), obs=True)
        sids = [
            service.create_session("t", SHADER, SIZE, SIZE)["session"]
            for _ in range(2)
        ]
        barrier = threading.Barrier(2, timeout=30.0)
        real_release = Admission.release

        def release(self, tenant):
            barrier.wait()
            real_release(self, tenant)

        monkeypatch.setattr(Admission, "release", release)
        errors = []

        def render(sid):
            try:
                service.render(sid)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=render, args=(sid,)) for sid in sids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert service.admission.inflight == 0
        assert service.obs.registry.value("repro_serve_inflight") == 0

    def test_shed_scopes_reach_health(self, tmp_path):
        service = RenderService(
            service_config(tmp_path, max_inflight=0), obs=False
        )
        sid = service.create_session("t", SHADER, SIZE, SIZE)["session"]
        with pytest.raises(LoadShedError):
            service.render(sid)
        health = service.health()
        assert health["service"]["admission"]["shed"] == {"inflight": 1}
        assert health["service"]["sessions"]["count"] == 1
        assert "t" in health["tenants"]


class TestStartupRecovery:
    def test_recovers_corrupt_store_and_serves(self, tmp_path):
        # Session one populates the store, then "crashes" mid-write:
        # a corrupt artifact plus a stale lock from a dead pid.
        config = service_config(tmp_path)
        seeded = RenderService(config, obs=False)
        sid = seeded.create_session("t", SHADER, SIZE, SIZE)["session"]
        before = seeded.render(sid)["colors"]
        store_dir = seeded.store.root
        [artifact] = [
            os.path.join(store_dir, name)
            for name in os.listdir(store_dir)
            if os.path.isdir(os.path.join(store_dir, name))
        ]
        with open(os.path.join(artifact, "reader.ds"), "a") as handle:
            handle.write("// torn write\n")
        with open(os.path.join(artifact, ".lock"), "w") as handle:
            handle.write("4194303\n")

        service = RenderService(
            ServiceConfig(store_dir=store_dir, recover=True), obs=False
        )
        recovery = service.recovery["store"]
        assert recovery["respecialized"] == 1
        assert recovery["stale_locks"] == 1
        assert not service.store.lock_files()
        sid = service.create_session("t", SHADER, SIZE, SIZE)["session"]
        assert service.render(sid)["colors"] == before
        assert service.store.builds == 0  # recovered, not rebuilt


@pytest.fixture()
def http_service(tmp_path):
    service = RenderService(
        service_config(tmp_path, max_inflight=4), obs=True
    )
    server, thread = start_server(service)
    host, port = server.server_address[:2]
    client = ServiceClient("http://%s:%d" % (host, port), timeout_s=10.0)
    try:
        yield service, client
    finally:
        client.disconnect()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


#: Drag ``veinfreq`` on shader 3, move the non-dragged ``b1`` (no
#: ``param``), then drag once more: (request controls, phase, path).
NON_DRAGGED_MOVE = [
    ({}, "load", "full"),
    ({"veinfreq": 7.0}, "adjust", "adjust"),
    ({"b1": 0.9}, "load", "full"),
    ({"b1": 0.9, "veinfreq": 9.0}, "adjust", "adjust"),
]


def assert_non_dragged_move_is_fresh(render):
    """Every reply of :data:`NON_DRAGGED_MOVE` through ``render(param,
    controls)`` carries exactly ``render_reference``'s colour bits, and
    the ``phase`` and ``path`` the move calls for."""
    np = pytest.importorskip("numpy")
    reference = RenderSession(3, width=SIZE, height=SIZE)
    replies = [
        render("veinfreq" if step == 0 else None, controls)
        for step, (controls, _, _) in enumerate(NON_DRAGGED_MOVE)
    ]
    for reply, (controls, _, _) in zip(replies, NON_DRAGGED_MOVE):
        want = reference.render_reference(
            reference.controls_with(**controls)
        ).colors
        got = np.asarray(reply["colors"], dtype=np.float64)
        assert got.view(np.uint64).tolist() == np.asarray(
            want
        ).view(np.uint64).tolist(), "stale colours after %r" % (controls,)
    assert [(r["phase"], r.get("path")) for r in replies] == [
        (phase, path) for _, phase, path in NON_DRAGGED_MOVE
    ]


class TestNonDraggedMove:
    """A move of a control other than the dragged one reloads the
    caches: the reader never answers from a cache built under other
    invariant controls."""

    def test_in_process(self, tmp_path):
        service = RenderService(service_config(tmp_path), obs=False)
        sid = service.create_session("t", 3, SIZE, SIZE)["session"]
        try:
            assert_non_dragged_move_is_fresh(
                lambda param, controls: service.render(
                    sid, param=param, controls=controls
                )
            )
        finally:
            service.drain()

    def test_over_http_with_frame_accept(self, http_service):
        _, client = http_service
        sid = client.create_session(3, SIZE, SIZE)["session"]

        def render(param, controls):
            reply = client.render(sid, param=param, controls=controls)
            assert isinstance(reply["colors"], ColorColumn)
            return reply

        assert_non_dragged_move_is_fresh(render)
        assert client.close(sid)["closed"]


class TestHTTP:
    def test_end_to_end_byte_identity(self, http_service):
        _, client = http_service
        param, expected = reference_frames([2.0])
        created = client.create_session(SHADER, SIZE, SIZE, tenant="alice")
        sid = created["session"]
        load = client.render(sid, param=param)
        adjust = client.render(sid, controls={param: 2.0})
        assert load["phase"] == "load" and adjust["phase"] == "adjust"
        got = [load["colors"].tolist(), adjust["colors"].tolist()]
        assert got == expected
        assert client.close(sid)["closed"]

    def test_shed_returns_429_with_retry_after(self, http_service):
        service, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        # Fill the admission bound directly: deterministic, no racing
        # HTTP threads needed to provoke the shed.
        permits = [service.admission.admit("hog") for _ in range(4)]
        try:
            with pytest.raises(ClientError) as err:
                client.render(sid)
        finally:
            for permit in permits:
                permit.__exit__(None, None, None)
        assert err.value.status == 429
        assert err.value.code == "load_shed"
        assert err.value.scope == "inflight"
        assert err.value.retry_after_s > 0
        # After release the same request is served immediately.
        assert client.render(sid)["phase"] == "load"

    def test_retry_after_header_present(self, http_service):
        service, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        permits = [service.admission.admit("hog") for _ in range(4)]
        try:
            request = urllib.request.Request(
                client.base_url + "/sessions/%s/render" % sid,
                data=b"{}", method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10.0)
            assert err.value.code == 429
            assert int(err.value.headers["Retry-After"]) >= 1
        finally:
            for permit in permits:
                permit.__exit__(None, None, None)

    def test_draining_returns_503(self, http_service):
        service, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        service.drain(timeout_s=0.1)
        with pytest.raises(ClientError) as err:
            client.render(sid)
        assert err.value.status == 503
        assert err.value.code == "draining"

    def test_error_statuses(self, http_service):
        _, client = http_service
        with pytest.raises(ClientError) as err:
            client.render("s999999")
        assert err.value.status == 404
        with pytest.raises(ClientError) as err:
            client.create_session("bogus-shader")
        assert err.value.status == 400
        with pytest.raises(ClientError) as err:
            client.request("GET", "/no/such/route")
        assert err.value.status == 404

    def test_health_and_metrics_endpoints(self, http_service):
        _, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE, tenant="t")["session"]
        client.render(sid)
        health = client.health()
        assert health["service"]["sessions"]["count"] == 1
        assert health["service"]["store"]["builds"] == 1
        assert "t" in health["tenants"]
        assert health["tenants"]["t"]["requests"] == 1
        native = health["service"]["native_builtins"]
        assert native["state"] in ("loaded", "fallback", "unbuilt")
        text = client.metrics()
        assert "repro_serve_requests_total" in text
        assert 'endpoint="render"' in text
        assert "repro_serve_request_ms" in text
        assert "repro_native_builtins_loaded " in text
        listing = client.sessions()["sessions"]
        assert [entry["session"] for entry in listing] == [sid]


def plant_special_frames(monkeypatch):
    """Make every load return its frame with :func:`special_float_rows`
    over the first pixels; returns the list the served images go to."""
    np = pytest.importorskip("numpy")
    served = []
    real_load = R.EditSession.load

    def load(self, controls):
        image = real_load(self, controls)
        array = np.array(image.colors)
        rows = special_float_rows()
        array[:len(rows)] = rows
        image = R.Image(image.width, image.height, ColorColumn(array),
                        image.total_cost)
        served.append(image)
        return image

    monkeypatch.setattr(R.EditSession, "load", load)
    return served


class TestFrameWire:
    """Colours over real HTTP: float64 bytes for the frame ``Accept``
    (what :class:`ServiceClient` sends), unchanged JSON otherwise."""

    def test_frame_reply_is_bit_exact(self, http_service, monkeypatch):
        np = pytest.importorskip("numpy")
        served = plant_special_frames(monkeypatch)
        _, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        status, payload, headers = client.request(
            "POST", "/sessions/%s/render" % sid, {}
        )
        assert status == 200
        assert headers["Content-Type"] == FRAME_MEDIA_TYPE
        (image,) = served
        colors = payload["colors"]
        assert isinstance(colors, ColorColumn)
        data = np.asarray(colors)
        assert np.asarray(colors) is data and not data.flags.writeable
        bits = data.view(np.uint64)
        assert bits.tolist() == np.asarray(image.colors).view(
            np.uint64
        ).tolist()
        assert bits[:5].reshape(-1).tolist() == list(SPECIAL_FLOAT_BITS)

    @pytest.mark.parametrize("accept", [
        None, "application/json", "*/*", FRAME_MEDIA_TYPE + ";q=0",
        "application/json, " + FRAME_MEDIA_TYPE,
    ])
    def test_other_accepts_keep_json_bytes(self, http_service, monkeypatch,
                                           accept):
        served = plant_special_frames(monkeypatch)
        payloads = []
        real_render = RenderService.render

        def render(self, *args, **kwargs):
            payloads.append(real_render(self, *args, **kwargs))
            return payloads[-1]

        monkeypatch.setattr(RenderService, "render", render)
        _, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        headers = {"Content-Type": "application/json"}
        if accept is not None:
            headers["Accept"] = accept
        request = urllib.request.Request(
            client.base_url + "/sessions/%s/render" % sid,
            data=b"{}", method="POST", headers=headers,
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            body = response.read()
            content_type = response.headers["Content-Type"]
        (image,), (payload,) = served, payloads
        expected = dict(payload, colors=frame_colors(image))
        assert content_type == "application/json"
        assert body == (
            json.dumps(expected, sort_keys=True) + "\n"
        ).encode("utf-8")

    def test_errors_under_frame_accept_are_json(self, http_service):
        service, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        with pytest.raises(ClientError) as missing:
            client.render("s999999")
        permits = [service.admission.admit("hog") for _ in range(4)]
        try:
            with pytest.raises(ClientError) as shed:
                client.render(sid)
        finally:
            for permit in permits:
                permit.__exit__(None, None, None)
        service.drain(timeout_s=0.1)
        with pytest.raises(ClientError) as draining:
            client.render(sid)
        got = [
            (err.value.status, err.value.code,
             err.value.headers["Content-Type"])
            for err in (missing, shed, draining)
        ]
        assert got == [
            (404, "session_not_found", "application/json"),
            (429, "load_shed", "application/json"),
            (503, "draining", "application/json"),
        ]

    @pytest.mark.parametrize("breakage", ["byte_count", "dtype", "base64"])
    def test_malformed_frame_is_a_client_error(self, http_service,
                                               monkeypatch, breakage):
        real_to_wire = ColorColumn.to_wire

        def to_wire(self):
            wire = real_to_wire(self)
            if breakage == "byte_count":
                wire["shape"] = [wire["shape"][0] + 1, 3]
            elif breakage == "dtype":
                wire["dtype"] = "<f4"
            else:
                wire["b64"] = "!!" + wire["b64"][2:]
            return wire

        monkeypatch.setattr(ColorColumn, "to_wire", to_wire)
        _, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        with pytest.raises(ClientError) as err:
            client.render(sid)
        assert not isinstance(err.value, ValueError)
        assert err.value.status == 200
        assert err.value.code == "malformed_frame"

    def test_keep_alive_round_trips_do_not_stall(self, http_service):
        """Over one persistent connection a reply must not wait for a
        delayed ACK (Nagle holds the body behind the headers)."""
        _, client = http_service
        host, port = client.base_url.rsplit("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=10.0)
        took = []
        try:
            for _ in range(5):
                started = time.perf_counter()
                connection.request("GET", "/sessions")
                response = connection.getresponse()
                response.read()
                took.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(took) < 0.020, took

    def test_reply_encoding_counts_as_request_time(self, http_service,
                                                   monkeypatch):
        from repro.serve import http as H

        service, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        real_encode = H.encode_reply

        def slow_encode(payload, frame=False):
            if isinstance(payload, dict) and "colors" in payload:
                time.sleep(0.3)
            return real_encode(payload, frame)

        monkeypatch.setattr(H, "encode_reply", slow_encode)
        client.request("POST", "/sessions/%s/render" % sid, {},
                       headers={"X-Repro-Request-Id": "slow-encode"})
        (entry,) = [
            e for e in service.flight.entries()
            if e["request_id"] == "slow-encode"
        ]
        assert entry["ms"] >= 300.0
        total, count = service.obs.registry.value(
            "repro_serve_request_ms", endpoint="render"
        )
        assert count == 1 and total >= 300.0

    def test_local_driver_counts_reply_encoding(self, monkeypatch):
        """``repro slo`` / ``trace --flight`` without ``--url`` drive an
        in-process service through the daemon's request path, so its
        flight ``ms`` includes the reply encoding too."""
        from repro import cli
        from repro.serve import http as H

        real_encode = H.encode_reply

        def slow_encode(payload, frame=False):
            if isinstance(payload, dict) and "colors" in payload:
                time.sleep(0.3)
            return real_encode(payload, frame)

        monkeypatch.setattr(H, "encode_reply", slow_encode)
        service, store_dir = cli._drive_local_service(SHADER, SIZE, 1)
        try:
            (entry,) = service.flight.entries()
            assert entry["ms"] >= 300.0
        finally:
            cli._cleanup_local_service(service, store_dir)


def local_socket(client):
    """The local address of the calling thread's kept-alive connection."""
    return client._local.connection.sock.getsockname()


class TestKeepAlive:
    """``ServiceClient`` keeps one connection per thread."""

    def test_renders_reuse_one_socket(self, http_service):
        _, client = http_service
        created = client.create_session(SHADER, SIZE, SIZE)
        sid, param = created["session"], created["params"][0]
        first = local_socket(client)
        phases = []
        for value in (0.2, 0.3, 0.4):
            phases.append(client.render(sid, controls={param: value})["phase"])
            assert local_socket(client) == first
        assert phases == ["load", "adjust", "adjust"]

    def test_error_reply_leaves_the_connection_usable(self, http_service):
        _, client = http_service
        client.sessions()
        first = local_socket(client)
        with pytest.raises(ClientError) as err:
            client.render("s999999")
        assert err.value.status == 404
        assert client.sessions() == {"sessions": []}
        assert local_socket(client) == first

    def test_unread_request_body_closes_the_connection(self, http_service):
        """A route that never reads the body answers ``Connection:
        close``, so the body is not parsed as the next request."""
        _, client = http_service
        with pytest.raises(ClientError) as err:
            client.request("POST", "/no/such/route", {"x": 1})
        assert err.value.status == 404
        assert err.value.headers["Connection"] == "close"
        assert client.sessions() == {"sessions": []}

    def test_threads_get_their_own_connection(self, http_service):
        _, client = http_service
        client.sessions()
        sockets = [local_socket(client)]
        errors = []

        def probe():
            try:
                client.sessions()
                sockets.append(local_socket(client))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        for _ in range(2):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=30.0)
        assert errors == []
        assert len(set(sockets)) == 3

    def test_dead_port_is_status_zero(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient("http://127.0.0.1:%d" % port, timeout_s=5.0)
        with pytest.raises(ClientError) as err:
            client.health()
        assert err.value.status == 0
        assert "cannot reach" in str(err.value)

    def test_idle_connection_is_closed_and_reopened(self, http_service,
                                                   monkeypatch):
        """The daemon closes a connection idle past its timeout; the
        client's next request on it reconnects once and succeeds."""
        from repro.serve import http as H

        monkeypatch.setattr(H._Handler, "timeout", 0.2)
        _, client = http_service
        client.sessions()
        stale = client._local.connection
        first = local_socket(client)
        # The daemon closes its end after the idle timeout: EOF.
        stale.sock.settimeout(10.0)
        assert stale.sock.recv(1) == b""
        sid = client.create_session(SHADER, SIZE, SIZE)["session"]
        assert client.render(sid)["phase"] == "load"
        assert client._local.connection is not stale
        assert local_socket(client) != first


class TestHealthCLI:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_health_url_text_and_json(self, http_service):
        _, client = http_service
        sid = client.create_session(SHADER, SIZE, SIZE, tenant="t")["session"]
        client.render(sid)
        code, out = self.run_cli(["health", "--url", client.base_url])
        assert code == 0
        assert "service: serving" in out
        assert "sessions: 1/" in out
        assert "tenant t:" in out
        assert "requests served" in out  # same HealthSnapshot text
        assert "native builtins: " in out
        code, out = self.run_cli(
            ["health", "--url", client.base_url, "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tenants"]["t"]["requests"] == 1

    def test_health_requires_shader_or_url(self):
        with pytest.raises(SystemExit, match="shader index required"):
            self.run_cli(["health"])

    def test_health_url_unreachable_fails_cleanly(self):
        with pytest.raises(SystemExit, match="health probe failed"):
            self.run_cli(
                ["health", "--url", "http://127.0.0.1:1", "--timeout", "1"]
            )


class TestDaemonSignals:
    def _start_daemon(self, tmp_path, *extra):
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
            PYTHONUNBUFFERED="1",
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--store", str(tmp_path / "store"), *extra,
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=str(tmp_path),
        )
        line = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, "no announce line: %r (stderr: %s)" % (
            line, proc.stderr.read() if proc.poll() is not None else "",
        )
        return proc, "http://%s:%s" % (match.group(1), match.group(2))

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, url = self._start_daemon(tmp_path)
        try:
            client = ServiceClient(url, timeout_s=10.0, tenant="t")
            sid = client.create_session(SHADER, SIZE, SIZE)["session"]
            assert client.render(sid)["phase"] == "load"
            client.disconnect()
            pid = proc.pid
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            assert rc == 0
            tail = proc.stdout.read()
            assert "draining" in tail and "drained" in tail
            # Hygiene: nothing of this daemon survives it.
            leftovers = [
                name for name in glob.glob("/dev/shm/repro_shm_*")
                if ("_%d_" % pid) in name
            ]
            assert leftovers == []
            assert glob.glob(str(tmp_path / "store" / "*" / ".lock")) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_drain_does_not_wait_for_an_idle_connection(self, tmp_path):
        proc, url = self._start_daemon(tmp_path)
        try:
            client = ServiceClient(url, timeout_s=10.0)
            assert client.health()["service"]["draining"] is False
            # The client keeps its connection open across the drain.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert "drained" in proc.stdout.read()
            client.disconnect()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigint_also_drains(self, tmp_path):
        proc, url = self._start_daemon(tmp_path)
        try:
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
