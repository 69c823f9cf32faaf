"""The render service: multi-tenant sessions, admission, drain.

:class:`RenderService` is the transport-independent core of ``repro
serve`` — the HTTP layer (:mod:`repro.serve.http`) is a thin adapter
over it, and tests drive it in-process for determinism.
It hosts one :class:`~repro.shaders.render.RenderSession` per created
session, all sharing:

* one :class:`~repro.serve.store.ArtifactStore` (specialize once per
  shader×partition, across every tenant *and* process on the store),
* one :class:`~repro.obs.Observability` bundle (``/metrics``),
* one :class:`~repro.runtime.parallel.WorkerPool` when the plan has
  more than one worker (it forks on the first pooled frame; a session
  whose frame is at or below ``POOL_MIN_PIXELS`` with the default tile
  renders untiled and never uses it),
* one :class:`~repro.runtime.supervise.RenderSupervisor` **per
  tenant** — breakers are keyed (shader, partition), so without the
  per-tenant split one tenant's poison shader would trip the breaker
  every other tenant's identical drag routes through.

Robustness contract:

* **Admission control never hangs.**  :class:`Admission` is a counter,
  not a queue: a request over the global in-flight bound (or a
  tenant's quota) fails *immediately* with :class:`LoadShedError`
  carrying a seeded-jitter ``retry_after_s`` — callers see HTTP 429 +
  ``Retry-After``, never a stalled socket.
* **Graceful drain.**  :meth:`RenderService.drain` flips the service
  into draining (new work sheds with 503), waits out in-flight frames
  up to ``drain_timeout_s``, closes every session and the service's
  worker pool: no live worker, no ``repro_shm_*`` segment, no stray
  store lockfile.
* **Crash recovery.**  Startup reclaims shm segments orphaned by a
  previous unclean death (:func:`~repro.runtime.batch
  .reclaim_orphaned_segments`) and sweeps the artifact store
  (:meth:`~repro.serve.store.ArtifactStore.recover`).

``clock``/``sleep`` are injectable so lifecycle tests (idle reaping,
drain timeouts) run in virtual time.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time

from ..lang.errors import SpecializationError
from ..obs import resolve_obs
from ..obs.export import to_prometheus
from ..obs.flight import FlightRecorder
from ..obs.metrics import MS_BUCKETS
from ..obs.schema import canonical_endpoint
from ..obs.slo import SloTracker, default_service_objectives
from ..runtime import native
from ..runtime.faultinject import FaultInjector
from ..runtime.parallel import WorkerPool
from ..runtime.plan import ExecutionPlan
from ..runtime.supervise import RenderSupervisor, SupervisorPolicy
from ..shaders.render import RenderSession
from ..shaders.sources import SHADERS
from .store import ArtifactStore


class ServiceError(Exception):
    """A client-attributable request failure → HTTP 4xx."""

    status = 400
    code = "bad_request"


class SessionNotFound(ServiceError):
    status = 404
    code = "session_not_found"


class LoadShedError(ServiceError):
    """Admission refused the request (bounded in-flight work, session
    caps, tenant quotas).  Carries the shed ``scope`` and the seeded
    ``retry_after_s`` the transport surfaces as ``Retry-After``."""

    status = 429
    code = "load_shed"

    def __init__(self, scope, retry_after_s, detail):
        super().__init__(detail)
        self.scope = scope
        self.retry_after_s = retry_after_s


class DrainingError(ServiceError):
    """The service is draining: existing in-flight work finishes, new
    work is refused → HTTP 503 (+ Retry-After, same jitter scheme)."""

    status = 503
    code = "draining"

    def __init__(self, retry_after_s, detail="service is draining"):
        super().__init__(detail)
        self.scope = "draining"
        self.retry_after_s = retry_after_s


class ServiceConfig(object):
    """Tunables for one :class:`RenderService` (CLI flags map 1:1)."""

    def __init__(self, store_dir, max_sessions=64, max_inflight=8,
                 tenant_sessions=16, tenant_inflight=None,
                 idle_timeout_s=600.0, drain_timeout_s=10.0,
                 retry_after_s=0.5, seed=0, max_pixels=16384,
                 policy=None, backend=None, workers=None, tile=None,
                 pool_policy=None, recover=True, proc_chaos_rate=0.0,
                 proc_chaos_seed=0, slo_window_s=300.0,
                 slo_render_ms=250.0, slo_render_target=0.99,
                 slo_max_shed=0.05, flight_capacity=256,
                 flight_slow_ms=250.0, flight_span_trees=32):
        self.store_dir = store_dir
        self.max_sessions = max_sessions
        self.max_inflight = max_inflight
        self.tenant_sessions = tenant_sessions
        #: None → no per-tenant in-flight bound (the global bound still
        #: applies); an int reserves headroom from noisy tenants.
        self.tenant_inflight = tenant_inflight
        self.idle_timeout_s = idle_timeout_s
        self.drain_timeout_s = drain_timeout_s
        #: Base Retry-After; the actual hint is uniformly jittered in
        #: ``[base, 2*base)`` from the service seed so shed clients
        #: don't re-arrive in lockstep.
        self.retry_after_s = retry_after_s
        self.seed = seed
        #: Per-session frame-size ceiling (width × height): admission
        #: is per *request*, so one giant frame must not be able to
        #: smuggle unbounded work past the in-flight bound.
        self.max_pixels = max_pixels
        #: Per-tenant supervisor policy (every tenant gets its own
        #: :class:`RenderSupervisor` built from this).
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.backend = backend
        self.workers = workers
        self.tile = tile
        self.pool_policy = pool_policy
        self.recover = recover
        #: Process-level chaos (worker kill/hang/garbled) for the chaos
        #: acceptance: each session gets its own deterministically
        #: seeded injector so concurrent renders stay reproducible.
        self.proc_chaos_rate = proc_chaos_rate
        self.proc_chaos_seed = proc_chaos_seed
        #: SLO sliding window and the stock objectives' knobs (p-target
        #: fraction of render requests within ``slo_render_ms``, shed
        #: ratio at most ``slo_max_shed``).
        self.slo_window_s = slo_window_s
        self.slo_render_ms = slo_render_ms
        self.slo_render_target = slo_render_target
        self.slo_max_shed = slo_max_shed
        #: Flight-recorder ring size, slow-request threshold, and the
        #: tail-sampling bound on retained full span trees.
        self.flight_capacity = flight_capacity
        self.flight_slow_ms = flight_slow_ms
        self.flight_span_trees = flight_span_trees


class _Permit(object):
    """Releases one admitted request on ``with``-exit."""

    def __init__(self, admission, tenant):
        self._admission = admission
        self._tenant = tenant

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._admission.release(self._tenant)
        return False


class Admission(object):
    """Bounded in-flight work with immediate, jittered load shedding.

    Deliberately a counter and not a queue: there is no waiting state,
    so an overloaded service answers 429 in microseconds instead of
    holding sockets open.  The seeded RNG makes every Retry-After hint
    reproducible (``seed|shed|<ordinal>``), which the shed tests rely
    on.
    """

    def __init__(self, max_inflight, tenant_inflight=None,
                 retry_after_s=0.5, seed=0, gauge=None):
        self.max_inflight = max_inflight
        self.tenant_inflight = tenant_inflight
        self.retry_after_s = retry_after_s
        self.seed = seed
        #: Set to ``inflight`` under the lock on every admit/release,
        #: so it always shows the count the last change left.
        self.gauge = gauge
        self._lock = threading.Lock()
        self.inflight = 0
        self.by_tenant = {}
        #: Shed counts per scope (mirrored into
        #: ``repro_serve_shed_total`` by the service).
        self.shed = {}
        self._shed_seq = 0

    def admit(self, tenant):
        """Admit one request for ``tenant`` (a context manager), or
        raise :class:`LoadShedError` immediately."""
        with self._lock:
            if self.inflight >= self.max_inflight:
                raise self._shed(
                    "inflight",
                    "in-flight bound %d reached" % self.max_inflight,
                )
            held = self.by_tenant.get(tenant, 0)
            if (self.tenant_inflight is not None
                    and held >= self.tenant_inflight):
                raise self._shed(
                    "tenant_inflight",
                    "tenant %r in-flight quota %d reached"
                    % (tenant, self.tenant_inflight),
                )
            self.inflight += 1
            self.by_tenant[tenant] = held + 1
            self._publish()
        return _Permit(self, tenant)

    def release(self, tenant):
        with self._lock:
            self.inflight -= 1
            held = self.by_tenant.get(tenant, 1) - 1
            if held <= 0:
                self.by_tenant.pop(tenant, None)
            else:
                self.by_tenant[tenant] = held
            self._publish()

    def _publish(self):
        # Caller holds self._lock.
        if self.gauge is not None:
            self.gauge.set(self.inflight)

    def shed_now(self, scope, detail):
        """Record a shed decided by the service (session caps, drain)
        using the same counters and jitter stream."""
        with self._lock:
            return self._shed(scope, detail)

    def _shed(self, scope, detail):
        # Caller holds self._lock.
        self._shed_seq += 1
        self.shed[scope] = self.shed.get(scope, 0) + 1
        rng = random.Random("%r|shed|%d" % (self.seed, self._shed_seq))
        retry_after = self.retry_after_s * (1.0 + rng.random())
        if scope == "draining":
            return DrainingError(retry_after)
        return LoadShedError(scope, retry_after, detail + " (shed)")

    def snapshot(self):
        with self._lock:
            return {
                "inflight": self.inflight,
                "max_inflight": self.max_inflight,
                "tenant_inflight": self.tenant_inflight,
                "by_tenant": dict(self.by_tenant),
                "shed": dict(self.shed),
            }


class HostedSession(object):
    """One tenant-owned RenderSession plus its current drag.

    ``lock`` serializes renders on the session (two concurrent adjusts
    of one drag would race its caches); distinct sessions render
    concurrently up to the admission bound.
    """

    def __init__(self, session_id, tenant, session, injector, created):
        self.id = session_id
        self.tenant = tenant
        self.session = session
        self.injector = injector
        self.lock = threading.Lock()
        self.edit = None
        self.param = None
        self.created = created
        self.last_used = created
        self.frames = 0

    def close(self):
        if self.edit is not None:
            self.edit.close()
            self.edit = None

    def describe(self, now):
        return {
            "session": self.id,
            "tenant": self.tenant,
            "shader": self.session.spec_info.name,
            "width": self.session.scene.width,
            "height": self.session.scene.height,
            "param": self.param,
            "frames": self.frames,
            "idle_s": max(0.0, now - self.last_used),
        }


class RenderService(object):
    """See the module docstring for the robustness contract."""

    def __init__(self, config, obs=True, clock=None, sleep=None):
        self.config = config
        #: Every hosted session's execution plan, resolved once here so
        #: a bad ``backend``/``workers``/``tile`` fails construction.
        self.plan = ExecutionPlan(
            backend=config.backend, workers=config.workers,
            tile=config.tile,
        )
        self.obs = resolve_obs(obs)
        self.clock = clock if clock is not None else time.monotonic
        self.sleep = sleep if sleep is not None else time.sleep
        self.store = ArtifactStore(config.store_dir)
        #: The one worker pool every tiled hosted session renders on
        #: (None with one worker).  It keeps per-connection dispatch
        #: state, so *pooled* frame renders from different sessions must
        #: not interleave: one mutex serializes the render itself
        #: (admission still bounds how many requests hold sockets).
        #: Untiled sessions (single-worker services, the default, and
        #: frames at or below ``POOL_MIN_PIXELS``) render fully
        #: concurrently and never take it.
        self.pool = None
        self._pool_mutex = None
        if self.plan.workers > 1:
            self.pool = WorkerPool(self.plan.workers, config.pool_policy)
            self._pool_mutex = threading.Lock()
        self._lock = threading.RLock()
        self._sessions = {}
        self._supervisors = {}
        self._ordinal = 0
        self._rid_seq = 0
        self._draining = False
        self._drained = False
        self.started = self.clock()
        self.recovery = None
        #: Always-on ring of recent request summaries with tail-sampled
        #: span trees (``/debug/flight``, ``repro trace --flight``).
        self.flight = FlightRecorder(
            capacity=config.flight_capacity,
            slow_ms=config.flight_slow_ms,
            max_span_trees=config.flight_span_trees,
        )
        #: Sliding-window SLO evaluation over the live registry
        #: (``/health``, ``/metrics``, ``repro slo``).
        self.slo = SloTracker(
            default_service_objectives(
                render_ms=config.slo_render_ms,
                render_target=config.slo_render_target,
                max_shed_ratio=config.slo_max_shed,
            ),
            window_s=config.slo_window_s,
            clock=self.clock,
        )
        # Baseline snapshot: until real samples age past the window,
        # the sliding window reads "since startup" instead of empty.
        self.slo.sample(self.obs.registry)
        registry = self.obs.registry
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            "Service requests served, by endpoint and HTTP status.",
            ("endpoint", "status"),
        )
        self._m_shed = registry.counter(
            "repro_serve_shed_total",
            "Requests refused by admission control, by scope.",
            ("scope",),
        )
        self._m_inflight = registry.gauge(
            "repro_serve_inflight",
            "Render requests currently in flight.",
        )
        self.admission = Admission(
            config.max_inflight, config.tenant_inflight,
            retry_after_s=config.retry_after_s, seed=config.seed,
            gauge=self._m_inflight,
        )
        self._m_sessions = registry.gauge(
            "repro_serve_sessions",
            "Live hosted sessions, by tenant.",
            ("tenant",),
        )
        self._m_latency = registry.histogram(
            "repro_serve_request_ms",
            "Service request latency in milliseconds, by endpoint.",
            ("endpoint",), buckets=MS_BUCKETS,
        )
        if config.recover:
            self.startup_recovery()

    # -- crash recovery ------------------------------------------------------

    def startup_recovery(self):
        """Reclaim what a previous unclean shutdown left behind; safe
        (and cheap) on a clean start."""
        from ..runtime.batch import reclaim_orphaned_segments

        segments, nbytes = reclaim_orphaned_segments()
        store = self.store.recover()
        self.recovery = {
            "shm_segments": segments,
            "shm_bytes": nbytes,
            "store": store,
        }
        registry = self.obs.registry
        if segments:
            registry.counter(
                "repro_serve_recovered_shm_segments_total",
                "Orphaned shared-memory segments reclaimed at startup.",
            ).inc(segments)
        repaired = store["respecialized"] + store["dropped"]
        if repaired:
            registry.counter(
                "repro_serve_recovered_artifacts_total",
                "Store artifacts repaired or dropped by startup "
                "recovery.",
            ).inc(repaired)
        return self.recovery

    # -- session lifecycle ---------------------------------------------------

    def create_session(self, tenant, shader, width=16, height=16):
        self._check_draining()
        spec_info = self._resolve_shader(shader)
        width, height = int(width), int(height)
        if width < 1 or height < 1:
            raise ServiceError("frame must be at least 1x1")
        if width * height > self.config.max_pixels:
            raise ServiceError(
                "frame %dx%d exceeds max_pixels=%d"
                % (width, height, self.config.max_pixels)
            )
        config = self.config
        with self._lock:
            if len(self._sessions) >= config.max_sessions:
                raise self.admission.shed_now(
                    "sessions",
                    "session cap %d reached" % config.max_sessions,
                )
            held = sum(
                1 for h in self._sessions.values() if h.tenant == tenant
            )
            if held >= config.tenant_sessions:
                raise self.admission.shed_now(
                    "tenant_sessions",
                    "tenant %r session quota %d reached"
                    % (tenant, config.tenant_sessions),
                )
            self._ordinal += 1
            ordinal = self._ordinal
            supervisor = self._supervisors.get(tenant)
            if supervisor is None:
                supervisor = RenderSupervisor(config.policy, obs=self.obs)
                self._supervisors[tenant] = supervisor
        # The configured tile, not the resolved one: the session's own
        # plan decides from its frame size whether the default tile pools.
        session = RenderSession(
            spec_info.index, backend=self.plan.backend,
            supervisor=supervisor, obs=self.obs, workers=self.plan.workers,
            tile=config.tile, pool=self.pool, store=self.store,
            width=width, height=height,
        )
        injector = None
        if config.proc_chaos_rate > 0.0:
            injector = FaultInjector(
                seed=config.proc_chaos_seed + ordinal,
                proc_rate=config.proc_chaos_rate,
            )
        hosted = HostedSession(
            "s%06d" % ordinal, tenant, session, injector, self.clock()
        )
        with self._lock:
            self._sessions[hosted.id] = hosted
            self._m_sessions.inc(tenant=tenant)
        return {
            "session": hosted.id,
            "tenant": tenant,
            "shader": spec_info.name,
            "params": list(spec_info.control_params),
            "width": width,
            "height": height,
            "backend": session.backend,
        }

    def close_session(self, session_id):
        with self._lock:
            hosted = self._sessions.pop(session_id, None)
            if hosted is None:
                raise SessionNotFound("no session %r" % session_id)
            self._m_sessions.dec(tenant=hosted.tenant)
        with hosted.lock:
            hosted.close()
        return {"session": session_id, "closed": True, "frames": hosted.frames}

    def list_sessions(self):
        now = self.clock()
        with self._lock:
            hosted = list(self._sessions.values())
        return {"sessions": [h.describe(now) for h in hosted]}

    def reap_idle(self, now=None):
        """Close sessions idle longer than ``idle_timeout_s``; returns
        the reaped session ids (the reaper thread calls this on a
        timer, tests call it with an injected ``now``)."""
        now = now if now is not None else self.clock()
        timeout = self.config.idle_timeout_s
        with self._lock:
            stale = [
                h.id for h in self._sessions.values()
                if now - h.last_used > timeout
            ]
        reaped = []
        for session_id in stale:
            try:
                self.close_session(session_id)
                reaped.append(session_id)
            except SessionNotFound:
                pass  # closed by its tenant while we swept
        return reaped

    # -- rendering -----------------------------------------------------------

    def edit_session(self, session_id, param):
        """Begin (or switch) the session's drag without rendering."""
        self._check_draining()
        hosted = self._get(session_id)
        with hosted.lock:
            hosted.last_used = self.clock()
            edit = self._ensure_edit(hosted, param)
            return {
                "session": hosted.id,
                "param": hosted.param,
                "cache_bytes_per_pixel": edit.cache_bytes_per_pixel,
                "backend": edit.backend,
            }

    def render(self, session_id, param=None, controls=None):
        """Serve one frame through :meth:`EditSession.frame`: the
        loader runs on the drag's first render and whenever a
        non-dragged control moves, the reader otherwise — the paper's
        load/adjust split.  The reply's ``phase`` is ``load`` or
        ``adjust``; ``path`` is ``full``, ``delta``, ``noop`` or
        ``adjust``."""
        self._check_draining()
        hosted = self._get(session_id)
        try:
            permit = self.admission.admit(hosted.tenant)
        except LoadShedError as err:
            self._m_shed.inc(scope=err.scope)
            raise
        with permit, contextlib.ExitStack() as stack:
            if self._pool_mutex is not None and hosted.session.plan.tiled:
                stack.enter_context(self._pool_mutex)
            stack.enter_context(hosted.lock)
            hosted.last_used = self.clock()
            payload = self._render_locked(hosted, param, controls)
            hosted.last_used = self.clock()
            return payload

    def _render_locked(self, hosted, param, controls):
        session = hosted.session
        merged = self._merge_controls(session, controls)
        edit = self._ensure_edit(hosted, param)
        image = edit.frame(merged)
        hosted.frames += 1
        return {
            "session": hosted.id,
            "shader": session.spec_info.name,
            "param": hosted.param,
            "phase": "adjust" if edit.last_path == "adjust" else "load",
            "path": edit.last_path,
            "rung": edit.last_rung,
            "width": image.width,
            "height": image.height,
            "cost": image.total_cost,
            "cost_per_pixel": image.cost_per_pixel,
            # The frame's own read-only column: the transport picks the
            # encoding (repro.serve.http.encode_reply).
            "colors": image.colors,
        }

    def _ensure_edit(self, hosted, param):
        # Caller holds hosted.lock.
        session = hosted.session
        if param is None:
            param = (
                hosted.param
                if hosted.param is not None
                else session.spec_info.control_params[0]
            )
        if hosted.edit is not None and hosted.param == param:
            return hosted.edit
        hosted.close()
        try:
            hosted.edit = session.begin_edit(
                param, injector=hosted.injector
            )
        except SpecializationError as err:
            raise ServiceError(str(err))
        hosted.param = param
        return hosted.edit

    @staticmethod
    def _merge_controls(session, controls):
        merged = dict(session.controls)
        for name, value in (controls or {}).items():
            if name not in merged:
                raise ServiceError(
                    "unknown control %r for shader %r (have: %s)"
                    % (name, session.spec_info.name,
                       ", ".join(sorted(merged)))
                )
            merged[name] = float(value)
        return merged

    @staticmethod
    def _resolve_shader(shader):
        if isinstance(shader, int) or (
            isinstance(shader, str) and shader.isdigit()
        ):
            index = int(shader)
            if index in SHADERS:
                return SHADERS[index]
            raise ServiceError(
                "no shader index %d (have %s)"
                % (index, ", ".join(str(i) for i in sorted(SHADERS)))
            )
        for index in sorted(SHADERS):
            if SHADERS[index].name == shader:
                return SHADERS[index]
        raise ServiceError(
            "unknown shader %r (have: %s)"
            % (shader, ", ".join(SHADERS[i].name for i in sorted(SHADERS)))
        )

    def _get(self, session_id):
        with self._lock:
            hosted = self._sessions.get(session_id)
        if hosted is None:
            raise SessionNotFound("no session %r" % session_id)
        return hosted

    def _check_draining(self):
        with self._lock:
            draining = self._draining
        if draining:
            err = self.admission.shed_now("draining", "service is draining")
            self._m_shed.inc(scope="draining")
            raise err

    # -- drain ---------------------------------------------------------------

    @property
    def draining(self):
        return self._draining

    def drain(self, timeout_s=None):
        """Graceful shutdown: refuse new work, wait out in-flight
        frames (bounded), close every session and the worker pool.
        Idempotent — a second call returns the first call's summary."""
        with self._lock:
            if self._drained:
                return dict(self._drain_summary)
            self._draining = True
        timeout = (
            timeout_s if timeout_s is not None
            else self.config.drain_timeout_s
        )
        deadline = self.clock() + timeout
        while self.admission.inflight > 0 and self.clock() < deadline:
            self.sleep(0.01)
        abandoned = self.admission.inflight
        with self._lock:
            hosted = list(self._sessions)
        for session_id in hosted:
            try:
                self.close_session(session_id)
            except SessionNotFound:
                pass
        if self.pool is not None:
            self.pool.close()
        summary = {
            "drained": True,
            "closed_sessions": len(hosted),
            "abandoned_inflight": abandoned,
            "timed_out": abandoned > 0,
        }
        with self._lock:
            self._drained = True
            self._drain_summary = summary
        return dict(summary)

    # -- observability -------------------------------------------------------

    def mint_request_id(self):
        """A fresh process-unique request id for an ingress request
        that arrived without one (``r-<pid>-<seq>`` — deterministic,
        no clock or entropy, so traces replay byte-identically)."""
        with self._lock:
            self._rid_seq += 1
            seq = self._rid_seq
        return "r-%d-%06d" % (os.getpid(), seq)

    def span_mark(self):
        """Position in the tracer's finished-span list at ingress;
        :meth:`observe` slices from it to find this request's spans
        for the flight recorder (0 when tracing is off)."""
        return len(self.obs.tracer.spans)

    def observe(self, endpoint, status, ms, request_id=None, tenant=None,
                span_mark=None, **extra):
        """Record one transport-level request (the HTTP layer calls
        this for every response it writes).  With a ``request_id`` the
        request also lands in the flight recorder; its full span tree
        is attached only when the recorder's tail sampling finds it
        interesting (failed/shed/slow)."""
        endpoint = canonical_endpoint(endpoint)
        self._m_requests.inc(endpoint=endpoint, status=str(status))
        self._m_latency.observe(ms, endpoint=endpoint)
        if request_id is None:
            return
        spans = None
        if (span_mark is not None and self.obs.enabled
                and self.flight.interesting(status, ms)):
            spans = [
                span.as_dict()
                for span in self.obs.tracer.spans[span_mark:]
                if span.attrs.get("trace") == request_id
            ]
        self.flight.record(
            request_id=request_id, tenant=tenant, endpoint=endpoint,
            status=status, ms=ms, spans=spans, **extra,
        )

    def flight_dump(self):
        """The ``/debug/flight`` payload."""
        return self.flight.as_dict()

    def health(self):
        """The service-level health payload: admission + session +
        store + recovery state, plus one full
        :class:`~repro.runtime.supervise.HealthSnapshot` per tenant."""
        now = self.clock()
        with self._lock:
            by_tenant = {}
            for hosted in self._sessions.values():
                by_tenant[hosted.tenant] = by_tenant.get(hosted.tenant, 0) + 1
            sessions = {
                "count": len(self._sessions),
                "max": self.config.max_sessions,
                "by_tenant": by_tenant,
            }
            supervisors = dict(self._supervisors)
            draining = self._draining
        admission = self.admission.snapshot()
        return {
            "service": {
                "draining": draining,
                "uptime_s": max(0.0, now - self.started),
                "sessions": sessions,
                "admission": admission,
                "store": self.store.stats(),
                "recovery": self.recovery,
                "pool": (
                    self.pool.health() if self.pool is not None else None
                ),
                "native_builtins": native.status(),
                "flight": {
                    "recorded": self.flight.recorded,
                    "dropped": self.flight.dropped,
                    "entries": len(self.flight),
                },
            },
            "slo": self.slo.report(self.obs.registry),
            "tenants": {
                tenant: supervisor.health().as_dict()
                for tenant, supervisor in sorted(supervisors.items())
            },
        }

    def metrics_text(self):
        """The Prometheus exposition for ``/metrics``.  Stage-timing
        totals are *not* folded in here (``merge_stage_metrics`` adds
        on every call, and scrapes repeat); SLO attainment/burn gauges
        *are* refreshed per scrape (gauges are set, not added)."""
        if self.obs.enabled:
            self.slo.export(self.obs.registry)
            native.export(self.obs.registry)
        return to_prometheus(self.obs.registry)
