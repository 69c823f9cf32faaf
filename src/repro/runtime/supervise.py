"""Resilient render supervision: deadlines, a degradation ladder, and
per-(shader, partition) circuit breakers.

The paper's reader-stage economics (Sections 2, 6) assume a
specialization is executed thousands of times per parameter drag; a
production render service cannot let one slow or faulting
specialization take a frame — or the frame rate — down with it.
:mod:`repro.runtime.guard` contains faults *per pixel*; this module
decides **when to stop trusting a specialization at all**, trading speed
back for safety the way "An Experiment Combining Specialization with
Abstract Interpretation" frames the specialized-vs-general fallback.

:class:`RenderSupervisor` wraps every loader/reader *request* (one
whole-frame ``load``/``adjust`` on either backend) with:

* **deadline enforcement** — a per-request step budget
  (:attr:`SupervisorPolicy.deadline_steps`, layered on
  ``SpecializerOptions.max_steps``) and an optional wall budget
  (:attr:`SupervisorPolicy.deadline_ms`).  A blown budget aborts the
  attempt — no hang, no partial frame — and degrades down the ladder,
  recorded as a ``deadline`` incident.
* a **degradation ladder** — ``batch`` kernel → ``scalar`` specialized →
  guarded unspecialized ``original`` → ``lkg`` (last-known-good frame) —
  with bounded retries and seeded exponential backoff per rung.  Every
  rung taken is counted; every failure is recorded with its cause and
  the cost of what ultimately served the request.
* a **circuit breaker per (shader, partition)** — closed → open →
  half-open with seeded-jitter probe scheduling.  When the recent fault
  or deadline-miss rate trips the breaker, requests route straight to
  the unspecialized path (no doomed specialized attempts) until a probe
  request passes; reopen cooldowns back off exponentially.  An optional
  ``on_trip`` hook (see :func:`artifact_respecializer`) can rebuild
  persisted artifacts through ``core/persist.py``'s
  ``on_mismatch="respecialize"`` machinery.
* a structured :class:`HealthSnapshot` — per-rung counters, breaker
  states, a bounded ring of recent incidents, and p50/p99 per-pixel
  cost from the :class:`~repro.runtime.interp.CostMeter` totals —
  exportable as JSON (``repro health``).

The supervised fast path is *transparent* by construction: an edit
session's rung 0 is the very runner its unsupervised frames run alone,
so with no fault and no deadline tripping, colors and cost totals are
byte-identical (gated by ``tests/test_supervise.py``).
"""

from __future__ import annotations

import json
import random
import time
from collections import deque

from ..lang.errors import DeadlineError, SupervisionError
from ..obs import current_request_id, resolve_obs
from ..obs.metrics import DEFAULT_BUCKETS, HistogramChild
from ..obs.schema import BREAKER_STATE_CODES, RUNGS, canonical_rung
from .guard import GUARDED_FAULTS

#: Circuit-breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Ladder rungs that run *specialized* code (deadline-capped, retried,
#: skipped entirely while a breaker is open).
SPECIALIZED_RUNGS = ("batch", "scalar")

#: Everything a rung failure can throw that the supervisor absorbs.
SUPERVISED_FAULTS = GUARDED_FAULTS + (DeadlineError,)


class SupervisorPolicy(object):
    """Tunables for one :class:`RenderSupervisor`.

    The defaults are conservative: no deadline, one retry per
    specialized rung, and a breaker that needs a quarter of recent
    requests to go bad before it opens.
    """

    def __init__(
        self,
        deadline_steps=None,
        deadline_ms=None,
        max_retries=1,
        backoff_base=0.0,
        backoff_cap=0.1,
        breaker_threshold=0.1,
        breaker_window=8,
        breaker_min_requests=2,
        breaker_trip_ratio=0.5,
        breaker_cooldown=2,
        breaker_cooldown_cap=32,
        probe_jitter=0.5,
        seed=0,
        max_incidents=1024,
        cost_samples=4096,
    ):
        #: Per-request interpreter step budget for *specialized* rungs
        #: (layered on ``SpecializerOptions.max_steps``; the original
        #: rung keeps the options budget as the safety valve).
        self.deadline_steps = deadline_steps
        #: Per-request wall budget in milliseconds (checked between rung
        #: attempts; None disables).
        self.deadline_ms = deadline_ms
        #: Extra attempts per specialized rung before degrading.
        self.max_retries = max_retries
        #: Base backoff sleep in seconds (0 disables sleeping; the
        #: exponential schedule and jitter are still recorded).
        self.backoff_base = backoff_base
        #: Upper bound on one backoff sleep, seconds.
        self.backoff_cap = backoff_cap
        #: Pixel-fault rate at/above which one request counts as *bad*
        #: for breaker accounting.
        self.breaker_threshold = breaker_threshold
        #: Sliding window length (requests) for trip accounting.
        self.breaker_window = breaker_window
        #: Minimum requests in the window before the breaker may trip.
        self.breaker_min_requests = breaker_min_requests
        #: Fraction of bad requests in the window that opens the breaker.
        self.breaker_trip_ratio = breaker_trip_ratio
        #: Requests to wait (before jitter/backoff) until a half-open
        #: probe after the breaker opens.
        self.breaker_cooldown = breaker_cooldown
        #: Ceiling on the exponentially backed-off cooldown.
        self.breaker_cooldown_cap = breaker_cooldown_cap
        #: Probe-delay jitter fraction: the seeded jitter adds up to
        #: ``probe_jitter * cooldown`` extra requests.
        self.probe_jitter = probe_jitter
        #: Seed for probe jitter and backoff jitter (deterministic runs).
        self.seed = seed
        #: Bound on retained supervisor incidents (ring buffer).
        self.max_incidents = max_incidents
        #: Bound on retained per-pixel cost samples for p50/p99.
        self.cost_samples = cost_samples

    def effective_deadline(self, options_max_steps):
        """The specialized-kernel step budget: the deadline layered on
        the specializer options' own budget."""
        if self.deadline_steps is None:
            return None
        if options_max_steps is None:
            return self.deadline_steps
        return min(self.deadline_steps, options_max_steps)


class SupervisorIncident(object):
    """One degradation event: a rung failure, deadline miss, breaker
    transition, or ladder exhaustion."""

    __slots__ = (
        "request", "key", "phase", "rung", "cause", "detail", "seq",
        "request_id",
    )

    def __init__(self, request, key, phase, rung, cause, detail, seq=0,
                 request_id=None):
        #: Monotonic sequence number assigned by the supervisor — many
        #: incidents can share one request ordinal (retries, breaker
        #: transitions), so ``seq`` is what makes an exported incident
        #: stream totally orderable even after ring eviction.
        self.seq = seq
        #: Global request ordinal when the incident fired.
        self.request = request
        #: (shader, partition) the request belonged to.
        self.key = key
        #: "load" or "adjust".
        self.phase = phase
        #: Ladder rung implicated ("batch"/"scalar"/"original"/"lkg",
        #: or "breaker" for state transitions).
        self.rung = rung
        #: "fault", "deadline", "wall_deadline", "tile_deadline",
        #: "open", "half_open", "closed", "exhausted", or
        #: "respecialize".
        self.cause = cause
        self.detail = detail
        #: Trace/request id ambient when the incident fired (stamped
        #: from :func:`repro.obs.current_request_id`), or None outside
        #: a served request — the hook that joins an incident stream to
        #: a daemon access log or a flight-recorder entry.
        self.request_id = request_id

    def as_dict(self):
        return {
            "seq": self.seq,
            "request": self.request,
            "request_id": self.request_id,
            "shader": self.key[0],
            "partition": self.key[1],
            "phase": self.phase,
            "rung": self.rung,
            "cause": self.cause,
            "detail": self.detail,
        }

    def __repr__(self):
        return "SupervisorIncident(#%d req %d %s/%s %s %s: %s)" % (
            self.seq, self.request, self.key[0], self.key[1], self.rung,
            self.cause, self.detail,
        )


class CircuitBreaker(object):
    """Closed/open/half-open breaker: one per (shader, partition) in the
    supervisor, one per :class:`~repro.runtime.parallel.WorkerPool`.

    Time is measured in *requests seen by this breaker*, so probe
    scheduling is deterministic: opening waits ``min(breaker_cooldown *
    2**reopens, breaker_cooldown_cap)`` requests plus up to
    ``probe_jitter`` of that again, seeded by ``(policy.seed, key, trip
    ordinal)``.  The supervisor feeds outcomes through :meth:`record`
    (windowed trip ratio); the pool calls :meth:`trip` and :meth:`close`.
    """

    def __init__(self, key, policy):
        self.key = key
        self.policy = policy
        self.state = CLOSED
        #: Requests this breaker has routed (specialized or not).
        self.requests = 0
        #: Consecutive reopens since the last close (backoff exponent).
        self.reopens = 0
        #: Total times the breaker left CLOSED.
        self.trips = 0
        #: Request ordinal at which the next half-open probe fires.
        self.probe_at = None
        #: Jittered cooldown chosen at the last open (for reporting).
        self.last_cooldown = None
        self._window = deque()

    def allow(self):
        """Advance breaker time by one request; True when it may take
        the guarded path (closed, or a half-open probe)."""
        self.requests += 1
        if self.state == OPEN and self.requests >= self.probe_at:
            self.state = HALF_OPEN
        return self.state != OPEN

    def route(self):
        """Route the next request: ``("specialized", probe?)`` or
        ``("original", False)``.  Advances breaker time."""
        if self.allow():
            return "specialized", self.state == HALF_OPEN
        return "original", False

    def record(self, bad, probe, specialized=True):
        """Feed one request outcome back; returns the breaker's state
        transition as ``(old_state, new_state)`` or None.

        ``specialized`` says whether a specialized rung actually served
        the request: a probe that never exercised the specialized path
        is *inconclusive* — it reschedules itself (no backoff escalation)
        instead of closing the breaker on evidence it doesn't have.
        """
        if self.state == HALF_OPEN and probe:
            if bad or not specialized:
                self.trip(escalate=bad)
                return (HALF_OPEN, OPEN)
            self.close()
            return (HALF_OPEN, CLOSED)
        if self.state != CLOSED:
            return None  # routed to original while open: no accounting
        window = self._window
        window.append(bool(bad))
        if len(window) > self.policy.breaker_window:
            window.popleft()
        if (
            len(window) >= self.policy.breaker_min_requests
            and sum(window) / float(len(window))
            >= self.policy.breaker_trip_ratio
        ):
            self.trip()
            return (CLOSED, OPEN)
        return None

    def trip(self, escalate=True):
        """Open the breaker and schedule the next probe.  A failed
        half-open probe (``escalate``) doubles the cooldown."""
        policy = self.policy
        if self.state == HALF_OPEN and escalate:
            self.reopens += 1
        self.state = OPEN
        self.trips += 1
        cooldown = min(
            policy.breaker_cooldown * (2 ** self.reopens),
            policy.breaker_cooldown_cap,
        )
        # Seeded per (policy seed, key, trip ordinal): deterministic
        # across runs, different at each successive trip.
        rng = random.Random(
            "%r|%r|%d" % (policy.seed, self.key, self.trips)
        )
        jitter = rng.random() * policy.probe_jitter * cooldown
        self.last_cooldown = max(1, int(round(cooldown + jitter)))
        self.probe_at = self.requests + self.last_cooldown
        self._window.clear()

    def close(self):
        """A half-open probe succeeded: back to CLOSED, backoff reset."""
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self.reopens = 0
            self.probe_at = None
            self._window.clear()

    def as_dict(self):
        return {
            "state": self.state,
            "requests": self.requests,
            "trips": self.trips,
            "reopens": self.reopens,
            "probe_at": self.probe_at,
            "cooldown": self.last_cooldown,
            "window": list(self._window),
        }


class HealthSnapshot(object):
    """Point-in-time export of a supervisor's state, JSON-ready."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    def as_dict(self):
        return self.data

    def to_json(self, indent=2):
        return json.dumps(self.data, indent=indent, sort_keys=True)

    def summary(self):
        d = self.data
        rungs = ", ".join(
            "%s %d" % (name, count)
            for name, count in sorted(d["rungs"].items())
            if count
        ) or "none"
        open_breakers = [
            "%s/%s" % tuple(key.split("|"))
            for key, b in sorted(d["breakers"].items())
            if b["state"] != CLOSED
        ]
        lines = [
            "%d requests served (rungs: %s)" % (d["requests"], rungs),
            "faults contained %d, deadline misses %d, ladder exhausted %d"
            % (d["faults_contained"], d["deadline_misses"], d["exhausted"]),
            "breakers: %d total, open/half-open: %s"
            % (len(d["breakers"]), ", ".join(open_breakers) or "none"),
        ]
        cost = d["cost_per_pixel"]
        if cost["samples"]:
            lines.append(
                "per-pixel cost p50 %.1f, p99 %.1f (%d samples)"
                % (cost["p50"], cost["p99"], cost["samples"])
            )
        pool = d.get("pool")
        if pool and (
            d.get("pool_incidents")
            or pool["restarts"] or pool["redispatched_tiles"]
            or pool["inline_tiles"] or pool["quarantined"]
            or pool["breaker"]["state"] != CLOSED
        ):
            lines.append(
                "pool: %d worker(s) lost, %d restart(s), %d tile(s) "
                "redispatched, %d inline, quarantined: %s, breaker %s"
                % (sum(pool["lost_workers"].values()), pool["restarts"],
                   pool["redispatched_tiles"], pool["inline_tiles"],
                   ", ".join(pool["quarantined"]) or "none",
                   pool["breaker"]["state"])
            )
        if d["incidents_dropped"]:
            lines.append(
                "%d incident records dropped" % d["incidents_dropped"]
            )
        return "\n".join(lines)


class Rung(object):
    """One ladder rung: a name plus a callable ``run(max_steps)`` that
    returns ``(colors, total_cost)`` for the whole request."""

    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run


class RenderSupervisor(object):
    """Supervises render requests across any number of edit sessions.

    One supervisor can (and in a service, should) be shared across
    sessions: breakers are keyed by (shader, partition), so traffic for
    the same specialization aggregates no matter which session carries
    it.  ``clock``/``sleep`` are injectable for deterministic tests;
    ``on_trip(key)`` is called when a breaker opens (e.g.
    :func:`artifact_respecializer` to rebuild persisted artifacts).
    """

    def __init__(self, policy=None, clock=None, sleep=None, on_trip=None,
                 obs=None):
        self.policy = policy if policy is not None else SupervisorPolicy()
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self.on_trip = on_trip
        #: Telemetry bundle: every counter below is mirrored into its
        #: registry (``repro_supervisor_*`` / ``repro_breaker_*``
        #: families), so :meth:`health` and a Prometheus scrape tell
        #: one story.
        self.obs = resolve_obs(obs)
        self.breakers = {}
        self.requests = 0
        self.rung_counts = dict.fromkeys(RUNGS, 0)
        self._incident_seq = 0
        #: Requests the open breaker routed straight to the original.
        self.short_circuits = 0
        self.faults_contained = 0
        self.deadline_misses = 0
        #: Tiles (from the tiled frame scheduler) individually degraded
        #: to the original shader after blowing their step deadline.
        self.tile_degradations = 0
        #: Self-healing worker-pool events routed through
        #: :meth:`note_pool_incident` (losses, redispatches, respawns).
        self.pool_incidents = 0
        #: The worker pool serving the tiled drags this supervises (they
        #: set it); its ``health()`` is the snapshot's ``pool`` section.
        self.pool = None
        self._request_tile_misses = 0
        self.exhausted = 0
        self.retries = 0
        #: Cumulative backoff seconds the schedule asked for.
        self.backoff_seconds = 0.0
        self._incidents = deque(maxlen=self.policy.max_incidents)
        self.incidents_dropped = 0
        #: Per-pixel cost distribution for :meth:`health` percentiles.
        #: A histogram (constant memory) rather than a sample deque:
        #: p50/p99 come from bucket interpolation, the same estimate
        #: the ``repro_request_pixel_cost_steps`` family yields in
        #: PromQL, so /health and a Prometheus scrape agree.
        self._cost_hist = HistogramChild((), DEFAULT_BUCKETS)
        self._lkg = {}

    # -- bookkeeping ---------------------------------------------------------

    def breaker(self, key):
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(key, self.policy)
            self.breakers[key] = breaker
        return breaker

    def _record_incident(self, key, phase, rung, cause, detail):
        if len(self._incidents) == self._incidents.maxlen:
            self.incidents_dropped += 1
        self._incident_seq += 1
        self._incidents.append(
            SupervisorIncident(
                self.requests, key, phase, canonical_rung(rung), cause,
                str(detail), seq=self._incident_seq,
                request_id=current_request_id(),
            )
        )
        self.obs.registry.counter(
            "repro_supervisor_incidents_total",
            "Supervisor degradation events by cause.",
            ("cause",),
        ).inc(cause=cause)

    def last_known_good(self, key, phase):
        """The most recent successfully served colors for (key, phase),
        or None."""
        return self._lkg.get((key, phase))

    def note_tile_degradation(self, key, phase, tile_index, start, stop,
                              worst):
        """One tile of a tiled batch request blew its step deadline and
        was served by the original shader (the rest of the frame stayed
        on the batch kernel).  Counts as a deadline miss and marks the
        enclosing request *bad* for breaker accounting — the rung still
        *serves*, but the specialization is visibly misbehaving."""
        self.tile_degradations += 1
        self._request_tile_misses += 1
        self._count_deadline_miss()
        self._record_incident(
            key, phase, "batch", "tile_deadline",
            "tile %d (lanes %d:%d) blew the per-pixel step deadline "
            "(%d steps); served by the original shader"
            % (tile_index, start, stop, worst),
        )
        if self.obs.enabled:
            self.obs.registry.counter(
                "repro_supervisor_tile_degradations_total",
                "Tiles individually degraded to the original shader "
                "after blowing their deadline.",
                ("shader", "partition"),
            ).inc(shader=key[0], partition=key[1])

    def note_pool_incident(self, key, phase, cause, detail):
        """A self-healing worker-pool event (worker loss, tile
        redispatch, respawn, quarantine, pool degradation) occurred
        while this request's tiles were pooled.  Recorded on the
        ``"pool"`` rung; the rendered frame itself stayed byte-exact
        (recovery is the pool's job), so this does not count as a
        deadline miss or a bad request for breaker accounting."""
        self.pool_incidents += 1
        self._record_incident(key, phase, "pool", cause, detail)

    # -- the supervised request loop -----------------------------------------

    def run_request(self, key, phase, rungs, pixels, fault_log=None):
        """Serve one whole-frame request through the degradation ladder.

        ``rungs`` is the ordered ladder for this request (specialized
        rungs first); ``fault_log`` is the session's guard log, used to
        attribute per-pixel contained faults to this request for breaker
        accounting.  Returns ``(colors, total_cost, rung_name)``.
        """
        policy = self.policy
        obs = self.obs
        self.requests += 1
        if obs.enabled:
            obs.registry.counter(
                "repro_supervisor_requests_total",
                "Whole-frame requests routed through the supervisor.",
                ("phase",),
            ).inc(phase=phase)
        breaker = self.breaker(key)
        route, probe = breaker.route()
        if route == "original":
            self.short_circuits += 1
            if obs.enabled:
                obs.registry.counter(
                    "repro_supervisor_short_circuits_total",
                    "Requests an open breaker routed straight to the "
                    "original.",
                ).inc()
            attempt_rungs = [
                r for r in rungs if r.name not in SPECIALIZED_RUNGS
            ]
        else:
            attempt_rungs = list(rungs)

        deadline = policy.effective_deadline(None)
        wall_start = self._clock()
        wall_budget = (
            None if policy.deadline_ms is None
            else policy.deadline_ms / 1000.0
        )
        log_start = len(fault_log) if fault_log is not None else 0
        deadline_missed = False
        degraded = False
        last_error = "no rungs supplied"
        self._request_tile_misses = 0

        for rung in attempt_rungs:
            specialized = rung.name in SPECIALIZED_RUNGS
            if specialized and wall_budget is not None:
                if self._clock() - wall_start >= wall_budget:
                    deadline_missed = True
                    self._record_incident(
                        key, phase, rung.name, "wall_deadline",
                        "wall budget %.0fms exhausted before rung"
                        % policy.deadline_ms,
                    )
                    degraded = True
                    continue
            retries = policy.max_retries if specialized else 0
            cap = deadline if specialized else None
            for attempt in range(retries + 1):
                try:
                    with obs.span(
                        "supervise.rung", rung=rung.name, phase=phase,
                        shader=key[0], partition=key[1], attempt=attempt,
                        probe=probe,
                    ):
                        colors, total = rung.run(cap)
                except SUPERVISED_FAULTS as exc:
                    cause = (
                        "deadline"
                        if isinstance(exc, DeadlineError)
                        or "step budget" in str(exc)
                        else "fault"
                    )
                    if cause == "deadline":
                        deadline_missed = True
                        self._count_deadline_miss()
                    self._record_incident(
                        key, phase, rung.name, cause, exc
                    )
                    last_error = "%s: %s" % (rung.name, exc)
                    if attempt < retries and cause != "deadline":
                        # Retrying a blown deadline can only blow it
                        # again; data faults get the backoff schedule.
                        self.retries += 1
                        if obs.enabled:
                            obs.registry.counter(
                                "repro_supervisor_retries_total",
                                "Specialized-rung retry attempts.",
                            ).inc()
                        self._backoff(key, attempt)
                        continue
                    break
                return self._served(
                    key, phase, rung.name, colors, total, pixels,
                    fault_log, log_start, breaker, probe,
                    deadline_missed or self._request_tile_misses > 0,
                    degraded,
                )
            degraded = True

        # Every rung failed: the request is unserveable.
        self.exhausted += 1
        if obs.enabled:
            obs.registry.counter(
                "repro_supervisor_exhausted_total",
                "Requests no ladder rung could serve.",
            ).inc()
        self._record_incident(key, phase, "ladder", "exhausted", last_error)
        breaker.record(bad=True, probe=probe)
        raise SupervisionError(
            "degradation ladder exhausted for %s/%s %s: %s"
            % (key[0], key[1], phase, last_error)
        )

    def _count_deadline_miss(self):
        self.deadline_misses += 1
        if self.obs.enabled:
            self.obs.registry.counter(
                "repro_supervisor_deadline_misses_total",
                "Requests whose specialized rung blew a deadline.",
            ).inc()

    def _served(self, key, phase, rung_name, colors, total, pixels,
                fault_log, log_start, breaker, probe, deadline_missed,
                degraded):
        policy = self.policy
        obs = self.obs
        rung_name = canonical_rung(rung_name)
        self.rung_counts[rung_name] = self.rung_counts.get(rung_name, 0) + 1
        if obs.enabled:
            obs.registry.counter(
                "repro_supervisor_rungs_total",
                "Requests served, by the ladder rung that served them.",
                ("rung",),
            ).inc(rung=rung_name)
        faults = (
            len(fault_log) - log_start if fault_log is not None else 0
        )
        self.faults_contained += faults
        if obs.enabled and faults:
            obs.registry.counter(
                "repro_supervisor_faults_contained_total",
                "Per-pixel guard fallbacks attributed to supervised "
                "requests.",
            ).inc(faults)
        if fault_log is not None and faults:
            # A guard-contained step-budget blowout is a deadline miss
            # even though the rung itself completed.
            for incident in list(fault_log)[-faults:]:
                if "step budget" in incident.error:
                    deadline_missed = True
                    self._count_deadline_miss()
                    break
        if pixels:
            self._cost_hist.observe(total / float(pixels))
            if obs.enabled:
                obs.registry.histogram(
                    "repro_request_pixel_cost_steps",
                    "Mean per-pixel abstract cost of one supervised "
                    "request.",
                    ("phase",),
                ).observe(total / float(pixels), phase=phase)
        fault_rate = faults / float(pixels) if pixels else 0.0
        bad = (
            degraded
            or deadline_missed
            or fault_rate >= policy.breaker_threshold
        )
        transition = breaker.record(
            bad=bad, probe=probe,
            specialized=rung_name in SPECIALIZED_RUNGS,
        )
        if obs.enabled:
            obs.registry.gauge(
                "repro_breaker_state",
                "Circuit-breaker state (0 closed, 1 half_open, 2 open).",
                ("shader", "partition"),
            ).set(
                BREAKER_STATE_CODES[breaker.state],
                shader=key[0], partition=key[1],
            )
        if transition is not None:
            old, new = transition
            if new == OPEN and obs.enabled:
                obs.registry.counter(
                    "repro_breaker_trips_total",
                    "Times a breaker left the closed/half-open state.",
                    ("shader", "partition"),
                ).inc(shader=key[0], partition=key[1])
            self._record_incident(
                key, phase, "breaker", new,
                "%s -> %s (trips %d, probe at request %s)"
                % (old, new, breaker.trips, breaker.probe_at),
            )
            if new == OPEN and self.on_trip is not None:
                try:
                    self.on_trip(key)
                    self._record_incident(
                        key, phase, "breaker", "respecialize",
                        "on_trip hook ran",
                    )
                except Exception as exc:  # hook failure must not kill render
                    self._record_incident(
                        key, phase, "breaker", "respecialize",
                        "on_trip hook failed: %s" % exc,
                    )
        if rung_name != "lkg":
            # Frames are immutable ColorColumns: keep the reference.
            self._lkg[(key, phase)] = colors
        return colors, total, rung_name

    def _backoff(self, key, attempt):
        """Exponential backoff with seeded jitter before a retry."""
        policy = self.policy
        if policy.backoff_base <= 0.0:
            return
        rng = random.Random(
            "%r|backoff|%r|%d|%d"
            % (policy.seed, key, self.requests, attempt)
        )
        delay = min(
            policy.backoff_base * (2 ** attempt) * (1.0 + rng.random()),
            policy.backoff_cap,
        )
        self.backoff_seconds += delay
        self._sleep(delay)

    # -- health --------------------------------------------------------------

    def health(self):
        """A :class:`HealthSnapshot` of everything observable."""
        return HealthSnapshot({
            "requests": self.requests,
            "rungs": dict(self.rung_counts),
            "short_circuits": self.short_circuits,
            "faults_contained": self.faults_contained,
            "deadline_misses": self.deadline_misses,
            "tile_degradations": self.tile_degradations,
            "pool_incidents": self.pool_incidents,
            "pool": self.pool.health() if self.pool is not None else None,
            "exhausted": self.exhausted,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "breakers": {
                "%s|%s" % key: breaker.as_dict()
                for key, breaker in self.breakers.items()
            },
            "incidents": [i.as_dict() for i in self._incidents],
            "incidents_dropped": self.incidents_dropped,
            "cost_per_pixel": {
                "p50": self._cost_hist.percentile(0.50),
                "p99": self._cost_hist.percentile(0.99),
                "samples": self._cost_hist.count,
            },
            "policy": {
                "deadline_steps": self.policy.deadline_steps,
                "deadline_ms": self.policy.deadline_ms,
                "max_retries": self.policy.max_retries,
                "breaker_threshold": self.policy.breaker_threshold,
                "breaker_window": self.policy.breaker_window,
                "breaker_trip_ratio": self.policy.breaker_trip_ratio,
                "breaker_cooldown": self.policy.breaker_cooldown,
                "seed": self.policy.seed,
            },
        })


def artifact_respecializer(directory):
    """An ``on_trip`` hook that rebuilds the persisted specialization in
    ``directory`` through :func:`repro.core.persist.load_specialization`
    with ``on_mismatch="respecialize"`` — a tripped breaker's best guess
    is that the artifacts backing the specialization have gone stale or
    corrupt, so rebuild and re-save them from the surviving fragment."""

    def hook(key):
        from ..core.persist import load_specialization

        load_specialization(directory, on_mismatch="respecialize")

    return hook
