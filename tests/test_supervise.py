"""Resilient render supervision: deadlines, the degradation ladder, and
per-(shader, partition) circuit breakers.

The contract under test:

* **transparency** — supervisor on + no faults ⇒ colors and CostMeter
  totals byte-identical to the unsupervised session, on every shader ×
  partition × backend (the gating sweep);
* **deadlines** — a step budget below the shader's per-pixel cost aborts
  cleanly into the ladder (no hang, no partial frame) and is recorded as
  a ``deadline`` incident;
* **breakers** — sustained corruption trips the per-partition breaker
  within the configured window, every emitted pixel still bit-matches
  the unspecialized reference, the :class:`HealthSnapshot` reports the
  trip, and half-open probes restore the specialized path once the
  corruption stops;
* **determinism** — probe scheduling and backoff jitter are pure
  functions of the policy seed.
"""

import json

import pytest

from repro.lang.errors import DeadlineError, SupervisionError
from repro.runtime.faultinject import FaultInjector
from repro.runtime.supervise import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RenderSupervisor,
    Rung,
    SupervisorPolicy,
)
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

BACKENDS = ("scalar", "batch")


def _policy(**overrides):
    """A fast-tripping policy for breaker tests."""
    kwargs = dict(
        breaker_threshold=0.05, breaker_window=4, breaker_min_requests=2,
        breaker_trip_ratio=0.5, breaker_cooldown=2, seed=7,
    )
    kwargs.update(overrides)
    return SupervisorPolicy(**kwargs)


class TestCircuitBreaker:
    def test_trips_after_bad_ratio_in_window(self):
        breaker = CircuitBreaker(("s", "p"), _policy())
        assert breaker.route() == ("specialized", False)
        assert breaker.record(bad=False, probe=False) is None
        breaker.route()
        transition = breaker.record(bad=True, probe=False)
        assert transition == (CLOSED, OPEN)
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert breaker.probe_at > breaker.requests

    def test_minimum_requests_before_trip(self):
        breaker = CircuitBreaker(("s", "p"), _policy(breaker_min_requests=3))
        breaker.route()
        assert breaker.record(bad=True, probe=False) is None
        breaker.route()
        assert breaker.record(bad=True, probe=False) is None  # only 2 seen
        breaker.route()
        assert breaker.record(bad=True, probe=False) == (CLOSED, OPEN)

    def _trip(self, breaker):
        transition = None
        for _ in range(breaker.policy.breaker_min_requests):
            assert breaker.state == CLOSED
            breaker.route()
            transition = breaker.record(bad=True, probe=False)
        assert transition == (CLOSED, OPEN)

    def test_open_routes_original_until_probe_time(self):
        breaker = CircuitBreaker(("s", "p"), _policy())
        self._trip(breaker)
        routes = []
        for _ in range(breaker.probe_at - breaker.requests - 1):
            routes.append(breaker.route())
        assert all(r == ("original", False) for r in routes)
        assert breaker.route() == ("specialized", True)  # the probe
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(("s", "p"), _policy())
        self._trip(breaker)
        while breaker.route() != ("specialized", True):
            pass
        assert breaker.record(bad=False, probe=True) == (HALF_OPEN, CLOSED)
        assert breaker.state == CLOSED
        assert breaker.reopens == 0
        assert breaker.probe_at is None

    def test_probe_failure_reopens_with_backoff(self):
        breaker = CircuitBreaker(("s", "p"), _policy(probe_jitter=0.0))
        self._trip(breaker)
        first_cooldown = breaker.last_cooldown
        while breaker.route() != ("specialized", True):
            pass
        assert breaker.record(bad=True, probe=True) == (HALF_OPEN, OPEN)
        assert breaker.reopens == 1
        assert breaker.last_cooldown == 2 * first_cooldown  # exponential

    def test_cooldown_is_capped(self):
        breaker = CircuitBreaker(
            ("s", "p"),
            _policy(probe_jitter=0.0, breaker_cooldown=2,
                    breaker_cooldown_cap=5),
        )
        self._trip(breaker)
        for _ in range(4):
            while breaker.route() != ("specialized", True):
                pass
            breaker.record(bad=True, probe=True)
        assert breaker.last_cooldown == 5

    def test_inconclusive_probe_reschedules_without_escalation(self):
        """A probe served without exercising the specialized path must
        not close the breaker — and must not escalate the backoff."""
        breaker = CircuitBreaker(("s", "p"), _policy())
        self._trip(breaker)
        while breaker.route() != ("specialized", True):
            pass
        transition = breaker.record(bad=False, probe=True, specialized=False)
        assert transition == (HALF_OPEN, OPEN)
        assert breaker.reopens == 0
        assert breaker.probe_at > breaker.requests

    def test_probe_jitter_is_seed_deterministic(self):
        def schedule(seed):
            breaker = CircuitBreaker(("s", "p"), _policy(seed=seed))
            probes = []
            for _ in range(3):
                self._trip_or_fail_probe(breaker)
                probes.append(breaker.probe_at - breaker.requests)
            return probes

        assert schedule(7) == schedule(7)
        # Jitter actually varies across trips and seeds (not a constant).
        assert len({tuple(schedule(s)) for s in (7, 8, 9)}) > 1

    def _trip_or_fail_probe(self, breaker):
        if breaker.state == CLOSED:
            self._trip(breaker)
            return
        while breaker.route() != ("specialized", True):
            pass
        breaker.record(bad=True, probe=True)

    def _schedule(self, policy):
        """``(probe_at, cooldown, reopens)`` after each step of a fixed
        script: trip, three bad probes, an inconclusive probe, a good
        probe, a second trip, one more bad probe."""
        breaker = CircuitBreaker(("s", "p"), policy)
        steps = []

        def probe(bad, specialized=True):
            while breaker.route() != ("specialized", True):
                pass
            breaker.record(bad=bad, probe=True, specialized=specialized)

        def note():
            steps.append(
                (breaker.probe_at, breaker.last_cooldown, breaker.reopens)
            )

        self._trip(breaker)
        note()
        for _ in range(3):
            probe(bad=True)
            note()
        probe(bad=False, specialized=False)
        note()
        probe(bad=False)
        note()
        self._trip(breaker)
        note()
        probe(bad=True)
        note()
        return steps

    # Recorded from the supervisor breaker before the pool breaker was
    # merged into it: the merge must not move a single probe.
    PINNED = {
        0: [(5, 3, 0), (10, 5, 1), (20, 10, 2), (40, 20, 3), (62, 22, 3),
            (None, 22, 0), (67, 3, 0), (72, 5, 1)],
        7: [(4, 2, 0), (8, 4, 1), (16, 8, 2), (34, 18, 3), (55, 21, 3),
            (None, 21, 0), (59, 2, 0), (65, 6, 1)],
        42: [(5, 3, 0), (11, 6, 1), (19, 8, 2), (41, 22, 3), (63, 22, 3),
             (None, 22, 0), (67, 2, 0), (71, 4, 1)],
    }
    # The cap bounds the backed-off cooldown before jitter is added.
    PINNED_CAPPED = {
        0: [(6, 4, 0), (13, 7, 1), (26, 13, 2), (38, 12, 3), (52, 14, 3),
            (None, 14, 0), (58, 4, 0), (66, 8, 1)],
        7: [(5, 3, 0), (11, 6, 1), (21, 10, 2), (32, 11, 3), (45, 13, 3),
            (None, 13, 0), (51, 4, 0), (59, 8, 1)],
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_schedule_is_pinned(self, seed):
        assert self._schedule(_policy(seed=seed)) == self.PINNED[seed]

    @pytest.mark.parametrize("seed", sorted(PINNED_CAPPED))
    def test_capped_schedule_is_pinned(self, seed):
        policy = _policy(seed=seed, breaker_cooldown=3,
                         breaker_cooldown_cap=10)
        assert self._schedule(policy) == self.PINNED_CAPPED[seed]


def _ok(colors=("c",), cost=10):
    return lambda cap: (list(colors), cost)


def _boom(exc_type=ValueError, message="boom"):
    def run(cap):
        raise exc_type(message)

    return run


class TestLadder:
    def test_rungs_tried_in_order_first_success_wins(self):
        supervisor = RenderSupervisor(SupervisorPolicy(max_retries=0))
        tried = []

        def failing(name):
            def run(cap):
                tried.append(name)
                raise ValueError("%s failed" % name)

            return run

        def succeeding(name):
            def run(cap):
                tried.append(name)
                return ["px"], 5

            return run

        colors, total, rung = supervisor.run_request(
            ("s", "p"), "load",
            [Rung("batch", failing("batch")),
             Rung("scalar", succeeding("scalar")),
             Rung("original", succeeding("original"))],
            pixels=1,
        )
        assert tried == ["batch", "scalar"]
        assert rung == "scalar"
        assert supervisor.rung_counts == {
            "batch": 0, "scalar": 1, "original": 0, "lkg": 0,
        }

    def test_retries_and_backoff_schedule(self):
        sleeps = []
        supervisor = RenderSupervisor(
            SupervisorPolicy(max_retries=2, backoff_base=0.01,
                             backoff_cap=1.0, seed=3),
            sleep=sleeps.append,
        )
        attempts = []

        def flaky(cap):
            attempts.append(1)
            if len(attempts) < 3:
                raise ValueError("transient")
            return ["px"], 5

        _, _, rung = supervisor.run_request(
            ("s", "p"), "load", [Rung("scalar", flaky)], pixels=1
        )
        assert rung == "scalar"
        assert len(attempts) == 3
        assert supervisor.retries == 2
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential schedule
        assert supervisor.backoff_seconds == pytest.approx(sum(sleeps))

    def test_backoff_is_seed_deterministic(self):
        def delays(seed):
            sleeps = []
            supervisor = RenderSupervisor(
                SupervisorPolicy(max_retries=2, backoff_base=0.01,
                                 seed=seed),
                sleep=sleeps.append,
            )
            supervisor.run_request(
                ("s", "p"), "load",
                [Rung("scalar", _boom()), Rung("original", _ok())],
                pixels=1,
            )
            return sleeps

        assert delays(5) == delays(5)
        assert delays(5) != delays(6)

    def test_exhausted_ladder_raises_supervision_error(self):
        supervisor = RenderSupervisor(SupervisorPolicy(max_retries=0))
        with pytest.raises(SupervisionError, match="ladder exhausted"):
            supervisor.run_request(
                ("s", "p"), "load",
                [Rung("batch", _boom()), Rung("original", _boom())],
                pixels=1,
            )
        assert supervisor.exhausted == 1
        incidents = supervisor.health()["incidents"]
        assert incidents[-1]["cause"] == "exhausted"

    def test_last_known_good_serves_after_total_failure(self):
        supervisor = RenderSupervisor(SupervisorPolicy(max_retries=0))
        key = ("s", "p")
        supervisor.run_request(
            key, "adjust", [Rung("scalar", _ok(colors=["good"]))], pixels=1
        )

        def lkg_rung(cap):
            colors = supervisor.last_known_good(key, "adjust")
            if colors is None:
                raise SupervisionError("no lkg")
            return colors, 0

        colors, total, rung = supervisor.run_request(
            key, "adjust",
            [Rung("scalar", _boom()), Rung("original", _boom()),
             Rung("lkg", lkg_rung)],
            pixels=1,
        )
        assert rung == "lkg"
        assert colors == ["good"]
        assert total == 0
        # LKG frames never overwrite the stored LKG.
        assert supervisor.last_known_good(key, "adjust") == ["good"]

    def test_deadline_errors_are_not_retried(self):
        supervisor = RenderSupervisor(
            SupervisorPolicy(max_retries=3, deadline_steps=10)
        )
        attempts = []

        def slow(cap):
            attempts.append(cap)
            raise DeadlineError("step budget exceeded")

        _, _, rung = supervisor.run_request(
            ("s", "p"), "load",
            [Rung("scalar", slow), Rung("original", _ok())],
            pixels=1,
        )
        assert rung == "original"
        assert attempts == [10]  # one capped attempt, no futile retries
        assert supervisor.deadline_misses == 1

    def test_wall_deadline_skips_remaining_specialized_rungs(self):
        clock = {"now": 0.0}

        def fake_clock():
            clock["now"] += 1.0  # each observation costs a "second"
            return clock["now"]

        supervisor = RenderSupervisor(
            SupervisorPolicy(deadline_ms=1500.0, max_retries=0),
            clock=fake_clock,
        )
        tried = []

        def spy(name, fail=False):
            def run(cap):
                tried.append(name)
                if fail:
                    raise ValueError("nope")
                return ["px"], 1

            return run

        _, _, rung = supervisor.run_request(
            ("s", "p"), "load",
            [Rung("batch", spy("batch", fail=True)),
             Rung("scalar", spy("scalar")),
             Rung("original", spy("original"))],
            pixels=1,
        )
        # The wall budget was blown before the scalar rung could start:
        # it is skipped, the (uncapped) original serves the request.
        assert rung == "original"
        assert tried == ["batch", "original"]
        causes = [i["cause"] for i in supervisor.health()["incidents"]]
        assert "wall_deadline" in causes


class TestDeadlines:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadline_below_shader_cost_degrades_to_original(self, backend):
        session = RenderSession(
            1, width=4, height=4, backend=backend,
            policy=SupervisorPolicy(deadline_steps=3),
        )
        param = session.spec_info.control_params[0]
        edit = session.begin_edit(param)
        image = edit.load(session.controls)
        assert edit.last_rung == "original"
        assert edit.caches is None  # no partial frame state committed
        reference = session.render_reference(session.controls)
        assert image.colors == reference.colors
        snapshot = session.supervisor.health()
        assert snapshot["deadline_misses"] >= 1
        assert any(
            i["cause"] == "deadline" for i in snapshot["incidents"]
        ), snapshot["incidents"]

    def test_batch_deadline_aborts_mid_ladder_not_mid_frame(self):
        """On the batch backend the deadline surfaces as a
        DeadlineError from the whole-frame kernel (post-hoc per-lane
        budget check) — the failed frame is discarded, never served."""
        session = RenderSession(
            1, width=4, height=4, backend="batch",
            policy=SupervisorPolicy(deadline_steps=3),
        )
        param = session.spec_info.control_params[0]
        edit = session.begin_edit(param)
        edit.load(session.controls)
        drag = session.controls_with(
            **{param: session.controls[param] * 1.5}
        )
        adjusted = edit.adjust(drag)
        assert edit.last_rung == "original"
        assert adjusted.colors == session.render_reference(drag).colors
        rungs = session.supervisor.health()["rungs"]
        assert rungs["batch"] == 0 and rungs["scalar"] == 0

    def test_generous_deadline_is_transparent(self):
        for backend in BACKENDS:
            plain = RenderSession(1, width=4, height=4, backend=backend)
            capped = RenderSession(
                1, width=4, height=4, backend=backend,
                policy=SupervisorPolicy(deadline_steps=10**9),
            )
            param = plain.spec_info.control_params[0]
            e0, e1 = plain.begin_edit(param), capped.begin_edit(param)
            l0, l1 = e0.load(plain.controls), e1.load(capped.controls)
            assert l1.colors == l0.colors
            assert l1.total_cost == l0.total_cost
            assert e1.last_rung in ("batch", "scalar")


class TestSupervisedParity:
    """The gating sweep: supervision must be invisible when healthy —
    every shader, every control-parameter partition, both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("index", sorted(SHADERS))
    def test_full_partition_sweep(self, index, backend):
        plain = RenderSession(index, width=4, height=4, backend=backend)
        supervised = RenderSession(
            index, width=4, height=4, backend=backend,
            policy=SupervisorPolicy(),
        )
        for param in SHADERS[index].control_params:
            e0 = plain.begin_edit(param)
            e1 = supervised.begin_edit(param)
            l0, l1 = e0.load(plain.controls), e1.load(supervised.controls)
            assert l1.colors == l0.colors, (index, param, "load")
            assert l1.total_cost == l0.total_cost, (index, param, "load")
            drag = plain.controls_with(
                **{param: plain.controls[param] * 1.3 + 0.05}
            )
            a0, a1 = e0.adjust(drag), e1.adjust(drag)
            assert a1.colors == a0.colors, (index, param, "adjust")
            assert a1.total_cost == a0.total_cost, (index, param, "adjust")
            assert e1.last_rung == (
                "batch" if backend == "batch" else "scalar"
            )
        snapshot = supervised.supervisor.health()
        assert snapshot["exhausted"] == 0
        assert snapshot["deadline_misses"] == 0
        assert all(
            b["state"] == CLOSED for b in snapshot["breakers"].values()
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_guarded_supervised_parity(self, backend):
        plain = RenderSession(3, width=4, height=4, backend=backend,
                              guard=True)
        supervised = RenderSession(3, width=4, height=4, backend=backend,
                                   guard=True, policy=SupervisorPolicy())
        param = plain.spec_info.control_params[0]
        e0, e1 = plain.begin_edit(param), supervised.begin_edit(param)
        drag = plain.controls_with(**{param: plain.controls[param] * 0.8})
        assert e1.load(supervised.controls).colors == \
            e0.load(plain.controls).colors
        a0, a1 = e0.adjust(drag), e1.adjust(drag)
        assert a1.colors == a0.colors
        assert a1.total_cost == a0.total_cost
        assert len(e1.fault_log) == 0


class TestChaosBreaker:
    """The acceptance scenario: sustained ≥20% cache corruption."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corruption_trips_breaker_and_probes_recover(self, backend):
        session = RenderSession(1, width=4, height=4, backend=backend,
                                guard=True, policy=_policy())
        param = session.spec_info.control_params[0]
        key = (session.spec_info.name, param)
        drag = session.controls_with(
            **{param: session.controls[param] * 1.2}
        )
        edit = session.begin_edit(param)
        edit.load(session.controls)
        reference = session.render_reference(drag)

        # Corrupt ≥20% of cache slots before every adjust: the breaker
        # must open within the configured window, and every emitted
        # frame must still bit-match the unspecialized reference.
        window = session.supervisor.policy.breaker_window
        tripped_after = None
        for i in range(2 * window):
            if edit.caches is not None:
                FaultInjector(
                    seed=100 + i, cache_rate=0.25
                ).corrupt_caches(edit.caches)
            image = edit.adjust(drag)
            assert image.colors == reference.colors, (backend, i)
            if session.supervisor.breakers[key].state == OPEN:
                tripped_after = i + 1
                break
        assert tripped_after is not None, "breaker never opened"
        assert tripped_after <= window

        snapshot = session.supervisor.health()
        assert any(
            i["rung"] == "breaker" and i["cause"] == "open"
            for i in snapshot["incidents"]
        )

        # While open: requests short-circuit to the unspecialized path.
        image = edit.adjust(drag)
        assert edit.last_rung == "original"
        assert image.colors == reference.colors
        assert session.supervisor.short_circuits >= 1

        # Corruption stops; the half-open probe rebuilds the caches and
        # restores the specialized path.
        breaker = session.supervisor.breakers[key]
        for _ in range(4 * window):
            image = edit.adjust(drag)
            assert image.colors == reference.colors
            if breaker.state == CLOSED:
                break
        assert breaker.state == CLOSED
        specialized = "batch" if backend == "batch" else "scalar"
        assert edit.last_rung == specialized
        # And it stays specialized.
        image = edit.adjust(drag)
        assert edit.last_rung == specialized
        assert image.colors == reference.colors

    def test_on_trip_hook_fires_and_failures_are_contained(self):
        calls = []
        supervisor = RenderSupervisor(_policy(), on_trip=calls.append)
        session = RenderSession(1, width=3, height=3, backend="scalar",
                                guard=True, supervisor=supervisor)
        param = session.spec_info.control_params[0]
        drag = session.controls_with(**{param: session.controls[param] * 1.1})
        edit = session.begin_edit(param)
        edit.load(session.controls)
        for i in range(6):
            if edit.caches is not None:
                FaultInjector(seed=i, cache_rate=0.3).corrupt_caches(
                    edit.caches
                )
            edit.adjust(drag)
            if calls:
                break
        assert calls == [(session.spec_info.name, param)]

        # A raising hook must not take the render down with it.
        def bad_hook(key):
            raise RuntimeError("respecialize failed")

        supervisor2 = RenderSupervisor(_policy(), on_trip=bad_hook)
        session2 = RenderSession(1, width=3, height=3, backend="scalar",
                                 guard=True, supervisor=supervisor2)
        edit2 = session2.begin_edit(param)
        edit2.load(session2.controls)
        for i in range(6):
            if edit2.caches is not None:
                FaultInjector(seed=i, cache_rate=0.3).corrupt_caches(
                    edit2.caches
                )
            image = edit2.adjust(drag)
            assert len(image.colors) == 9
        incidents = supervisor2.health()["incidents"]
        assert any(
            i["cause"] == "respecialize" and "failed" in i["detail"]
            for i in incidents
        )


class TestHealthSnapshot:
    def test_json_round_trip_and_counters(self):
        session = RenderSession(1, width=3, height=3, backend="scalar",
                                policy=SupervisorPolicy())
        param = session.spec_info.control_params[0]
        edit = session.begin_edit(param)
        edit.load(session.controls)
        edit.adjust(session.controls_with(
            **{param: session.controls[param] * 1.1}
        ))
        snapshot = session.supervisor.health()
        data = json.loads(snapshot.to_json())
        assert data["requests"] == 2
        assert data["rungs"]["scalar"] == 2
        assert data["cost_per_pixel"]["samples"] == 2
        assert data["cost_per_pixel"]["p50"] is not None
        assert data["cost_per_pixel"]["p99"] >= data["cost_per_pixel"]["p50"]
        assert data["policy"]["seed"] == 0
        assert "requests served" in snapshot.summary()

    def test_incident_ring_is_bounded(self):
        supervisor = RenderSupervisor(
            # min_requests high enough that the breaker never trips, so
            # every incident is a rung failure (no breaker transitions).
            SupervisorPolicy(max_retries=0, max_incidents=3,
                             breaker_min_requests=99)
        )
        for i in range(5):
            supervisor.run_request(
                ("s", "p"), "load",
                [Rung("scalar", _boom(message="e%d" % i)),
                 Rung("original", _ok())],
                pixels=1,
            )
        snapshot = supervisor.health()
        assert len(snapshot["incidents"]) == 3
        assert snapshot["incidents_dropped"] == 2
        assert snapshot["incidents"][-1]["detail"].endswith("e4")

    def test_shared_supervisor_aggregates_across_sessions(self):
        supervisor = RenderSupervisor(SupervisorPolicy())
        a = RenderSession(1, width=2, height=2, supervisor=supervisor)
        b = RenderSession(2, width=2, height=2, supervisor=supervisor)
        for session in (a, b):
            param = session.spec_info.control_params[0]
            edit = session.begin_edit(param)
            edit.load(session.controls)
        snapshot = supervisor.health()
        assert snapshot["requests"] == 2
        assert len(snapshot["breakers"]) == 2  # one per (shader, param)

    def test_edit_opt_out(self):
        session = RenderSession(1, width=2, height=2,
                                policy=SupervisorPolicy())
        param = session.spec_info.control_params[0]
        edit = session.begin_edit(param, supervisor=False)
        edit.load(session.controls)
        assert edit.last_rung is None
        assert session.supervisor.requests == 0
