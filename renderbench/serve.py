"""``serve``: the render daemon under an open-loop request mix.

Each run starts ``python -m repro serve --workers fork:2`` on a fresh
artifact store, opens one 64x64 session per shader for two tenants, and
sends a seeded request mix at a fixed rate from at most ``nproc`` (two)
sender threads.  This is the only workload that goes through HTTP/JSON,
admission, the artifact store, the supervisor and the tiled fork/shm
pool.

Each session's requests come in blocks of :data:`BLOCK`: drag steps on
the current slider (sent with ``param``) and a closing switch to the
next slider (``param`` = the next slider, which specializes through the
store and loads).  Sliders are taken in declaration order, so every
seed drags the same partitions; the seed sets the tenant split, the
interleaving of sessions and the slider values.

The mix is a synthetic choice, not measured from users.  The drag
steps per switch follow the ``drag`` workload: a grab is followed by
``drag.ADJUSTS`` (4) frames on the grabbed slider.  So a block is 4
drags and 1 switch: shares 4/5 and 1/5.

The mix has no move of a non-dragged slider sent without ``param``.
The daemon answers such a move with ``adjust`` on the current drag's
cache, so its colours are stale (``RenderService._render_locked``;
e.g. shader 3, drag ``veinfreq``, then render with ``b1=0.9``), and so
are the drag steps after it until the next switch.  A workload must be
one on which no operation fails, so this request kind stays out until
the daemon answers it correctly; ``tests/test_known_defects.py`` shows
the stale reply, and the serve ``why`` in ``BENCHMARK.json`` says so.

A pass is :data:`ROUNDS` rounds of one block per session, each round
sent open loop on its own schedule.  Between rounds, with no request
in flight and the daemon idle, the host calibration snippet runs in a
burst; it never runs beside the daemon, whose own load would otherwise
slow the snippet and hide part of any change in the daemon's speed.

The benchmark judges every reply against the original program at the
session's full controls; a wrong reply counts as a failure and as an
SLO miss.
"""

from __future__ import annotations

import glob
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

from . import common, layers, loadgen, stats
from .common import now
from .drag import ADJUSTS
from .oracle import Frame
from .spans import NULL_RECORDER, Recorder

#: Requests per second.  The single-client closed-loop capacity of a
#: 4:1:1 drag/move/switch mix (a move is an adjust frame, as a drag step
#: is) is 19-21 requests/s on a 2-core x86 host when the host runs at
#: full speed, but the shared host slows by up to 2x for seconds at a
#: time.  At 13 requests/s (70% of the fast capacity, measured on a
#: 3:1:1 drag/move/switch mix of similar capacity) those spells
#: saturated the daemon and the tail latency of a run swung by 2x; at 8
#: the tail still spread by 28% over ten seeds.  6 requests/s is about
#: half the capacity in a slow spell, so queueing shows without the
#: spells deciding the tail.
RATE = 6.0
#: Drag steps per block: the ``drag`` workload's adjust frames per grab.
DRAGS = ADJUSTS
#: Requests per session block: drags, then one switch.
BLOCK = DRAGS + 1
#: Rounds per pass, each one block per session: 5 x 10 x 5 = 250
#: requests, so 12 lie beyond the p95 (the tail rule's level).
ROUNDS = 5
TENANTS = ("alice", "bob")
#: Pool workers per daemon (``--workers fork:2``).
WORKERS = "fork:2"
#: Daemon set-ups per run (each starts a daemon; ``setup_s`` is their
#: median).
SETUP_REPEATS = 3
#: Sender threads: at most ``nproc``.
SENDERS = max(1, min(2, len(os.sched_getaffinity(0))))
ANNOUNCE = re.compile(r"listening on (http://\S+)")


class Daemon(object):
    """One ``repro serve`` process on a fresh store."""

    def __init__(self, tag):
        self.dir = common.work_dir("serve", "%d-%s" % (os.getpid(), tag))
        self.store = os.path.join(self.dir, "store")
        self.err = open(os.path.join(self.dir, "stderr.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", WORKERS, "--store", self.store],
            cwd=common.ROOT, env=common.program_env(),
            stdout=subprocess.PIPE, stderr=self.err, text=True,
        )
        self.url = self._announce(timeout=60.0)

    def _announce(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        match = ANNOUNCE.search(line)
        if not match:
            self.kill()
            raise RuntimeError("daemon did not announce: %r" % line)
        return match.group(1)

    def pids(self):
        """The daemon and all its descendants."""
        found = [self.proc.pid]
        index = 0
        while index < len(found):
            pid = found[index]
            index += 1
            for path in glob.glob("/proc/%d/task/*/children" % pid):
                try:
                    with open(path) as handle:
                        found.extend(int(p) for p in handle.read().split())
                except OSError:
                    pass
        return found

    def peak_rss_mb(self):
        """Summed peak resident memory (VmHWM) of the daemon and its
        pool workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open("/proc/%d/status" % pid) as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self):
        """SIGTERM, then check the drain: exit code 0, no ``repro_shm_*``
        segment of the daemon or its workers, no process left.  Returns
        a list of problems (empty when clean)."""
        pids = self.pids()
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30.0)
            if code != 0:
                problems.append("exit code %d" % code)
        except subprocess.TimeoutExpired:
            problems.append("no exit 30 s after SIGTERM")
            self.kill()
        self.proc.stdout.close()
        self.err.close()
        for pid in pids:
            segments = glob.glob("/dev/shm/repro_shm_%d_*" % pid)
            if segments:
                problems.append("leaked %s" % ", ".join(segments))
                for segment in segments:
                    os.unlink(segment)
        # Workers get a short grace to finish exiting after the daemon.
        deadline = now() + 5.0
        lingering = [pid for pid in pids[1:] if _running(pid)]
        while lingering and now() < deadline:
            time.sleep(0.05)
            lingering = [pid for pid in lingering if _running(pid)]
        for pid in lingering:
            problems.append("worker %d still running 5 s after exit" % pid)
            os.kill(pid, signal.SIGKILL)
        shutil.rmtree(self.dir, ignore_errors=True)
        return problems

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _running(pid):
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class Session(object):
    """Client-side state of one hosted session."""

    def __init__(self, index, shader, tenant):
        from repro.shaders.sources import SHADERS

        self.index = index
        self.shader = shader
        self.tenant = tenant
        self.params = SHADERS[shader].control_params
        #: Sliders are dragged in declaration order, cycling.
        self.turn = 0
        self.param = self.params[0]
        self.controls = common.controls_of(shader)
        self.id = None

    def switch(self):
        self.turn += 1
        self.param = self.params[self.turn % len(self.params)]


def sessions_for(seed):
    """The seeded generator and the sessions: one per shader, five per
    tenant in a seeded split."""
    from repro.shaders.sources import SHADERS

    rng = random.Random(seed)
    shaders = sorted(SHADERS)
    tenants = [TENANTS[k % len(TENANTS)] for k in range(len(shaders))]
    rng.shuffle(tenants)
    return rng, [
        Session(k, shader, tenants[k]) for k, shader in enumerate(shaders)
    ]


class Wire(loadgen.Request):
    """A render request with its routing: hosted session id, tenant and
    the request id the daemon's flight recorder files it under."""

    __slots__ = ("session_id", "tenant", "request_id")


def next_round(rng, sessions, first_index, seed):
    """One round: one block per session, interleaved in a seeded session
    order, each request due ``k / RATE`` seconds into the round.  Walks
    the sessions' client-side state forward."""
    count = len(sessions)
    kinds = ["drag"] * DRAGS + ["switch"]
    order = list(range(count))
    rng.shuffle(order)
    requests = []
    for k in range(count * BLOCK):
        session = sessions[order[k % count]]
        kind = kinds[k // count]
        body = {}
        if kind == "drag":
            session.controls[session.param] = common.nudge(
                rng, session.controls[session.param]
            )
            body["param"] = session.param
        else:
            session.switch()
            body["param"] = session.param
        body["controls"] = dict(session.controls)
        request = Wire(
            first_index + k, session.index, kind, body,
            (session.shader, session.param, dict(session.controls)),
            k / RATE,
        )
        request.session_id = session.id
        request.tenant = session.tenant
        request.request_id = "rb-%d-%d" % (seed, first_index + k)
        requests.append(request)
    return requests


def set_up(tag, sessions, frames):
    """Start a daemon, create every session and serve its first frame.
    Appends ``(expect, reply, seconds)`` per first frame to ``frames``;
    returns (daemon, seconds)."""
    from repro.serve.client import ServiceClient

    start = now()
    daemon = Daemon(tag)
    try:
        for session in sessions:
            client = ServiceClient(daemon.url, tenant=session.tenant)
            t0 = now()
            session.id = client.create_session(
                session.shader, common.SIZE, common.SIZE
            )["session"]
            reply = client.render(session.id, param=session.param,
                                  controls=session.controls)
            took = now() - t0
            frames.append((
                (session.shader, session.param, dict(session.controls)),
                compact(reply), took,
            ))
    except BaseException:
        daemon.stop()
        raise
    return daemon, now() - start


class Checker(object):
    """Judges replies against the original program run in this process:
    colours from ``render_reference`` at the session's full controls,
    cost from the batch loader/reader kernels at those controls.

    With a :class:`~renderbench.spans.Recorder`, the sessions, the
    specializations and the kernel builds of the partitions the daemon
    served are timed here too: the same frontend, specializer and codegen
    on the same inputs, measured around the calls into them."""

    def __init__(self, tally, rec=NULL_RECORDER):
        self.tally = tally
        self.rec = rec
        self.sessions = {}
        self.specs = {}
        self.caches = {}
        self.cache_bytes = {}

    def session(self, shader):
        from repro.obs import Observability
        from repro.shaders.render import RenderSession

        if shader not in self.sessions:
            with self.rec.span("session", op=shader) as span:
                self.sessions[shader] = RenderSession(
                    shader, width=common.SIZE, height=common.SIZE,
                    obs=Observability() if self.rec.enabled else None,
                )
            if span is not None:
                tracer = self.sessions[shader].obs.tracer
                self.rec.adopt(tracer.spans, tracer.epoch, span)
                del tracer.spans[:]
        return self.sessions[shader]

    def spec(self, shader, param):
        session = self.session(shader)
        key = (shader, param)
        if key not in self.specs:
            if self.rec.enabled:
                # Drop the reference renders' spans: only this
                # partition's build is adopted below.
                del session.obs.tracer.spans[:]
            with self.rec.span("partition", op=shader) as root:
                with self.rec.span("specialize"):
                    spec = session.specialize(param)
                with self.rec.span("codegen"):
                    spec.batch_loader.vectorized
                    spec.batch_reader.vectorized
            if root is not None:
                tracer = session.obs.tracer
                self.rec.adopt(tracer.spans, tracer.epoch, root)
                del tracer.spans[:]
            self.specs[key] = spec
            self.cache_bytes[key] = (spec.cache_size_bytes, len(spec.layout))
        return session, self.specs[key]

    def expected_cost(self, session, spec, phase, controls):
        columns = session.batch_args(controls)
        n = len(session.scene)
        key = (id(spec), tuple(sorted(
            (k, v) for k, v in controls.items() if k not in spec.varying
        )))
        if key not in self.caches:
            self.caches.clear()
            _, cache, cost = spec.run_loader_batch(columns, n)
            self.caches[key] = (cache, cost)
        cache, load_cost = self.caches[key]
        if phase == "load":
            return load_cost
        return spec.run_reader_batch(cache, columns, n)[1]

    def judge(self, expect, reply):
        shader, param, controls = expect
        session, spec = self.spec(shader, param)
        colors = reply["colors"]
        ok = self.tally.oracle.batch(session, spec, controls, colors,
                                     nan_sign=True)
        rung = reply.get("rung")
        if rung in ("batch", "scalar"):
            want = self.expected_cost(session, spec, reply["phase"], controls)
            ok = ok and reply["cost"] == want
        elif rung == "original":
            ok = ok and reply["cost"] == session.render_reference(
                controls, specialization=spec
            ).total_cost
        return ok

    def scalar(self, expect, reply):
        """The scalar-interpreter check of one reply."""
        shader, param, controls = expect
        session, spec = self.spec(shader, param)
        return self.tally.oracle.scalar(session, spec, Frame(
            reply["phase"], controls, reply["colors"], reply["cost"],
            prior=controls,
        ))

    def count(self, expect, reply, seconds, timed=True, scalar=False):
        ok = reply is not None and self.judge(expect, reply)
        if scalar and reply is not None and reply.get("rung") in (
            "batch", "scalar"
        ):
            ok = self.scalar(expect, reply) and ok
        pixels = reply["width"] * reply["height"] if reply else 0
        cost = reply["cost"] if reply else 0
        self.tally.served(pixels, cost, ok, seconds, timed)
        return ok


def send_with(url):
    from repro.serve.client import ServiceClient

    clients = {}

    def send(request):
        tenant = request.tenant
        client = clients.get(tenant)
        if client is None:
            client = clients[tenant] = ServiceClient(url, tenant=tenant)
        status, reply, _ = client.request(
            "POST", "/sessions/%s/render" % request.session_id, request.body,
            headers={"X-Repro-Request-Id": request.request_id},
        )
        return status, reply

    return send


def compact(reply):
    """Keep a reply's colours as one float64 array (a tenth of the
    memory of the decoded JSON lists)."""
    if isinstance(reply, dict) and "colors" in reply:
        reply["colors"] = np.asarray(reply["colors"], dtype=np.float64)
    return reply


def run_once(seed, seconds, trace):
    """Three set-ups, open-loop passes on the last daemon until
    ``seconds`` are measured, stop, then the checks.  The calibration
    snippet runs only while no daemon runs or the last one is idle:
    before the first start, after each stop, and before and after each
    round.  Returns everything the metrics need."""
    rng, sessions = sessions_for(seed)
    tally = layers.Tally(ROUNDS * len(sessions) * BLOCK)
    first = []
    setups = []
    stops = []
    requests = []
    passes = 0
    daemon = None
    calibration = common.Calibration()
    calibration.phase = "setup"
    calibration.burst(common.IDLE_SAMPLES, common.IDLE_GAP_S)
    try:
        for repeat in range(SETUP_REPEATS):
            if daemon is not None:
                stops.append(daemon.stop())
                daemon = None
                calibration.burst(common.IDLE_SAMPLES, common.IDLE_GAP_S)
            daemon, took = set_up("setup%d" % repeat, sessions, first)
            setups.append(took)
        calibration.phase = "loop"
        calibration.burst(common.IDLE_SAMPLES, common.IDLE_GAP_S)
        while passes == 0 or tally.timed_wall < seconds:
            passes += 1
            for _ in range(ROUNDS):
                batch = next_round(rng, sessions, len(requests), seed)
                wall = loadgen.run_open_loop(
                    batch, SENDERS, lambda: send_with(daemon.url),
                    keep=compact,
                )
                calibration.burst(common.IDLE_SAMPLES, common.IDLE_GAP_S)
                tally.timed_wall += wall
                tally.latencies.extend(r.latency for r in batch)
                requests.extend(batch)
        scraped = scrape(daemon) if trace else None
        peak = daemon.peak_rss_mb()
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    stops.append(daemon.stop())

    checker = Checker(tally, Recorder() if trace else NULL_RECORDER)
    tally.first_frame_phase = "setup"
    for expect, reply, took in first:
        checker.count(expect, reply, took, timed=False)
        tally.first_frames.append(took)
    pick = random.Random(seed ^ 0x5EED).randrange(len(requests))
    ok = []
    for k, r in enumerate(requests):
        reply = r.reply if r.error is None else None
        ok.append(checker.count(r.expect, reply, r.latency,
                                scalar=k == pick))
    for problems in stops:
        tally.served(0, 0, not problems, 0.0, timed=False)
    return {
        "tally": tally, "setups": setups, "requests": requests,
        "stops": stops, "peak": peak, "scraped": scraped,
        "checker": checker, "ok": ok, "passes": passes,
        "calibration": calibration,
    }


def scrape(daemon):
    from repro.serve.client import ServiceClient

    client = ServiceClient(daemon.url)
    return {"metrics": client.metrics(), "flight": client.flight()}


def _ratio(part, whole):
    return part / float(whole) if whole else 0.0


def _family(text, name):
    """Sum of all samples of one Prometheus family line name."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


def run(seed, seconds, trace, report):
    result = run_once(seed, seconds, trace)
    tally = result["tally"]
    requests = result["requests"]
    tally.finish(report)
    for problems in result["stops"]:
        for problem in problems:
            report.note("daemon stop: %s" % problem)
    n = len(requests)
    shares = ", ".join(
        "%s=%.3f" % (kind, sum(1 for r in requests if r.kind == kind) / n)
        for kind in ("drag", "switch")
    )
    failed_kind = ", ".join(
        "%s=%d" % (kind, sum(
            1 for r, ok in zip(requests, result["ok"])
            if r.kind == kind and not ok
        ))
        for kind in ("drag", "switch")
    )
    report.note("properties: %d requests in %d pass(es) at %.1f/s from %d "
                "senders; kind shares %s; failed by kind %s"
                % (n, result["passes"], RATE, SENDERS, shares, failed_kind))
    if trace:
        daemon_layers(report, result)
        return
    layers.end_to_end(report, tally, result["setups"],
                      result["calibration"], peak_rss_mb=result["peak"],
                      closed_loop=False)


def daemon_layers(report, result):
    """Per-layer metrics of the daemon, from its ``/metrics`` and
    ``/debug/flight`` and from the replies; frontend, specializer and
    codegen from the checker's in-process runs of the same partitions."""
    metrics = result["scraped"]["metrics"]
    flight = result["scraped"]["flight"]
    requests = result["requests"]
    replies = [r.reply for r in requests if r.error is None]
    entries = {e.get("request_id"): e for e in flight.get("entries", ())}
    rec = result["checker"].rec
    layers.front_end(report, rec)
    for prefix, phase in (("loader", "load"), ("reader", "adjust")):
        handled = [e["ms"] for e in entries.values()
                   if e.get("endpoint") == "render"
                   and e.get("phase") == phase]
        served = [r for r in replies if r["phase"] == phase]
        ms = stats.median(handled) if handled else 0.0
        report.put(prefix + ".ms", ms, len(handled))
        report.put(prefix + ".px_s", _ratio(common.PIXELS * 1000.0, ms),
                   len(handled))
        report.put(prefix + ".cost_steps_per_px", _ratio(
            sum(r["cost"] for r in served),
            sum(r["width"] * r["height"] for r in served),
        ), len(served))
    shapes = list(result["checker"].cache_bytes.values())
    report.put("cache.bytes_per_px", stats.mean(b for b, _ in shapes),
               len(shapes))
    report.put("cache.slots", stats.mean(s for _, s in shapes), len(shapes))
    for name in ("delta.ms", "delta.share", "delta.noop_share",
                 "delta.fallback_share", "delta.dirty_fraction.mean"):
        report.put(name, 0.0)

    tiled = _family(metrics, "repro_tiles_per_second_count")
    rate_sum = _family(metrics, "repro_tiles_per_second_sum")
    hits = _family(metrics, "repro_worker_warm_hits_total")
    misses = _family(metrics, "repro_worker_warm_misses_total")
    report.put("pool.tile_ms", _ratio(1000.0 * tiled, rate_sum), int(tiled))
    report.put("pool.chunks_per_frame", _ratio(hits + misses, tiled),
               int(tiled))
    report.put("pool.warm_hit_share", _ratio(hits, hits + misses))
    report.put("pool.redispatched_tiles",
               _family(metrics, "repro_pool_redispatched_tiles_total"))
    degraded = sum(1 for r in replies if r.get("rung") != "batch")
    report.put("supervise.degraded_share", _ratio(degraded, len(replies)),
               len(replies))

    render = '{endpoint="render"}'
    count = _family(metrics, "repro_serve_request_ms_count" + render)
    total = _family(metrics, "repro_serve_request_ms_sum" + render)
    report.put("serve.handler_ms.mean", _ratio(total, count), int(count))
    wire = [
        r.round_trip * 1000.0 - entries[r.request_id]["ms"]
        for r in requests if r.error is None and r.request_id in entries
    ]
    report.put("serve.wire_ms.mean", stats.mean(wire) if wire else 0.0,
               len(wire))
    shed = sum(1 for r in requests if r.status == 429)
    report.put("serve.shed_share", shed / float(len(requests)), len(requests))
    report.put("serve.specializations",
               _family(metrics, "repro_specializations_total"))
    lags = [r.late * 1000.0 for r in requests]
    level, value = stats.tail(lags)
    report.put("gen.late_ms.tail", value, len(lags))
    report.note("gen.late_ms.tail is the %s of %d samples"
                % (stats.level_label(level), len(lags)))
    # The daemon traces every request and cannot be run without it, and
    # the benchmark's request spans are recorded after the run from the
    # timings it keeps anyway: tracing adds nothing to the timed loop.
    report.put("obs.trace_overhead", 0.0)
    report.note("obs.trace_overhead is 0 on serve: daemon tracing cannot "
                "be switched off, and request spans are recorded after "
                "the run")

    for r in requests:
        rec.add("request", r.index, r.sent, r.done, kind=r.kind,
                status=r.status, due=r.due, late=r.late)
    report.note("trace: %s" % layers.write_trace(rec, "serve", report.seed))
