"""Tiled multi-core frame scheduler for the batch execution backend.

The batch backend (``runtime/batch.py``) executes one whole-frame kernel
call per request; this module shards that call into cache-friendly
**tiles** — contiguous, row-aligned lane spans — and executes them
either on a persistent ``fork`` worker pool or serially in-process:

* :func:`plan_tiles` — deterministic tile spans over the pixel grid,
  independent of the worker count, so the work decomposition (and hence
  every per-lane result) is a pure function of ``(n, tile, width)``.
* :class:`TileExecutor` — runs a :class:`~repro.runtime.batch
  .BatchKernel` over every tile, over one of two **transports**:

  - ``shm``: SoA columns live in :class:`~repro.runtime.batch.ShmArena`
    shared-memory segments, so a pool worker writes its tiles' rows
    directly into the parent's frame — only a tiny per-tile descriptor
    (token, span, filled-mask summary) crosses the pipe.
  - ``serial``: every other case — a single worker or tile, no fork or
    shared memory, no NumPy, a non-vectorized kernel, a diverged cache,
    no fixed result layout, an open pool breaker, or a quarantined
    kernel.  The tiles run in-process, byte-identical to ``shm``.

Workers are persistent and **warm**: each pool worker keeps the kernels
it has built, keyed by :meth:`TileExecutor._token_for` tokens, and the
parent tracks per-worker installs — so repeat loads and drag sequences
ship no kernel spec at all (see the ``repro_worker_warm_hits_total``
counter).

Byte-identity argument: every vectorized operation the kernels perform
is lane-local (elementwise arithmetic, masked selects, per-lane cost
charges — the language has no cross-lane reductions), so running lanes
``[s, e)`` in one kernel call produces bit-identical values and int64
costs to running them inside a full-width call.  Tile order is fixed and
tile→worker assignment is deterministic round-robin, so stitching tiles
back in index order reproduces the single-call frame byte for byte and
the CostMeter totals sum exactly.  The shm transport preserves this:
workers compute on ordinary tile-local caches and memcpy into the
arena, and fresh segments are zero-filled exactly like the arrays
``SoACache.splice`` would have allocated.

Per-tile deadlines: when a supervised request caps per-pixel steps, the
cap is enforced post hoc per **tile** instead of per frame.  A blown
tile either degrades alone through the caller's ``on_overrun`` hook
(the :class:`~repro.runtime.supervise.RenderSupervisor` integration —
the rest of the frame stays on the fast path) or, with no hook, raises
:class:`~repro.lang.errors.DeadlineError` exactly like the whole-frame
check did.  Degraded tiles are zeroed out of the shared frame columns
before commit, so shm frames splice byte-identically to serial ones.

Self-healing (PR 7): the pool survives *process-level* faults.  Replies
are waited on with ``Connection.poll`` under a per-chunk wall deadline
(:class:`PoolPolicy`), with ``Process.is_alive``/exitcode liveness
checks, so a crashed (``kill -9``, OOM) worker is distinguished from a
hung one and surfaced as a typed :class:`WorkerLostError`.  A lost
worker's tiles are re-dispatched to surviving warm workers, then to an
in-process fallback, so the frame still completes byte-identically;
the worker is respawned under a bounded, seeded-backoff restart budget.
Budget exhaustion trips a per-pool breaker (:class:`PoolBreaker`) that
degrades subsequent frames to the serial transport until a half-open
probe refills the pool.  Kernels that repeatedly kill their
workers are quarantined to the serial path, and shm segments orphaned
by crashed children are reclaimed (:func:`~repro.runtime.batch
.reclaim_orphaned_segments`).  :func:`pool_health` reports all of it.
"""

from __future__ import annotations

import atexit
import itertools
import os
import random
import statistics
import time
from collections import deque

from ..lang.errors import DeadlineError
from ..lang.types import FLOAT, INT, MAT3, VEC3
from ..obs import NULL_OBS
from . import batch as B
from .colors import join_colors

#: Default lanes per tile.  Sized so one tile's SoA columns (~10 slots x
#: 8 bytes x lanes) stay within a typical L2 slice while still amortizing
#: per-tile kernel dispatch overhead; see docs/performance.md for the
#: measured tuning table.
DEFAULT_TILE = 2048


def usable_cores():
    """CPU cores this process may actually run on (cgroup/affinity
    aware), falling back to the raw core count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers):
    """Normalize the ``workers=`` knob to a worker count.

    ``None``/``0``/``1`` mean single-process execution; ``"auto"`` (or
    bare ``"fork"``) means one worker per usable CPU core; ``"fork:N"``
    means N workers; any other positive int is taken literally (more
    workers than cores is allowed — useful for testing the pool path on
    small hosts).  Anything else raises :class:`ValueError` naming the
    accepted spellings.
    """
    if workers is None:
        return 1
    floor = 0
    if isinstance(workers, str):
        spec = workers.strip().lower()
        if spec in ("auto", "fork"):
            return max(1, usable_cores())
        if spec.startswith("fork:"):
            spec, floor = spec[len("fork:"):], 1
        try:
            count = int(spec)
        except ValueError:
            count = None
    else:
        count = int(workers)
    if count is None or count < floor:
        raise ValueError(
            "bad workers spec %r (expected a count, 'auto', or "
            "'fork[:N]')" % (workers,)
        )
    return max(1, count)


def _pool_available():
    """True when the zero-copy fork/shm pool can run at all here."""
    return B.HAVE_NUMPY and B.HAVE_SHM and _fork_available()


def resolve_tile(tile):
    """Normalize the ``tile=`` knob (lanes per tile; None = default)."""
    if tile is None:
        return DEFAULT_TILE
    try:
        size = int(tile)
    except ValueError:
        size = 0
    if size < 1:
        raise ValueError("bad tile %r (expected a lane count >= 1)" % (tile,))
    return size


def plan_tiles(n, tile, width=None):
    """Deterministic contiguous ``[start, stop)`` lane spans.

    When the scene ``width`` is known the tile size is rounded down to a
    whole number of scan lines (and up to at least one), so a tile never
    splits a row — the row-major SoA segments each worker touches stay
    cache-aligned and cover whole image rows.
    """
    if n <= 0:
        return []
    size = max(1, int(tile))
    if width is not None and width > 0:
        if size >= width:
            size -= size % width
        else:
            size = width
    return [(start, min(start + size, n)) for start in range(0, n, size)]


# ---------------------------------------------------------------------------
# Persistent worker pool (fork path)
# ---------------------------------------------------------------------------


class PoolBrokenError(RuntimeError):
    """A pool worker died mid-conversation; the pool is rebuilt.

    When several workers fail in one gather, the raised exception gets
    the other collected failures attached as ``related_failures`` so a
    structured kernel error is never masked by a broken pipe.
    """

    #: Other failures collected in the same gather (satellite: the old
    #: ``_gather`` kept only the first failure).
    related_failures = ()


class WorkerLostError(PoolBrokenError):
    """A specific pool worker was lost mid-chunk.

    ``kind`` types the incident: ``"crash"`` (process died — pipe EOF or
    ``is_alive()`` false), ``"hang"`` (no reply within the
    :class:`PoolPolicy` deadline), ``"garbled"`` (an unparseable reply —
    the pipe can no longer be trusted), or ``"pipe"`` (send failed).
    """

    def __init__(self, worker, kind, detail, exitcode=None):
        PoolBrokenError.__init__(
            self, "worker %d %s: %s" % (worker, kind, detail)
        )
        self.worker = worker
        self.kind = kind
        self.exitcode = exitcode


class PoolPolicy(object):
    """Tunable self-healing knobs, threaded like ``SupervisorPolicy``.

    * ``deadline_ms`` — wall-clock budget for one worker chunk reply
      (``None`` disables hang detection and waits forever).
    * ``poll_interval_ms`` — ``Connection.poll`` granularity while
      waiting; also bounds how stale a liveness check can be.
    * ``max_restarts`` / ``restart_window`` — restart budget: at most
      ``max_restarts`` worker respawns per ``restart_window`` pooled
      runs; exceeding it degrades the pool and trips the breaker.
    * ``backoff_base_ms`` / ``backoff_cap_ms`` — seeded exponential
      respawn backoff (base 0 disables sleeping, the test default).
    * ``breaker_cooldown`` / ``breaker_cooldown_cap`` — pooled runs the
      breaker stays open before a half-open probe; doubles (with seeded
      jitter) on every re-trip, capped.
    * ``quarantine_threshold`` — worker losses charged to one kernel
      token before that kernel is routed to the serial transport.
    """

    __slots__ = ("deadline_ms", "poll_interval_ms", "max_restarts",
                 "restart_window", "backoff_base_ms", "backoff_cap_ms",
                 "breaker_cooldown", "breaker_cooldown_cap",
                 "quarantine_threshold", "seed")

    def __init__(self, deadline_ms=30000.0, poll_interval_ms=20.0,
                 max_restarts=3, restart_window=16,
                 backoff_base_ms=0.0, backoff_cap_ms=200.0,
                 breaker_cooldown=4, breaker_cooldown_cap=64,
                 quarantine_threshold=3, seed=0):
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive or None")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if restart_window < 1:
            raise ValueError("restart_window must be >= 1")
        if quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        self.deadline_ms = deadline_ms
        self.poll_interval_ms = poll_interval_ms
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        self.backoff_base_ms = backoff_base_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.breaker_cooldown = breaker_cooldown
        self.breaker_cooldown_cap = breaker_cooldown_cap
        self.quarantine_threshold = quarantine_threshold
        self.seed = seed


#: Worker-loss kinds (mirrored in ``obs.schema.POOL_FAULT_KINDS``).
FAULT_KINDS = ("crash", "hang", "garbled", "pipe")

#: Incident ring capacity in :class:`PoolHealth`.
MAX_POOL_INCIDENTS = 256

#: Respawn-latency samples kept for the median (smoke tooling).
_MAX_RESPAWN_SAMPLES = 512


class PoolHealth(object):
    """Process-wide self-healing telemetry, surfaced by
    :func:`pool_health` and the supervisor's ``health()["pool"]``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.restarts = 0
        self.redispatched_tiles = 0
        self.inline_tiles = 0
        self.lost_workers = dict.fromkeys(FAULT_KINDS, 0)
        self.degraded_runs = 0
        self.quarantine_routed = 0
        self.reclaimed_segments = 0
        self.reclaimed_bytes = 0
        self.respawn_ms = []
        self.incidents = deque(maxlen=MAX_POOL_INCIDENTS)
        self.incidents_dropped = 0
        self._seq = itertools.count(1)

    def record(self, kind, worker=None, detail=""):
        if len(self.incidents) == self.incidents.maxlen:
            self.incidents_dropped += 1
        self.incidents.append({
            "seq": next(self._seq), "kind": kind,
            "worker": worker, "detail": detail,
        })

    def note_respawn(self, ms):
        self.restarts += 1
        if len(self.respawn_ms) < _MAX_RESPAWN_SAMPLES:
            self.respawn_ms.append(ms)


POOL_HEALTH = PoolHealth()


class PoolBreaker(object):
    """Per-pool circuit breaker over the fork transport.

    Run-counted like the supervisor's :class:`~repro.runtime.supervise
    .CircuitBreaker` (no wall clock, so replays are deterministic):
    while open, pooled runs degrade to serial; after ``cooldown``
    shm-eligible runs a half-open probe forks a fresh pool, closing on
    success and re-opening (with doubled, seeded-jittered cooldown) if
    the probe's pool blows its budget too.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.state = "closed"
        self.runs = 0
        self.trips = 0
        self.reopens = 0
        self.cooldown = None
        self.probe_at = None

    def allow_fork(self, policy):
        """Advance breaker time by one shm-eligible run; True when the
        run may use the fork pool (closed, or a half-open probe)."""
        self.runs += 1
        if self.state == "open" and self.runs >= self.probe_at:
            self.state = "half_open"
        return self.state != "open"

    def trip(self, policy):
        if self.state == "half_open":
            self.reopens += 1
        self.state = "open"
        self.trips += 1
        base = policy.breaker_cooldown * (2 ** self.reopens)
        rng = random.Random("%r|poolbreaker|%d" % (policy.seed, self.trips))
        jittered = base * (1.0 + rng.random() * 0.5)
        self.cooldown = max(
            1, min(int(round(jittered)), policy.breaker_cooldown_cap)
        )
        self.probe_at = self.runs + self.cooldown

    def close(self):
        if self.state == "half_open":
            self.state = "closed"
            self.reopens = 0
            self.cooldown = None
            self.probe_at = None

    def as_dict(self):
        return {
            "state": self.state, "trips": self.trips,
            "reopens": self.reopens, "cooldown": self.cooldown,
            "probe_at": self.probe_at, "runs": self.runs,
        }


_BREAKER = PoolBreaker()

#: Worker losses charged per kernel token, and the poison-token set of
#: kernels routed to the serial transport (tentpole hygiene step).
_KERNEL_STRIKES = {}
_QUARANTINE = {}


def pool_health():
    """Self-healing state for ``repro health`` / smoke tooling: loss,
    redispatch, respawn, quarantine, breaker, and reclamation counters
    plus the recent incident ring."""
    health = POOL_HEALTH
    alive = 0
    if _POOL is not None:
        alive = sum(1 for w in range(_POOL.workers) if _POOL.alive(w))
    return {
        "workers": {
            "configured": _POOL.workers if _POOL is not None else 0,
            "alive": alive,
        },
        "runs": _POOL.runs if _POOL is not None else 0,
        "restarts": health.restarts,
        "redispatched_tiles": health.redispatched_tiles,
        "inline_tiles": health.inline_tiles,
        "lost_workers": dict(health.lost_workers),
        "degraded_runs": health.degraded_runs,
        "quarantined": sorted(_QUARANTINE.values()),
        "quarantine_routed": health.quarantine_routed,
        "reclaimed_segments": health.reclaimed_segments,
        "reclaimed_bytes": health.reclaimed_bytes,
        "respawn_ms_median": (
            statistics.median(health.respawn_ms)
            if health.respawn_ms else None
        ),
        "respawn_samples": len(health.respawn_ms),
        "breaker": _BREAKER.as_dict(),
        "incidents": list(health.incidents),
        "incidents_dropped": health.incidents_dropped,
        "shm_resident_bytes": B.shm_resident_bytes(),
    }


def reset_pool_state():
    """Forget breaker/quarantine/health state (tests, smoke tools)."""
    POOL_HEALTH.reset()
    _BREAKER.reset()
    _KERNEL_STRIKES.clear()
    _QUARANTINE.clear()


def _fork_available():
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except (ImportError, NotImplementedError):  # pragma: no cover
        return False


def _portable_error(exc):
    """An exception safe to send over the pipe (pickle round-trips it
    here so an unpicklable error cannot kill the worker's send)."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        import traceback

        return RuntimeError(
            "worker error: %s\n%s" % (exc, traceback.format_exc())
        )


class _SpanBuffer(object):
    """Worker-side span recorder: a flat, picklable buffer.

    Workers cannot append to the parent's :class:`~repro.obs.trace.
    Tracer`, so when the dispatching executor ships a ``"trace"``
    payload key they record spans locally and return the buffer with
    the chunk reply; the parent merges it via ``Tracer.ingest``.  Fork
    children share the parent's CLOCK_MONOTONIC, so times are recorded
    directly against the shipped tracer epoch and land on the parent's
    timeline without any skew correction.  Records are
    ``(name, lid, parent_lid, depth, start, end, attrs)`` tuples with
    buffer-local ids.  When no trace context ships (obs disabled), no
    buffer is ever constructed — the hot path stays allocation-free.
    """

    __slots__ = ("epoch", "records", "_stack")

    def __init__(self, epoch):
        self.epoch = epoch
        self.records = []
        self._stack = []

    def begin(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = [
            name, len(self.records), parent, len(self._stack),
            time.perf_counter() - self.epoch, None, attrs,
        ]
        self.records.append(record)
        self._stack.append(record[1])
        return record

    def end(self, record, **attrs):
        record[5] = time.perf_counter() - self.epoch
        if attrs:
            record[6].update(attrs)
        if self._stack and self._stack[-1] == record[1]:
            self._stack.pop()

    def dump(self):
        return {
            "pid": os.getpid(),
            "spans": [tuple(r) for r in self.records],
        }


def _worker_main(conn):
    """Pool worker loop: recv a chunk payload, run it, send the result.

    The ``kernels`` memo is the warm state: kernels are rebuilt (and
    their vectorized forms compiled) once per ``TileExecutor`` token and
    reused for every subsequent frame, so a drag sequence ships no
    kernel spec after its first chunk.

    Replies are ``(status, value, spans)`` triples: ``("ok", results,
    buffer-or-None)`` / ``("err", exc, buffer-or-None)``.  ``spans`` is
    a :class:`_SpanBuffer` dump when the payload carried a ``"trace"``
    context, else None — the disabled path records nothing.
    """
    kernels = {}
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if payload is None:
            break
        directive = payload.get("chaos")
        if directive is not None:
            # Process-level fault injection (FaultInjector.proc_fault):
            # the parent planted a seeded fault directive in the chunk.
            kind, seconds = directive
            if kind == "kill":
                os._exit(23)
            if kind == "garbled":
                try:
                    conn.send("!garbled reply!")
                except (BrokenPipeError, OSError):  # pragma: no cover
                    break
                continue
            if kind in ("hang", "slow") and seconds:
                # "hang" sleeps past the pool deadline so the parent
                # SIGKILLs us mid-sleep; with deadlines disabled it
                # degenerates to a slow (but correct) reply.
                time.sleep(seconds)
        trace = payload.get("trace")
        spans = chunk = None
        if trace is not None:
            spans = _SpanBuffer(trace["epoch"])
            chunk = spans.begin(
                "worker.chunk",
                tiles=len(payload.get("jobs") or ()),
                warm=payload.get("token") in kernels,
                **(trace.get("attrs") or {})
            )
        try:
            status, value = "ok", _run_chunk(payload, kernels, spans)
        except BaseException as exc:
            status, value = "err", _portable_error(exc)
        if chunk is not None:
            spans.end(chunk, ok=status == "ok")
        try:
            conn.send(
                (status, value, spans.dump() if spans is not None else None)
            )
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
    conn.close()


class WorkerPool(object):
    """N persistent forked workers, each on its own duplex pipe.

    Unlike ``multiprocessing.Pool``, chunks are addressed to a
    *specific* worker — that is what makes warm per-worker kernel state
    possible: the parent tracks which kernel tokens each worker has
    installed (:meth:`installed`) and ships the heavy kernel spec only
    on a worker's first use of a kernel.
    """

    def __init__(self, workers):
        import multiprocessing

        self._ctx = multiprocessing.get_context("fork")
        self.workers = workers
        #: Pooled runs served; the restart budget and breaker count in
        #: run ordinals, not wall time, so replays are deterministic.
        self.runs = 0
        self._restart_log = deque()
        self._installed = [set() for _ in range(workers)]
        self._procs = []
        self._conns = []
        for _ in range(workers):
            proc, conn = self._spawn()
            self._procs.append(proc)
            self._conns.append(conn)

    def _spawn(self):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def installed(self, worker, token):
        return token in self._installed[worker]

    def mark_installed(self, worker, token):
        self._installed[worker].add(token)

    def alive(self, worker):
        return self._procs[worker].is_alive()

    def send(self, worker, payload):
        try:
            self._conns[worker].send(payload)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerLostError(
                worker, "pipe", "send failed: %s" % (exc,),
                exitcode=self._procs[worker].exitcode,
            )

    def recv(self, worker, deadline_s=None, poll_interval_s=0.02):
        """The worker's ``("ok", results, spans)`` /
        ``("err", exc, spans)`` reply.

        Waits with ``Connection.poll`` so a dead or hung worker cannot
        block the parent forever: raises :class:`WorkerLostError` of
        kind ``"crash"`` when the process is gone (after one final
        zero-timeout drain — its reply may have been buffered before it
        died) and kind ``"hang"`` when ``deadline_s`` elapses with the
        process still alive.
        """
        conn = self._conns[worker]
        proc = self._procs[worker]
        started = time.monotonic()
        # Without a deadline, still wake periodically for liveness.
        interval = poll_interval_s if deadline_s is not None else 0.2
        while True:
            try:
                if conn.poll(interval):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerLostError(
                    worker, "crash", "pipe closed: %s" % (exc or "EOF",),
                    exitcode=proc.exitcode,
                )
            if not proc.is_alive():
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerLostError(
                    worker, "crash",
                    "process exited with code %s" % (proc.exitcode,),
                    exitcode=proc.exitcode,
                )
            if (
                deadline_s is not None
                and time.monotonic() - started >= deadline_s
            ):
                raise WorkerLostError(
                    worker, "hang",
                    "no reply within %.0f ms" % (deadline_s * 1000.0),
                )

    def ensure_dead(self, worker):
        """SIGKILL a worker being written off (hung/garbled) so its
        slot can be respawned without racing the old process."""
        proc = self._procs[worker]
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2)

    def respawn(self, worker):
        """Replace a lost worker with a fresh fork (cold kernel memo).
        Returns the respawn latency in milliseconds."""
        started = time.perf_counter()
        self.ensure_dead(worker)
        try:
            self._conns[worker].close()
        except OSError:  # pragma: no cover - already closed
            pass
        proc, conn = self._spawn()
        self._procs[worker] = proc
        self._conns[worker] = conn
        self._installed[worker] = set()
        return (time.perf_counter() - started) * 1000.0

    def respawn_budget_ok(self, policy):
        """True while this pool may still respawn workers: fewer than
        ``max_restarts`` respawns in the last ``restart_window`` runs."""
        horizon = self.runs - policy.restart_window
        while self._restart_log and self._restart_log[0] <= horizon:
            self._restart_log.popleft()
        return len(self._restart_log) < policy.max_restarts

    def note_restart(self):
        self._restart_log.append(self.runs)

    def shutdown(self):
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - unkillable via TERM
                # Satellite fix: TERM can be absorbed by a worker stuck
                # in uninterruptible state; escalate to SIGKILL so
                # shutdown never strands a live child.
                proc.kill()
                proc.join(timeout=2)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        self._installed = [set() for _ in range(self.workers)]


#: The single persistent fork pool (rebuilt when ``workers=`` changes).
_POOL = None


def _get_pool(workers):
    """The persistent fork pool, torn down and rebuilt when the worker
    count changes between runs (stale pools would pin memory and hold
    kernel state for a topology no session uses anymore)."""
    global _POOL
    if _POOL is not None and _POOL.workers != workers:
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        # Note the order: _POOL is still None while the children fork,
        # so a worker's inherited globals never reference a live pool.
        _POOL = WorkerPool(workers)
    return _POOL


def _discard_pool():
    """Forget a broken pool so the next run forks a fresh one."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL, None
        pool.shutdown()


def shutdown_pools():
    """Stop the persistent worker pool, unlink every live
    shared-memory segment, and reclaim any segment a crashed child
    orphaned (tests, interpreter exit).  Breaker and quarantine state
    is pool-scoped, so it resets with the pool."""
    _discard_pool()
    B.release_all_arenas()
    segments, nbytes = B.reclaim_orphaned_segments()
    if segments:
        POOL_HEALTH.reclaimed_segments += segments
        POOL_HEALTH.reclaimed_bytes += nbytes
        POOL_HEALTH.record(
            "shm_reclaim",
            detail="%d segment(s), %d bytes" % (segments, nbytes),
        )
    _BREAKER.reset()
    _KERNEL_STRIKES.clear()
    _QUARANTINE.clear()


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Worker-side chunk execution
# ---------------------------------------------------------------------------


def _run_chunk(payload, kernels, spans=None):
    """Execute one worker's tile list; runs inside a pool process.

    ``spans`` is the worker's :class:`_SpanBuffer` when the chunk
    carried a trace context, else None (the zero-cost default)."""
    token = payload["token"]
    kernel = kernels.get(token)
    if kernel is None:
        spec = payload["kernel"]
        if spec is None:
            raise PoolBrokenError(
                "worker has no kernel for token %r" % (token,)
            )
        if spans is None:
            fn, program, max_steps = spec
            kernel = B.BatchKernel(fn, program=program, max_steps=max_steps)
        else:
            install = spans.begin("worker.install")
            try:
                fn, program, max_steps = spec
                kernel = B.BatchKernel(
                    fn, program=program, max_steps=max_steps
                )
            finally:
                spans.end(install)
        kernels[token] = kernel
    return _run_shm_chunk(payload, kernel, spans)


def _view_tile_cache(arena, layout, states, start, stop):
    """A tile-local cache whose columns are views of the frame arena's
    planes, per the committed per-column ``states`` (0 = unfilled,
    1 = fully filled, 2 = masked)."""
    sub = B.SoACache(layout, stop - start)
    for k, state in enumerate(states):
        if not state:
            continue
        sub.columns[k] = arena.column("col%d" % k)[start:stop]
        sub.filled[k] = (
            True if state == 1
            else arena.column("mask%d" % k)[start:stop]
        )
    return sub


def _store_tile(frame, values_buf, costs_buf, loader,
                tile_index, start, stop, values, lane_costs, tile_cache):
    """Write one tile's results into the shared planes.

    Returns ``(tile_index, "shm", states)`` on success or
    ``(tile_index, "pipe", (values, costs, cache))`` when anything
    about the tile's shapes/dtypes does not match the arena layout —
    the values come back over the pipe and the parent splices them, so
    a surprising kernel can never corrupt the shared frame.
    """
    np = B._np
    lanes = stop - start
    if not (
        isinstance(values, np.ndarray)
        and values.shape == (lanes,) + values_buf.shape[1:]
        and values.dtype == values_buf.dtype
        and isinstance(lane_costs, np.ndarray)
        and lane_costs.dtype == costs_buf.dtype
    ):
        return (
            tile_index, "pipe",
            (values, lane_costs, tile_cache if loader else None),
        )
    states = None
    if loader:
        states = []
        for k, column in enumerate(tile_cache.columns):
            if column is None:
                states.append(0)
                continue
            plane = frame.column("col%d" % k)
            if not (
                isinstance(column, np.ndarray)
                and column.shape == (lanes,) + plane.shape[1:]
                and column.dtype == plane.dtype
            ):
                # Partial plane writes before this point are harmless:
                # the parent ignores the arena for "pipe" tiles.
                return (
                    tile_index, "pipe", (values, lane_costs, tile_cache)
                )
            plane[start:stop] = column
            filled = tile_cache.filled[k]
            mask_plane = frame.column("mask%d" % k)
            if filled is None or filled is True:
                mask_plane[start:stop] = True
                states.append(1)
            else:
                mask_plane[start:stop] = np.asarray(filled, dtype=bool)
                states.append(2)
    values_buf[start:stop] = values
    costs_buf[start:stop] = lane_costs
    return (tile_index, "shm", states)


def _run_shm_chunk(payload, kernel, spans=None):
    """The zero-copy transport: attach the frame/result/argument arenas
    and write each tile's rows in place; only tiny descriptors return."""
    layout = payload["layout"]
    loader = payload["phase"] == "loader"
    attached = []
    try:
        frame = B.ShmArena.attach(payload["frame"])
        attached.append(frame)
        result = B.ShmArena.attach(payload["result"])
        attached.append(result)
        args = []
        for kind, value in payload["args"]:
            if kind == "shm":
                arena = B.ShmArena.attach(value)
                attached.append(arena)
                args.append(arena.column("arg"))
            else:  # "val": a uniform scalar or pickled full column
                args.append(value)
        values_buf = result.column("values")
        costs_buf = result.column("costs")
        out = []
        for tile_index, start, stop in payload["jobs"]:
            lanes = stop - start
            cols = [_slice_column(c, start, stop) for c in args]
            if loader:
                tile_cache = B.SoACache(layout, lanes)
            else:
                tile_cache = _view_tile_cache(
                    frame, layout, payload["states"], start, stop
                )
            tile_span = None
            if spans is not None:
                tile_span = spans.begin(
                    "worker.tile", tile=tile_index, lanes=lanes
                )
            try:
                values, lane_costs = kernel.run_lanes(
                    cols, lanes, cache=tile_cache
                )
            finally:
                if tile_span is not None:
                    spans.end(tile_span)
            if tile_span is not None:
                tile_span[6]["cost"] = B.cost_total(lane_costs)
            out.append(_store_tile(
                frame, values_buf, costs_buf, loader,
                tile_index, start, stop, values, lane_costs, tile_cache,
            ))
        return out
    finally:
        for arena in attached:
            arena.release()


def _slice_column(column, start, stop):
    """One tile's view of an argument column: arrays and lists slice
    (NumPy slices are views — no copy); uniform scalars pass through."""
    if B.HAVE_NUMPY and isinstance(column, B._np.ndarray):
        return column[start:stop]
    if isinstance(column, list):
        return column[start:stop]
    return column


def _result_spec(fn, n):
    """``(dtype, shape)`` of the kernel's full-width result column, or
    None when the return type has no fixed array representation."""
    ty = getattr(fn, "ret_type", None)
    if ty is INT:
        return ("int64", (n,))
    if ty is FLOAT:
        return ("float64", (n,))
    if ty is VEC3:
        return ("float64", (n, 3))
    if ty is MAT3:
        return ("float64", (n, 9))
    return None


def _shm_cache_states(frame_cache):
    """Per-column transport states when ``frame_cache`` is still fully
    backed by its arena (reader eligibility), else None.

    A column diverges when something rebound it after commit — e.g.
    ``demote_column`` during a guarded repair, or a post-load store.
    Divergence is not an error; the run just runs serially in-process.
    """
    if not isinstance(frame_cache, B.ShmSoACache):
        return None
    arena = frame_cache.arena
    if arena is None or not arena.alive:
        return None
    np = B._np
    states = []
    for k in range(len(frame_cache.layout)):
        column = frame_cache.columns[k]
        if column is None:
            states.append(0)
            continue
        if column is not arena.column("col%d" % k):
            return None
        mask = frame_cache.filled[k]
        if mask is None or mask is True:
            states.append(1)
        elif isinstance(mask, np.ndarray):
            plane = arena.column("mask%d" % k)
            if mask is not plane:
                plane[:] = mask
                frame_cache.filled[k] = plane
            states.append(2)
        else:
            return None
    return states


_TOKENS = itertools.count(1)


class TileRunStats(object):
    """What one tiled frame execution did (telemetry + tests)."""

    __slots__ = ("tiles", "degraded_tiles", "workers", "pooled", "elapsed",
                 "warm_hits", "warm_misses", "lost_workers",
                 "redispatched_tiles", "inline_tiles", "respawns",
                 "quarantined", "breaker_open")

    def __init__(self, tiles, degraded_tiles, workers, pooled, elapsed,
                 warm_hits=0, warm_misses=0,
                 lost_workers=0, redispatched_tiles=0, inline_tiles=0,
                 respawns=0, quarantined=False, breaker_open=False):
        self.tiles = tiles
        #: Tiles served by the caller's ``on_overrun`` hook instead of
        #: the batch kernel (per-tile deadline degradation).
        self.degraded_tiles = degraded_tiles
        self.workers = workers
        #: Whether the process pool actually ran (False when serial).
        self.pooled = pooled
        self.elapsed = elapsed
        #: Worker chunks that reused an already-installed kernel vs
        #: chunks that had to ship the kernel spec.
        self.warm_hits = warm_hits
        self.warm_misses = warm_misses
        #: Self-healing telemetry for this run: workers lost mid-frame,
        #: tiles re-served by survivors / the in-process fallback, and
        #: workers respawned afterwards.
        self.lost_workers = lost_workers
        self.redispatched_tiles = redispatched_tiles
        self.inline_tiles = inline_tiles
        self.respawns = respawns
        #: The kernel was quarantined (poison token) to serial.
        self.quarantined = quarantined
        #: The pool breaker forced this run off the fork pool.
        self.breaker_open = breaker_open

    @property
    def transport(self):
        """Result transport this run used: ``shm`` (the zero-copy fork
        pool) or ``serial`` (in-process)."""
        return "shm" if self.pooled else "serial"


class TileExecutor(object):
    """Runs batch kernels tile-by-tile, serially or on a worker pool.

    One executor per edit session; kernels are identified by object
    identity and assigned stable tokens so pool workers memoize their
    rebuilt copies across frames.  The executor also owns the session's
    shared-memory blocks: uploaded argument columns (memoized by column
    identity — geometry uploads once per session, not per frame) and
    the reusable result arena.
    """

    def __init__(self, workers=1, tile=None, policy=None, injector=None):
        self.workers = resolve_workers(workers)
        self.tile = resolve_tile(tile)
        #: Self-healing knobs (deadlines, restart budget, quarantine).
        self.policy = policy if policy is not None else PoolPolicy()
        #: Optional :class:`~repro.runtime.faultinject.FaultInjector`
        #: whose ``proc_fault`` plants chaos directives in chunks.
        self.injector = injector
        self._chaos_seq = itertools.count()
        self.last_stats = None
        self._tokens = {}
        #: id(column) -> (ShmArena, column): uploaded argument blocks.
        #: The strong reference to the column keeps its id() stable.
        self._arg_blocks = {}
        self._result_arena = None
        self._result_key = None

    def _token_for(self, kernel):
        token = self._tokens.get(id(kernel))
        if token is None:
            token = (os.getpid(), next(_TOKENS))
            self._tokens[id(kernel)] = token
        return token

    # -- shared-memory bookkeeping -------------------------------------------

    def new_frame_cache(self, kernel, layout, n):
        """A frame cache for a tiled run of the loader ``kernel``:
        shared-memory-backed when the fork pool can write its tiles in
        place, an ordinary :class:`SoACache` otherwise."""
        if (
            self.workers > 1 and n > self.tile and _pool_available()
            and kernel.vectorized
        ):
            return B.ShmSoACache.allocate(layout, n)
        return B.SoACache(layout, n)

    def close(self):
        """Release this executor's shared blocks (sessions ending)."""
        for arena, _column in self._arg_blocks.values():
            arena.release()
        self._arg_blocks = {}
        if self._result_arena is not None:
            self._result_arena.release()
            self._result_arena = None
            self._result_key = None

    def _ship_arg(self, column):
        """A payload entry for one argument column: uploaded to shared
        memory once per (session, column object), or passed by value."""
        if B.HAVE_NUMPY and isinstance(column, B._np.ndarray):
            if column.dtype.kind not in "fiub":
                return ("val", column)  # exotic dtype: pickle it
            block = self._arg_blocks.get(id(column))
            if block is None or block[1] is not column:
                arena = B.ShmArena.create(
                    [("arg", column.dtype.str, column.shape)]
                )
                arena.column("arg")[...] = column
                block = (arena, column)
                self._arg_blocks[id(column)] = block
            return ("shm", block[0].descriptor())
        return ("val", column)

    def _ensure_result_arena(self, spec, n):
        """The reusable values+costs arena (recut when the frame size or
        result type changes)."""
        key = (n, spec)
        if (
            self._result_key != key
            or self._result_arena is None
            or not self._result_arena.alive
        ):
            if self._result_arena is not None:
                self._result_arena.release()
            dtype, shape = spec
            self._result_arena = B.ShmArena.create([
                ("values", dtype, shape),
                ("costs", "int64", (n,)),
            ])
            self._result_key = key
        return self._result_arena

    def _shm_plan(self, kernel, layout, frame_cache, n, refill=False):
        """``(result_spec, reader_states)`` when this run can use the
        zero-copy pool, or None when it must run serially (no fork or
        shared memory, no NumPy, non-vectorized kernel, non-shm or
        diverged cache, no fixed result layout).  Allocates nothing."""
        if not _pool_available():
            return None
        if not kernel.vectorized:
            return None
        spec = _result_spec(kernel.fn, n)
        if spec is None:
            return None
        if layout is not None:
            # Loader: needs a pristine shm-backed frame cache to fill.
            # A delta refill relaxes only the pristine check: the dirty
            # columns were reset (arena planes re-zeroed) and the clean
            # ones stay bound to their arena views, untouched by the
            # workers (delta kernels store only dirty slots).
            if not isinstance(frame_cache, B.ShmSoACache):
                return None
            if frame_cache.arena is None or not frame_cache.arena.alive:
                return None
            if not refill and any(
                c is not None for c in frame_cache.columns
            ):
                return None
            states = None
        else:
            if frame_cache is None:
                return None
            states = _shm_cache_states(frame_cache)
            if states is None:
                return None
        return spec, states

    def run(self, kernel, columns, n, *, frame_cache=None, layout=None,
            width=None, cap=None, on_overrun=None, obs=None,
            shader="?", partition="?", phase="?", on_pool_incident=None,
            refill=False):
        """Execute ``kernel`` over ``n`` lanes in tiles.

        * Loader mode (``layout`` given): each tile fills a tile-local
          :class:`SoACache` that is spliced into ``frame_cache`` — or,
          on the shm transport, written straight into the frame cache's
          arena and committed column-by-column.
        * Reader mode (``frame_cache`` given, no ``layout``): each tile
          reads a contiguous view of the frame cache.

        ``cap`` enforces the per-pixel step deadline per tile;
        ``on_overrun(tile_index, start, stop, worst)`` may serve a blown
        tile another way (returning ``(colors, costs)`` row lists) —
        without it the tile raises :class:`DeadlineError`.

        Returns ``(colors, lane_costs)`` in frame order, byte-identical
        to one full-width kernel call: an owned
        :class:`~repro.runtime.colors.ColorColumn` (``None`` for a
        ``refill``, whose kernel returns no colours) and the per-lane
        costs (an int64 array; a list on the pure-Python path).

        ``on_pool_incident(kind, detail)``, when given, is called for
        every self-healing event (worker loss, redispatch, respawn,
        quarantine, pool degradation) — the supervisor integration.
        """
        obs = obs if obs is not None else NULL_OBS
        if refill and cap is not None:
            # The shm commit zeroes *every* plane of a degraded tile,
            # which would corrupt the clean columns a refill preserves;
            # deadline-capped runs must take the full-load path instead.
            raise ValueError("refill runs do not support a step cap")
        started = time.perf_counter()
        plan = plan_tiles(n, self.tile, width)
        warm_hits = warm_misses = 0
        commit = None
        recovery = None
        quarantined = breaker_open = probing = False
        shm = None
        if self.workers > 1 and len(plan) > 1:
            shm = self._shm_plan(kernel, layout, frame_cache, n, refill)
        # Eligibility first: a run that could never use the pool must
        # neither advance breaker time nor close a half-open breaker.
        if shm is not None:
            if self._token_for(kernel) in _QUARANTINE:
                # Poison token: this kernel keeps killing workers, so
                # it is served in-process (byte-identical, never fatal).
                shm = None
                quarantined = True
                POOL_HEALTH.quarantine_routed += 1
            elif not _BREAKER.allow_fork(self.policy):
                shm = None
                breaker_open = True
                POOL_HEALTH.degraded_runs += 1
            else:
                probing = _BREAKER.state == "half_open"
        if shm is not None:
            transport = "shm"
            recovery = {"lost": 0, "redispatched": 0, "inline": 0,
                        "respawns": 0}
            tiles, commit, warm_hits, warm_misses = self._run_shm(
                kernel, columns, plan, layout, frame_cache, shm, n, obs,
                shader, partition, phase, on_pool_incident, recovery,
            )
            if probing and _BREAKER.state == "half_open":
                # The half-open probe's pool survived within budget.
                _BREAKER.close()
                POOL_HEALTH.record(
                    "pool_recovered", detail="half-open probe succeeded"
                )
                if on_pool_incident is not None:
                    on_pool_incident(
                        "pool_recovered", "breaker closed after probe"
                    )
        else:
            transport = "serial"
            tiles = self._run_serial(
                kernel, columns, plan, layout, frame_cache, obs,
                shader, partition, phase,
            )

        value_parts = []
        cost_parts = []
        degraded = []
        for tile_index, (start, stop) in enumerate(plan):
            values, lane_costs, tile_cache = tiles[tile_index]
            lanes = stop - start
            if cap is not None:
                worst = B.cost_max(lane_costs)
                if worst > cap:
                    if on_overrun is None:
                        raise DeadlineError(
                            "batch %s tile %d (lanes %d:%d) blew the "
                            "per-pixel step deadline (%d steps > budget %d)"
                            % (phase, tile_index, start, stop, worst, cap)
                        )
                    tile_values, tile_costs = on_overrun(
                        tile_index, start, stop, worst
                    )
                    value_parts.append((tile_values, lanes))
                    cost_parts.append([int(c) for c in tile_costs])
                    degraded.append(tile_index)
                    continue
            value_parts.append((values, lanes))
            cost_parts.append(lane_costs)
            if (
                layout is not None and frame_cache is not None
                and tile_cache is not None
            ):
                frame_cache.splice(start, stop, tile_cache)
        if commit is not None:
            commit(degraded)
        elapsed = time.perf_counter() - started
        recovery = recovery or {}
        self.last_stats = TileRunStats(
            len(plan), len(degraded), self.workers,
            transport == "shm", elapsed,
            warm_hits=warm_hits, warm_misses=warm_misses,
            lost_workers=recovery.get("lost", 0),
            redispatched_tiles=recovery.get("redispatched", 0),
            inline_tiles=recovery.get("inline", 0),
            respawns=recovery.get("respawns", 0),
            quarantined=quarantined, breaker_open=breaker_open,
        )
        if obs.enabled and plan:
            obs.registry.histogram(
                "repro_tiles_per_second",
                "Tiles executed per second for one tiled frame request.",
                ("shader", "partition", "phase"),
            ).observe(
                len(plan) / max(elapsed, 1e-9),
                shader=shader, partition=partition, phase=phase,
            )
            obs.registry.gauge(
                "repro_shm_bytes_resident",
                "Bytes of live shared-memory arenas in this process.",
            ).set(B.shm_resident_bytes())
            if transport == "shm":
                obs.registry.counter(
                    "repro_worker_warm_hits_total",
                    "Worker chunks that reused an installed kernel.",
                ).inc(warm_hits)
                obs.registry.counter(
                    "repro_worker_warm_misses_total",
                    "Worker chunks that had to ship their kernel spec.",
                ).inc(warm_misses)
            if recovery.get("lost"):
                obs.registry.counter(
                    "repro_pool_lost_workers_total",
                    "Pool workers lost mid-frame (crash/hang/garbled).",
                ).inc(recovery["lost"])
            if recovery.get("redispatched"):
                obs.registry.counter(
                    "repro_pool_redispatched_tiles_total",
                    "Tiles re-served by surviving workers after a loss.",
                ).inc(recovery["redispatched"])
            if recovery.get("inline"):
                obs.registry.counter(
                    "repro_pool_inline_tiles_total",
                    "Tiles served by the in-process fallback after a "
                    "loss left no usable survivor.",
                ).inc(recovery["inline"])
            if recovery.get("respawns"):
                obs.registry.counter(
                    "repro_pool_restarts_total",
                    "Pool workers respawned after a loss.",
                ).inc(recovery["respawns"])
                from ..obs.metrics import MS_BUCKETS

                histogram = obs.registry.histogram(
                    "repro_pool_respawn_ms",
                    "Worker respawn latency in milliseconds.",
                    buckets=MS_BUCKETS,
                )
                for ms in recovery.get("respawn_ms", ()):
                    histogram.observe(ms)
        colors = None if refill else join_colors(value_parts)
        return colors, B.join_costs(cost_parts)

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, kernel, columns, plan, layout, frame_cache, obs,
                    shader, partition, phase):
        tiles = {}
        for tile_index, (start, stop) in enumerate(plan):
            lanes = stop - start
            cols = [_slice_column(c, start, stop) for c in columns]
            if layout is not None:
                tile_cache = B.SoACache(layout, lanes)
            elif frame_cache is not None:
                tile_cache = frame_cache.tile(start, stop)
            else:
                tile_cache = None
            with obs.span(
                "render.tile", shader=shader, partition=partition,
                phase=phase, tile=tile_index, start=start, stop=stop,
                lanes=lanes, transport="serial",
            ):
                values, lane_costs = kernel.run_lanes(
                    cols, lanes, cache=tile_cache
                )
            tiles[tile_index] = (values, lane_costs, tile_cache)
        return tiles

    # -- fork-pool paths (self-healing) --------------------------------------

    def _inject_chaos(self, payload):
        """Plant a seeded process-fault directive in an outgoing chunk
        (chaos testing only; no-op without an injector)."""
        injector = self.injector
        if injector is None:
            return
        fault = injector.proc_fault(next(self._chaos_seq))
        if fault is not None:
            payload["chaos"] = fault

    def _recv_reply(self, pool, worker, deadline_s, poll_s):
        """One validated ``(status, value, spans)`` reply; an
        unparseable one means the pipe can no longer be trusted and
        types the loss ``"garbled"``."""
        reply = pool.recv(worker, deadline_s, poll_s)
        if (
            not isinstance(reply, tuple) or len(reply) != 3
            or reply[0] not in ("ok", "err")
        ):
            raise WorkerLostError(
                worker, "garbled", "unparseable reply %.60r" % (reply,)
            )
        return reply

    def _note_loss(self, pool, worker, exc, token, kernel, hook):
        """Bookkeeping for one lost worker: make sure the process is
        really dead (hung/garbled workers get SIGKILL), record the
        typed incident, and charge the kernel's quarantine strike."""
        pool.ensure_dead(worker)
        POOL_HEALTH.lost_workers[exc.kind] = (
            POOL_HEALTH.lost_workers.get(exc.kind, 0) + 1
        )
        POOL_HEALTH.record(
            "worker_" + exc.kind, worker=worker, detail=str(exc)
        )
        if hook is not None:
            hook("worker_" + exc.kind, str(exc))
        strikes = _KERNEL_STRIKES.get(token, 0) + 1
        _KERNEL_STRIKES[token] = strikes
        if (
            strikes >= self.policy.quarantine_threshold
            and token not in _QUARANTINE
        ):
            name = getattr(kernel.fn, "name", None) or repr(kernel.fn)
            _QUARANTINE[token] = name
            POOL_HEALTH.record(
                "quarantine", worker=worker,
                detail="kernel %s after %d worker losses" % (name, strikes),
            )
            if hook is not None:
                hook("quarantine", "kernel %s -> serial transport" % name)

    @staticmethod
    def _most_actionable(failures):
        """The exception to raise from a multi-failure gather: prefer a
        structured kernel error over a broken-worker error (the old
        ``_gather`` masked the former behind the latter), with every
        other collected failure attached as ``related_failures``."""
        primary = None
        for exc in failures:
            if not isinstance(exc, PoolBrokenError):
                primary = exc
                break
        if primary is None:
            primary = failures[0]
        others = tuple(exc for exc in failures if exc is not primary)
        if others:
            try:
                primary.related_failures = others
            except AttributeError:  # pragma: no cover - slotted exc
                pass
        return primary

    def _run_pooled(self, kernel, jobs_by_worker, build_payload,
                    inline_job, obs, span_kwargs, hook, recovery):
        """Dispatch chunks, gather with deadlines, and heal losses.

        The drain covers *every* dispatched worker before any recovery
        or raise, so surviving pipes stay request/reply-aligned.  Lost
        workers' chunks are re-dispatched to surviving workers, then to
        ``inline_job`` in-process; structured ``("err", exc)`` failures
        are deterministic and simply collected (all of them) and raised
        via :meth:`_most_actionable`.  Lost workers are respawned after
        the frame's tiles are recovered — off the tile critical path —
        under the policy's restart budget.
        """
        policy = self.policy
        pool = _get_pool(self.workers)
        pool.runs += 1
        token = self._token_for(kernel)
        deadline_s = (
            None if policy.deadline_ms is None
            else policy.deadline_ms / 1000.0
        )
        poll_s = max(policy.poll_interval_ms, 1.0) / 1000.0
        raw = []
        failures = []
        lost = {}
        pending = []
        payloads = {}
        warm_hits = warm_misses = 0
        # Ship a trace context only when someone is tracing on the real
        # monotonic clock (fork children share it, so worker-recorded
        # times land directly on the parent tracer's timeline).  The
        # disabled path ships nothing and workers allocate nothing.
        trace_ctx = None
        if obs.enabled and getattr(obs.tracer, "shared_clock", False):
            trace_ctx = {
                "epoch": obs.tracer.epoch,
                "attrs": dict(span_kwargs),
            }
        for worker in sorted(jobs_by_worker):
            payload = build_payload(jobs_by_worker[worker])
            if trace_ctx is not None:
                payload["trace"] = trace_ctx
            self._inject_chaos(payload)
            payloads[worker] = payload
            try:
                warm = self._dispatch(pool, worker, token, kernel, payload)
            except WorkerLostError as exc:
                lost[worker] = exc
                self._note_loss(pool, worker, exc, token, kernel, hook)
                continue
            if warm:
                warm_hits += 1
            else:
                warm_misses += 1
            pending.append(worker)
        for worker in pending:
            chunk_span = obs.span(
                "render.tile", worker=worker,
                tiles=len(jobs_by_worker[worker]), **span_kwargs
            )
            try:
                with chunk_span:
                    status, value, worker_spans = self._recv_reply(
                        pool, worker, deadline_s, poll_s
                    )
            except WorkerLostError as exc:
                lost[worker] = exc
                self._note_loss(pool, worker, exc, token, kernel, hook)
                continue
            if worker_spans is not None:
                obs.tracer.ingest(worker_spans, parent=chunk_span)
            if status == "err":
                POOL_HEALTH.record("worker_error", detail=str(value))
                failures.append(value)
                continue
            raw.extend(value)
        if failures:
            # A structured kernel error is deterministic — redispatch
            # would fail identically — but lost workers still get
            # healed so the next frame sees a sane pool.
            recovery["lost"] += len(lost)
            failures.extend(lost.values())
            self._heal(pool, lost, hook, recovery)
            raise self._most_actionable(failures)
        if lost:
            raw.extend(self._redispatch_lost(
                pool, kernel, token, jobs_by_worker, payloads, lost,
                inline_job, deadline_s, poll_s, hook, recovery,
                obs, span_kwargs,
            ))
            recovery["lost"] += len(lost)
            self._heal(pool, lost, hook, recovery)
        return raw, warm_hits, warm_misses

    def _redispatch_lost(self, pool, kernel, token, jobs_by_worker,
                         payloads, lost, inline_job, deadline_s, poll_s,
                         hook, recovery, obs, span_kwargs):
        """Re-serve every lost worker's chunk: surviving warm workers
        first, the in-process fallback last, so the frame completes
        byte-identically no matter how many workers died."""
        raw = []
        survivors = [
            worker for worker in range(pool.workers)
            if worker not in lost and pool.alive(worker)
        ]
        cursor = 0
        for worker in sorted(list(lost)):
            jobs = jobs_by_worker[worker]
            payload = payloads[worker]
            payload.pop("chaos", None)  # never re-inject on recovery
            served = False
            while survivors and not served:
                target = survivors[cursor % len(survivors)]
                cursor += 1
                try:
                    self._dispatch(pool, target, token, kernel, payload)
                    chunk_span = obs.span(
                        "render.tile", worker=target, tiles=len(jobs),
                        redispatch=True, **span_kwargs
                    )
                    with chunk_span:
                        status, value, worker_spans = self._recv_reply(
                            pool, target, deadline_s, poll_s
                        )
                except WorkerLostError as exc:
                    lost[target] = exc
                    self._note_loss(pool, target, exc, token, kernel, hook)
                    survivors.remove(target)
                    continue
                if worker_spans is not None:
                    obs.tracer.ingest(worker_spans, parent=chunk_span)
                if status == "err":
                    POOL_HEALTH.record("worker_error", detail=str(value))
                    raise self._most_actionable([value])
                raw.extend(value)
                served = True
                recovery["redispatched"] += len(jobs)
                POOL_HEALTH.redispatched_tiles += len(jobs)
                POOL_HEALTH.record(
                    "redispatch", worker=worker,
                    detail="%d tile(s) -> worker %d" % (len(jobs), target),
                )
                if hook is not None:
                    hook(
                        "redispatch",
                        "%d tile(s) from worker %d -> worker %d"
                        % (len(jobs), worker, target),
                    )
            if not served:
                for job in jobs:
                    # Inline-fallback tiles trace too: the merged frame
                    # view must account for every tile, including ones
                    # the parent served itself after total pool loss.
                    with obs.span(
                        "render.tile", tile=job[0], tiles=1,
                        inline=True, **span_kwargs
                    ):
                        raw.append(inline_job(job))
                recovery["inline"] += len(jobs)
                POOL_HEALTH.inline_tiles += len(jobs)
                POOL_HEALTH.record(
                    "inline_fallback", worker=worker,
                    detail="%d tile(s) served in-process" % len(jobs),
                )
                if hook is not None:
                    hook(
                        "inline_fallback",
                        "%d tile(s) from worker %d served in-process"
                        % (len(jobs), worker),
                    )
        return raw

    def _heal(self, pool, lost, hook, recovery):
        """Respawn lost workers under the restart budget; exhausting it
        degrades the pool (discard + breaker trip) instead of thrashing
        forever on a host that keeps killing children."""
        if not lost or pool is not _POOL:
            return
        policy = self.policy
        for worker in sorted(lost):
            if not pool.respawn_budget_ok(policy):
                detail = (
                    "restart budget exhausted (>%d respawn(s) in %d runs)"
                    % (policy.max_restarts, policy.restart_window)
                )
                POOL_HEALTH.record("pool_degraded", detail=detail)
                if hook is not None:
                    hook("pool_degraded", detail)
                _BREAKER.trip(policy)
                _discard_pool()
                return
            self._respawn_backoff(pool, worker)
            ms = pool.respawn(worker)
            pool.note_restart()
            POOL_HEALTH.note_respawn(ms)
            recovery["respawns"] += 1
            recovery.setdefault("respawn_ms", []).append(ms)
            POOL_HEALTH.record(
                "respawn", worker=worker, detail="%.1f ms" % ms
            )
            if hook is not None:
                hook(
                    "respawn",
                    "worker %d respawned in %.1f ms" % (worker, ms),
                )

    def _respawn_backoff(self, pool, worker):
        """Seeded exponential backoff before a respawn (deterministic
        per (seed, worker, run); disabled at the 0 ms default)."""
        policy = self.policy
        if policy.backoff_base_ms <= 0:
            return
        recent = len(pool._restart_log)
        rng = random.Random(
            "%r|respawn|%d|%d" % (policy.seed, worker, pool.runs)
        )
        delay_ms = min(
            policy.backoff_base_ms * (2 ** recent), policy.backoff_cap_ms
        ) * (0.5 + rng.random())
        time.sleep(delay_ms / 1000.0)

    def _dispatch(self, pool, worker, token, kernel, payload):
        """Send one chunk, shipping the kernel spec only on the
        worker's first use of it.  Returns True for a warm hit."""
        warm = pool.installed(worker, token)
        payload["token"] = token
        payload["kernel"] = (
            None if warm
            else (kernel.fn, kernel.program, kernel.max_steps)
        )
        pool.send(worker, payload)
        if not warm:
            pool.mark_installed(worker, token)
        return warm

    def _run_shm(self, kernel, columns, plan, layout, frame_cache, shm, n,
                 obs, shader, partition, phase, hook, recovery):
        """Zero-copy dispatch: workers attach the frame/result arenas
        and write their tiles' rows in place; the pipe carries only
        job spans out and per-tile state descriptors back."""
        loader = layout is not None
        spec, reader_states = shm
        frame = frame_cache.arena
        result = self._ensure_result_arena(spec, n)
        args = [self._ship_arg(column) for column in columns]
        frame_desc = frame.descriptor()
        result_desc = result.descriptor()
        values_buf = result.column("values")
        costs_buf = result.column("costs")
        jobs_by_worker = {}
        for worker in range(self.workers):
            jobs = [
                (tile_index,) + plan[tile_index]
                for tile_index in range(worker, len(plan), self.workers)
            ]
            if jobs:
                jobs_by_worker[worker] = jobs

        def build_payload(jobs):
            return {
                "phase": "loader" if loader else "reader",
                "layout": layout if loader else frame_cache.layout,
                "frame": frame_desc,
                "result": result_desc,
                "args": args,
                "states": reader_states,
                "jobs": jobs,
            }

        def inline_job(job):
            # In-process fallback for a lost worker's shm tile: compute
            # from the parent's own columns/cache and store it through
            # the worker's checked path, overwriting every row a dead
            # worker may have half-written (lost workers are dead by
            # now), so the frame cache stays backed by its arena.
            tile_index, start, stop = job
            lanes = stop - start
            cols = [_slice_column(c, start, stop) for c in columns]
            if loader:
                tile_cache = B.SoACache(layout, lanes)
            else:
                tile_cache = frame_cache.tile(start, stop)
            values, lane_costs = kernel.run_lanes(
                cols, lanes, cache=tile_cache
            )
            return _store_tile(
                frame, values_buf, costs_buf, loader,
                tile_index, start, stop, values, lane_costs, tile_cache,
            )

        raw, warm_hits, warm_misses = self._run_pooled(
            kernel, jobs_by_worker, build_payload, inline_job, obs,
            dict(shader=shader, partition=partition, phase=phase,
                 transport="shm"),
            hook, recovery,
        )
        tiles = {}
        loader_states = {}
        for tile_index, kind, extra in raw:
            start, stop = plan[tile_index]
            if kind == "pipe":
                tiles[tile_index] = extra
            else:
                tiles[tile_index] = (
                    values_buf[start:stop], costs_buf[start:stop], None,
                )
                if loader:
                    loader_states[tile_index] = extra
        commit = None
        if loader:
            mixed = any(entry[2] is not None for entry in tiles.values())
            if mixed:
                # Rare per-tile pipe fallback inside an shm run: give
                # the shm tiles view-based caches so the normal splice
                # path stitches the whole frame uniformly (the arena is
                # then just scratch space).
                for tile_index, states in loader_states.items():
                    start, stop = plan[tile_index]
                    values, lane_costs, _ = tiles[tile_index]
                    tiles[tile_index] = (
                        values, lane_costs,
                        _view_tile_cache(frame, layout, states, start, stop),
                    )
            else:
                commit = self._make_commit(
                    frame, frame_cache, layout, plan, loader_states
                )
        return tiles, commit, warm_hits, warm_misses

    def _make_commit(self, arena, frame_cache, layout, plan, loader_states):
        """The loader-side commit: point the frame cache's columns at
        the arena planes the workers filled.  Runs after the deadline
        loop so degraded tiles can be zeroed out first — producing
        exactly the frame the splice path would have built (splice
        skips degraded tiles, leaving zeros and False masks)."""
        def commit(degraded):
            for tile_index in degraded:
                start, stop = plan[tile_index]
                for k in range(len(layout)):
                    arena.column("col%d" % k)[start:stop] = 0
                    arena.column("mask%d" % k)[start:stop] = False
            dropped = set(degraded)
            stored = [False] * len(layout)
            for tile_index, states in loader_states.items():
                if tile_index in dropped:
                    continue
                for k, state in enumerate(states):
                    if state:
                        stored[k] = True
            for k, any_store in enumerate(stored):
                if not any_store:
                    continue
                mask = arena.column("mask%d" % k)
                frame_cache.columns[k] = arena.column("col%d" % k)
                frame_cache.filled[k] = True if mask.all() else mask
        return commit
