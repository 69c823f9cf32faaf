"""Interactive-renderer substrate (the paper's Section 5 setting).

The paper's renderer specializes a shader on every input except the one
control parameter the user is currently dragging, builds one cache per
pixel (up to ~10^6 simultaneously live caches), and re-runs only the
reader as the slider moves.  ``RenderSession`` reproduces that loop:

* ``render_reference``  — run the plain shader over the image,
* ``begin_edit(param)`` — specialize on the partition where ``param``
  varies,
* ``frame(controls)``   — run the loader once per pixel to build the
  cache array when no cache exists or an invariant control changed,
  and otherwise run the reader per pixel with the new values.

All runs are metered, so a session reports exactly the per-pixel
costs the paper's figures are built from.
"""

from __future__ import annotations

import functools
import struct
import time
import weakref

from ..core.specializer import DataSpecializer
from ..lang.errors import (
    DeadlineError, SpecializationError, StaleCacheError, SupervisionError,
)
from ..obs import resolve_obs
from ..obs.schema import canonical_rung
from ..runtime import batch as B
from ..runtime import parallel as P
from ..runtime import values as V
from ..runtime.colors import ColorColumn, color_column
from ..runtime.guard import FaultLog
from ..runtime.plan import ExecutionPlan
from ..runtime.supervise import RenderSupervisor, Rung
from .install import PROGRAMS
from .scenes import scene_for
from .sources import SHADERS, shader_program_source


#: Incremental loads fall back to a full load once the dirty set covers
#: more than this fraction of the cache slots: refilling nearly all of
#: the cache costs about as much as a full load, but adds the reader
#: pass on top.
MAX_DIRTY_FRACTION = 0.8

_float_bits = struct.Struct("<d").pack


class Image(object):
    """A rendered frame: colors in row-major order plus the cost to
    produce them.

    ``colors`` is always a read-only
    :class:`~repro.runtime.colors.ColorColumn`; a list of ``(r, g, b)``
    rows passed in is copied into one."""

    def __init__(self, width, height, colors, total_cost):
        self.width = width
        self.height = height
        if not isinstance(colors, ColorColumn):
            colors = ColorColumn.from_rows(colors)
        self.colors = colors
        self.total_cost = total_cost

    @property
    def cost_per_pixel(self):
        return self.total_cost / float(len(self.colors))

    def to_ppm(self):
        """Encode as a plain-text PPM (examples write these to disk)."""
        clamp = V.vclamp01
        body = "\n".join(
            "%d %d %d" % (round(255 * r), round(255 * g), round(255 * b))
            for r, g, b in map(clamp, self.colors)
        )
        return "P3\n%d %d\n255\n%s\n" % (self.width, self.height, body)


class EditSession(object):
    """One parameter-drag session: a specialization plus per-pixel caches.

    With a dispatch table (Section 7.2), the loader additionally records
    each pixel's dispatch code and ``adjust`` runs the per-pixel
    *selected* reader variant — different pixels may take different
    variants (e.g. the two tiles of a checkerboard).

    Frames are served by :attr:`runner`, built once from the drag's
    plan.  Unsupervised, a frame is that runner alone; supervised, the
    same runner heads the degradation ladder ``[runner, scalar runner
    (batch drags only), original, lkg]``."""

    def __init__(self, render_session, specialization, param, plan,
                 table=None, supervisor=None, incremental=None):
        self.render_session = render_session
        self.specialization = specialization
        self.param = param
        self.table = table
        #: This drag's :class:`~repro.runtime.plan.ExecutionPlan`
        #: (backend, guard, tiling, injector split), derived once by
        #: :meth:`RenderSession.begin_edit`.
        self.plan = plan
        self.backend = plan.backend
        render_session._edits.add(self)
        #: Telemetry bundle inherited from the session: frame spans,
        #: cost histograms, cache/guard metrics.
        self.obs = render_session.obs
        self._slot_profile = None
        #: Supervision: requests route through a
        #: :class:`~repro.runtime.supervise.RenderSupervisor`'s
        #: degradation ladder and circuit breakers.  Defaults to the
        #: session's supervisor; pass ``False`` to opt this drag out.
        if supervisor is None:
            supervisor = render_session.supervisor
        self.supervisor = supervisor or None
        #: Guarded execution: faults are contained to the pixel/lane
        #: that raised them (fallback to ``run_original``) and recorded
        #: in :attr:`fault_log`.  A supervised guard inherits the
        #: supervisor's step deadline, so budget blowouts are contained
        #: per pixel and attributed as deadline misses.
        self.guard = None
        if plan.guard:
            self.guard = specialization.guarded(
                table=table, injector=plan.guard_injector,
                log=(
                    FaultLog(on_record=self._guard_fault_hook())
                    if self.obs.enabled else None
                ),
                max_steps=(
                    self.supervisor.policy.deadline_steps
                    if self.supervisor is not None else None
                ),
            )
        #: The :class:`BatchRunner` or :class:`ScalarRunner` serving
        #: this drag; its guard / dispatch / tiled / plain step is
        #: picked here, once.  A supervised batch drag degrades to a
        #: scalar runner before leaving specialized code.
        self.runner = (
            BatchRunner(self) if plan.backend == "batch"
            else ScalarRunner(self)
        )
        self._runners = (self.runner,)
        if self.runner.name == "batch":
            self._runners += (ScalarRunner(self),)
        executor = self.runner.executor
        if self.supervisor is not None and executor is not None \
                and executor.pool is not None:
            self.supervisor.pool = executor.pool
        #: Scalar backend: one slot list per pixel.  Batch backend: one
        #: shared :class:`~repro.runtime.batch.SoACache` for the frame.
        self.caches = None
        self.load_cost = None
        #: Incremental edits: when enabled, :meth:`load` first tries a
        #: delta loader that refills only the cache slots dirtied by the
        #: changed invariant parameters, falling back to a full load
        #: when the dirty set is too large, no prior load exists, or
        #: the delta path faults.  Defaults to the session's knob.
        self.incremental = bool(
            incremental if incremental is not None
            else render_session.incremental
        )
        # Dispatch tables select variants per pixel, so their caches
        # carry no parameter->slot map to slice on; fault injection
        # perturbs the guard's fallback pattern, so a delta refill would
        # not be comparable to a full load.
        self._sliceable = table is None and (
            self.guard is None or self.guard.injector is None
        )
        #: How the most recent frame was served: ``"full"`` load,
        #: ``"delta"`` (sliced refill), ``"noop"`` (no cache slot
        #: dirtied; reader re-run on the existing cache), or
        #: ``"adjust"`` (reader only).
        self.last_path = None
        #: Ladder rung that served the most recent supervised request
        #: (None when unsupervised).
        self.last_rung = None
        self._load_controls = None
        self._invariants = tuple(
            name for name in render_session.spec_info.control_params
            if name not in specialization.varying
        )

    def close(self):
        """Release this drag's shared memory — the tiled executor's
        arenas and the frame cache's — without touching the worker pool
        the session's other drags share.  Safe to call repeatedly; a
        service hosting many sessions calls this when a session ends."""
        if self.runner.executor is not None:
            self.runner.executor.close()
        if isinstance(self.caches, B.ShmSoACache):
            self.caches.arena.release()

    @property
    def fault_log(self):
        """The guard's :class:`~repro.runtime.guard.FaultLog`, or None
        when running unguarded."""
        return self.guard.log if self.guard is not None else None

    @property
    def cache_bytes_per_pixel(self):
        if self.table is not None:
            return self.table.layout.size_bytes
        return self.specialization.cache_size_bytes

    def frame(self, controls):
        """Serve one frame: :meth:`load` when no cache exists or an
        invariant control changed since the last load, else
        :meth:`adjust`.  :attr:`last_path` says which path ran."""
        if not self._loaded() or self._changed_invariants(controls):
            return self.load(controls)
        return self.adjust(controls)

    def load(self, controls):
        """Run the loader for every pixel; returns the resulting Image."""
        if not self.obs.enabled:
            return self._load(controls)
        with self.obs.span(
            "render.load", shader=self.render_session.spec_info.name,
            partition=self.param, backend=self.backend,
            pixels=len(self.render_session.scene), tiled=self.plan.tiled,
            workers=self.plan.workers, transport=self.plan.transport,
        ) as span:
            image = self._load(controls)
            span.set(
                cost=image.total_cost, rung=self._rung_label(),
                path=self.last_path,
            )
        with self.obs.span("obs.record", phase="load"):
            self._record_frame("load", image)
        return image

    def adjust(self, controls):
        """Run the reader for every pixel with updated controls.

        Raises :class:`~repro.lang.errors.SpecializationError` before
        the first load and :class:`~repro.lang.errors.StaleCacheError`
        when an invariant control differs from the loaded ones."""
        if not self._loaded():
            raise SpecializationError("adjust() before load()")
        changed = self._changed_invariants(controls)
        if changed:
            raise StaleCacheError(
                "adjust() with invariant controls changed since load(): %s"
                % ", ".join(sorted(changed))
            )
        self.last_path = "adjust"
        if not self.obs.enabled:
            return self._serve("adjust", controls)
        with self.obs.span(
            "render.adjust", shader=self.render_session.spec_info.name,
            partition=self.param, backend=self.backend,
            pixels=len(self.render_session.scene), tiled=self.plan.tiled,
            workers=self.plan.workers, transport=self.plan.transport,
        ) as span:
            image = self._serve("adjust", controls)
            span.set(cost=image.total_cost, rung=self._rung_label())
        with self.obs.span("obs.record", phase="adjust"):
            self._record_frame("adjust", image)
        return image

    def _load(self, controls):
        if self.incremental:
            image = self._incremental_load(controls)
            if image is not None:
                return image
        self.last_path = "full"
        return self._serve("load", controls)

    # -- the ladder ----------------------------------------------------------

    def _serve(self, phase, controls):
        """Serve one whole-frame load or adjust.  Unsupervised, that is
        the primary runner's rung alone: no catch, no deadline, no
        breaker.  Supervised, the same rung heads the ladder."""
        rung = self._load_with if phase == "load" else self._adjust_with
        if self.supervisor is None:
            colors, total = rung(self.runner, controls, None)
            return self._image(colors, total)
        # A scalar-built cache array cannot feed the batch runner, so it
        # only appears on an adjust ladder when the caches are (or can
        # be rebuilt as) its own kind.
        rungs = [
            Rung(runner.name, functools.partial(rung, runner, controls))
            for runner in self._runners
            if phase == "load" or runner.takes(self.caches)
        ]
        rungs.append(Rung(
            "original", functools.partial(self._original, phase, controls)
        ))
        rungs.append(Rung(
            "lkg", functools.partial(self._last_known_good, phase, controls)
        ))
        colors, total, self.last_rung = self.supervisor.run_request(
            self._key(), phase, rungs, len(self.render_session.scene),
            fault_log=self.fault_log,
        )
        self._drop_caches_if_tripped()
        return self._image(colors, total)

    def _load_with(self, runner, controls, cap):
        colors, caches, total = runner.load(controls, cap)
        self._commit(caches, total, controls)
        return colors, total

    def _adjust_with(self, runner, controls, cap):
        if self.caches is None:
            # A load served while the breaker was open (or degraded to
            # the original) left no caches: rebuild them from the load
            # controls, so the half-open probe genuinely tests the
            # specialized path end to end.
            caches = runner.load(self._load_controls, cap)[1]
            self._commit(caches, self.load_cost, self._load_controls)
        return runner.adjust(controls, self.caches, cap)

    def _original(self, phase, controls, cap):
        """The unspecialized shader over the whole frame — the ladder's
        safety valve, deliberately uncapped (``options.max_steps`` still
        bounds it)."""
        image = self.render_session._render_reference(
            controls, self.specialization
        )
        if phase == "load":
            self._commit(None, image.total_cost, controls)
        return image.colors, image.total_cost

    def _last_known_good(self, phase, controls, cap):
        colors = self.supervisor.last_known_good(self._key(), phase)
        if colors is None:
            raise SupervisionError("no last-known-good %s frame" % phase)
        if phase == "load":
            self._commit(None, 0, controls)
        return colors, 0

    def _commit(self, caches, load_cost, controls):
        """The one place a served load (full, delta or degraded) or a
        rebuilt cache lands on the drag."""
        self.caches = caches
        self.load_cost = load_cost
        self._load_controls = dict(controls)

    def _drop_caches_if_tripped(self):
        """An open breaker invalidates this drag's caches: whatever
        poisoned the window may live in them, so the half-open probe
        must rebuild from scratch rather than re-test known-suspect
        state."""
        breaker = self.supervisor.breakers.get(self._key())
        if breaker is not None and breaker.state != "closed":
            self.caches = None

    def _key(self):
        return (self.render_session.spec_info.name, self.param)

    def _image(self, colors, total):
        scene = self.render_session.scene
        return Image(scene.width, scene.height, colors, total)

    def _loaded(self):
        """Whether a load has committed controls the reader can run
        under.  A supervised drag may hold no caches (a degraded load
        left none); its first specialized rung rebuilds them from the
        load controls."""
        if self._load_controls is None:
            return False
        return self.caches is not None or self.supervisor is not None

    def _changed_invariants(self, controls):
        """The invariant controls whose float64 bit patterns differ from
        the last load's (so NaN matches NaN and 0.0 differs from -0.0)."""
        previous = self._load_controls
        return {
            name for name in self._invariants
            if _float_bits(controls[name]) != _float_bits(previous[name])
        }

    # -- incremental loads ---------------------------------------------------

    def _incremental_load(self, controls):
        """Serve :meth:`load` via a parameter-sliced delta refill.

        Applies when a previous load exists and the changed invariant
        parameters dirty at most :data:`MAX_DIRTY_FRACTION` of the cache
        slots; returns None whenever the delta path does not apply (or
        faults), in which case the caller runs a full load."""
        spec = self.specialization
        if not self._sliceable or self._load_controls is None:
            return None
        if self.caches is None or not self.runner.takes(self.caches):
            return None
        if self.supervisor is not None:
            breaker = self.supervisor.breakers.get(self._key())
            if breaker is not None and breaker.state != "closed":
                # Suspect caches: the half-open probe must rebuild from
                # scratch via the fully supervised full-load ladder.
                return None
        dirty = spec.dirty_slots(self._changed_invariants(controls))
        total_slots = len(spec.layout)
        fraction = (len(dirty) / float(total_slots)) if total_slots else 0.0
        if fraction > MAX_DIRTY_FRACTION:
            self._note_incremental("full_fallback", dirty, reason="dirty_set")
            return None
        try:
            image = self._delta_frame(controls, dirty)
        except Exception:
            # Any fault on the delta path — guard trip, deadline,
            # corrupted cache, pool loss — invalidates the caches and
            # falls back to a full load.
            self.caches = None
            self._note_incremental("full_fallback", dirty, reason="fault")
            return None
        self._note_incremental("noop" if not dirty else "delta", dirty)
        return image

    def _delta_frame(self, controls, dirty):
        """Refill the dirty slots in place, then serve the frame through
        the reader; commits the updated load state on success.

        The delta path bypasses the degradation ladder: it only runs
        when the breaker is closed, and any fault falls back to a fully
        supervised full load."""
        start = time.perf_counter()
        runner, caches = self.runner, self.caches
        delta_cost = runner.refill(controls, caches, dirty) if dirty else 0
        colors, reader_cost = runner.adjust(controls, caches, None)
        self._commit(caches, delta_cost + reader_cost, controls)
        if self.supervisor is not None:
            self.last_rung = runner.name
        self.last_path = "delta" if dirty else "noop"
        if self.obs.enabled:
            elapsed = time.perf_counter() - start
            if elapsed > 0.0:
                self.obs.registry.histogram(
                    "repro_incremental_pixels_per_second",
                    "Incremental-edit throughput (pixels / wall second, "
                    "delta refill plus reader pass).",
                    ("shader", "partition"),
                ).labels(
                    shader=self.render_session.spec_info.name,
                    partition=self.param,
                ).observe(len(colors) / elapsed)
        return self._image(colors, self.load_cost)

    def _note_incremental(self, outcome, dirty, reason=None):
        """Incremental-edit telemetry: outcome counts, slots refilled,
        and the dirty fraction behind the routing decision."""
        if not self.obs.enabled:
            return
        registry = self.obs.registry
        shader = self.render_session.spec_info.name
        registry.counter(
            "repro_incremental_loads_total",
            "Incremental-edit load requests by outcome (delta refill, "
            "reader-only noop, or fallback to a full load).",
            ("shader", "partition", "outcome"),
        ).inc(shader=shader, partition=self.param, outcome=outcome)
        if outcome == "delta":
            registry.counter(
                "repro_incremental_slots_refilled_total",
                "Cache slots recomputed by delta loaders (slots x lanes).",
                ("shader", "partition"),
            ).inc(
                len(dirty) * len(self.render_session.scene),
                shader=shader, partition=self.param,
            )
        total_slots = len(self.specialization.layout)
        registry.gauge(
            "repro_incremental_dirty_fraction",
            "Fraction of cache slots dirtied by the most recent "
            "incremental edit.",
            ("shader", "partition"),
        ).set(
            (len(dirty) / float(total_slots)) if total_slots else 0.0,
            shader=shader, partition=self.param,
        )

    # -- telemetry -----------------------------------------------------------

    def _rung_label(self):
        """The canonical rung that served the last request: the
        supervisor's choice when supervised, else the backend itself."""
        if self.supervisor is not None and self.last_rung is not None:
            return canonical_rung(self.last_rung)
        return canonical_rung(self.backend)

    def _guard_fault_hook(self):
        """FaultLog → registry bridge: every contained fault increments
        ``repro_guard_faults_total``."""
        counter = self.obs.registry.counter(
            "repro_guard_faults_total",
            "Faults contained by guarded execution (per-pixel "
            "run_original fallbacks).",
            ("shader", "partition", "phase"),
        )
        shader = self.render_session.spec_info.name
        param = self.param

        def hook(incident):
            counter.inc(shader=shader, partition=param, phase=incident.phase)

        return hook

    def _frame_cost(self, lane_costs, cap, phase):
        """Exact frame total of one run's per-pixel costs.

        A whole-frame kernel cannot abort mid-frame the way the scalar
        interpreter does, so under a step ``cap`` the worst lane is
        checked post hoc and the frame is discarded (never committed)
        when any lane blew it."""
        if cap is not None:
            worst = B.cost_max(lane_costs)
            if worst > cap:
                raise DeadlineError(
                    "batch %s blew the per-pixel step deadline "
                    "(%d steps > budget %d)"
                    % ("loader" if phase == "load" else "reader", worst, cap)
                )
        if self.obs.enabled:
            self.obs.registry.histogram(
                "repro_pixel_cost_steps",
                "Per-pixel abstract CostMeter steps for loader/reader runs.",
                ("shader", "partition", "phase"),
            ).labels(
                shader=self.render_session.spec_info.name,
                partition=self.param, phase=phase,
            ).observe_many(lane_costs)
        return B.cost_total(lane_costs)

    def _record_frame(self, phase, image):
        """Per-request metrics once a frame was served."""
        from ..obs.cachestats import (
            cache_occupancy, record_cache_metrics, record_delta_metrics,
            slot_profile,
        )

        registry = self.obs.registry
        shader = self.render_session.spec_info.name
        labels = dict(shader=shader, partition=self.param, phase=phase)
        registry.counter(
            "repro_frames_total",
            "Whole-frame loader/reader requests served.",
            ("shader", "partition", "phase", "rung"),
        ).inc(rung=self._rung_label(), **labels)
        registry.counter(
            "repro_pixels_total",
            "Pixels served across all frames.",
            ("shader", "partition", "phase"),
        ).inc(len(image.colors), **labels)
        registry.counter(
            "repro_cost_steps_total",
            "Total abstract CostMeter steps spent serving frames.",
            ("shader", "partition", "phase"),
        ).inc(image.total_cost, **labels)
        if self._slot_profile is None:
            self._slot_profile = slot_profile(
                self.specialization, table=self.table
            )
            if self.table is None:
                # Static dirty-slot map (parameter -> slots a delta
                # refill touches); gauges, so once per drag suffices.
                record_delta_metrics(
                    registry, self.specialization, shader, self.param
                )
        if phase == "load":
            if self.caches is None:
                # A degraded load (original / last-known-good rung)
                # left no caches to profile.
                return
            lanes, filled = cache_occupancy(self.caches)
            record_cache_metrics(
                registry, self._slot_profile, shader, self.param,
                lanes=lanes, filled=filled,
            )
            registry.counter(
                "repro_cache_fills_total",
                "Cache slot fills performed by loader runs (lanes x "
                "slots actually filled).",
                ("shader", "partition"),
            ).inc(
                sum(filled.values()), shader=shader, partition=self.param
            )
        elif self._rung_label() in ("batch", "scalar"):
            # Only specialized rungs consume the cache; a frame served
            # by the original shader or the LKG store hits nothing.
            reads = sum(s.reads for s in self._slot_profile)
            registry.counter(
                "repro_cache_hits_total",
                "Cache slot reads performed by reader runs (read sites "
                "x lanes served).",
                ("shader", "partition"),
            ).inc(
                reads * len(image.colors),
                shader=shader, partition=self.param,
            )


# -- runners -----------------------------------------------------------------
#
# A runner serves one drag's frames on one backend.  It has a ``name``
# (the ladder rung it is), an ``executor`` (the tiled executor, or None)
# and three calls, none of which commits drag state:
#
# * ``load(controls, cap) -> (colors, caches, total)``
# * ``adjust(controls, caches, cap) -> (colors, total)``
# * ``refill(controls, caches, dirty) -> cost`` (delta loaders, in place)
#
# ``cap`` is the supervisor's per-pixel step deadline (None when
# unsupervised); a run that blows it raises instead of returning.  A
# runner holds its drag through a weak proxy: with no cycle between
# them, dropping a drag frees its caches at once instead of at the
# next cycle collection.


class ScalarRunner(object):
    """Per-pixel interpreter sweeps.  The per-pixel loader and reader
    steps (guarded, dispatch table or plain) are picked once, here."""

    name = "scalar"
    executor = None

    def __init__(self, edit):
        self.edit = weakref.proxy(edit)
        spec, table, guard = edit.specialization, edit.table, edit.guard
        if guard is not None:
            # The guard carries the supervisor's deadline itself.
            self._begin = guard.begin_load
            self._load_step = (
                lambda interp, args, i: guard.run_loader(args, pixel=i)
            )
            self._read_step = (
                lambda interp, cache, args, i:
                guard.run_reader(cache, args, pixel=i)
            )
            return
        source = table if table is not None else spec
        loader, layout = source.loader, source.layout
        select = table.select if table is not None else (
            lambda cache: spec.reader
        )

        def load_step(interp, args, i):
            cache = layout.new_instance()
            result, cost = interp.run_metered(loader, args, cache=cache)
            return result, cache, cost

        self._begin = lambda: None
        self._load_step = load_step
        self._read_step = (
            lambda interp, cache, args, i:
            interp.run_metered(select(cache), args, cache=cache)
        )

    def takes(self, caches):
        """Cache access is index-based, so this runner also serves a
        frame whose caches live in a batch SoA cache (a supervised
        batch drag degrading to it)."""
        return True

    def load(self, controls, cap):
        edit = self.edit
        session = edit.render_session
        interp = edit.specialization._interp_for(cap)
        step = self._load_step
        self._begin()
        colors, caches, costs = [], [], []
        for index, pixel in enumerate(session.scene):
            result, cache, cost = step(
                interp, session.args_for(pixel, controls), index
            )
            colors.append(result)
            caches.append(cache)
            costs.append(cost)
        total = edit._frame_cost(costs, None, "load")
        return ColorColumn.from_rows(colors), caches, total

    def adjust(self, controls, caches, cap):
        edit = self.edit
        session = edit.render_session
        interp = edit.specialization._interp_for(cap)
        step = self._read_step
        row = _row_view(caches)
        colors, costs = [], []
        for index, pixel in enumerate(session.scene):
            result, cost = step(
                interp, row(index), session.args_for(pixel, controls), index
            )
            colors.append(result)
            costs.append(cost)
        return ColorColumn.from_rows(colors), edit._frame_cost(
            costs, None, "adjust"
        )

    def refill(self, controls, caches, dirty):
        edit = self.edit
        spec = edit.specialization
        session = edit.render_session
        if isinstance(caches, B.SoACache):
            caches.reset_columns(dirty)
        else:
            for cache in caches:
                for k in dirty:
                    cache[k] = None
        row = _row_view(caches)
        costs = [
            spec.run_delta(session.args_for(pixel, controls), row(i), dirty)
            for i, pixel in enumerate(session.scene)
        ]
        return edit._frame_cost(costs, None, "delta")


class BatchRunner(object):
    """Whole-frame kernel runs over one shared SoA cache.  The guarded,
    dispatch-table, tiled or plain load and adjust are picked once,
    here; a tiled drag owns its
    :class:`~repro.runtime.parallel.TileExecutor` as :attr:`executor`."""

    name = "batch"

    def __init__(self, edit):
        self.edit = weakref.proxy(edit)
        plan = edit.plan
        self.executor = (
            P.TileExecutor(
                workers=plan.workers, tile=plan.tile,
                pool=edit.render_session.pool, injector=plan.pool_injector,
            )
            if plan.tiled else None
        )
        spec, table = edit.specialization, edit.table
        if edit.guard is not None:
            self.load, self.adjust = self._guarded_load, self._guarded_adjust
        elif self.executor is not None:
            self.load, self.adjust = self._tiled_load, self._tiled_adjust
            self.refill = self._tiled_refill
        elif table is not None:
            max_steps = spec.options.max_steps
            loader = B.BatchKernel(table.loader, max_steps=max_steps)
            variants = [
                B.BatchKernel(variant, max_steps=max_steps)
                for variant in table.variants
            ]
            self._layout = table.layout
            self._loader = lambda cap: loader
            self._reader = lambda cap, cache, columns, n: B.run_dispatch(
                table, variants.__getitem__, cache, columns, n
            )
        else:
            self._layout = spec.layout
            self._loader = functools.partial(spec.batch_kernel, "loader")
            self._reader = (
                lambda cap, cache, columns, n: spec.batch_kernel(
                    "reader", cap
                ).run_lanes(columns, n, cache=cache)
            )

    @staticmethod
    def takes(caches):
        """Only an SoA cache feeds the vectorized kernels; missing
        caches are rebuilt by the runner's own loader."""
        return caches is None or isinstance(caches, B.SoACache)

    def _frame(self, controls):
        session = self.edit.render_session
        return session.batch_args(controls), len(session.scene)

    # -- one whole-frame kernel call (plain reader or dispatch table) --------

    def load(self, controls, cap):
        columns, n = self._frame(controls)
        cache = B.SoACache(self._layout, n)
        values, lane_costs = self._loader(cap).run_lanes(
            columns, n, cache=cache
        )
        total = self.edit._frame_cost(lane_costs, cap, "load")
        return color_column(values, n, cache.columns), cache, total

    def adjust(self, controls, cache, cap):
        columns, n = self._frame(controls)
        values, lane_costs = self._reader(cap, cache, columns, n)
        total = self.edit._frame_cost(lane_costs, cap, "adjust")
        return color_column(values, n, cache.columns), total

    def refill(self, controls, cache, dirty):
        """Run the sliced delta kernel over the whole frame, splicing
        the refreshed columns into the existing SoA cache in place.

        The refill itself runs unguarded — a contained fault here could
        leave a half-refilled column, so any exception aborts the whole
        delta path and the caller falls back to a (guarded) full load.
        The reader pass that serves the frame still routes through the
        guard."""
        columns, n = self._frame(controls)
        kernel = self.edit.specialization.delta_kernel(dirty)
        cache.reset_columns(dirty)
        _, lane_costs = kernel.run_lanes(columns, n, cache=cache)
        return self.edit._frame_cost(lane_costs, None, "delta")

    # -- guarded -------------------------------------------------------------

    def _guarded_load(self, controls, cap):
        # The guard carries the supervisor's deadline itself.
        columns, n = self._frame(controls)
        guard = self.edit.guard
        guard.begin_load()
        rows, cache, total = guard.run_loader_batch(columns, n)
        return ColorColumn.from_rows(rows), cache, total

    def _guarded_adjust(self, controls, cache, cap):
        columns, n = self._frame(controls)
        rows, total = self.edit.guard.run_reader_batch(cache, columns, n)
        return ColorColumn.from_rows(rows), total

    # -- tiled (runtime/parallel.py) -----------------------------------------

    def _tiled_load(self, controls, cap):
        """Loader sharded into tiles: tile-local SoA segments filled by
        the scheduler and spliced into one frame cache.  A capped load
        stays all-or-nothing (a blown tile raises ``DeadlineError`` and
        the rung fails): committing a frame cache with per-tile holes
        would poison every later adjust, so per-tile degradation is an
        adjust-phase behavior."""
        columns, n = self._frame(controls)
        spec = self.edit.specialization
        # The executor picks the cache's backing store: shared-memory
        # columns when the fork pool will write tiles in place, an
        # ordinary SoACache otherwise.
        kernel = spec.batch_kernel("loader", cap)
        cache = self.executor.new_frame_cache(kernel, spec.layout, n)
        colors, lane_costs = self._run_tiles(
            "load", kernel, columns, n, cache, layout=spec.layout, cap=cap,
        )
        return colors, cache, self.edit._frame_cost(lane_costs, None, "load")

    def _tiled_adjust(self, controls, cache, cap):
        """Reader sharded into tiles over contiguous frame-cache views.

        Under a supervised deadline a blown tile degrades *alone*: the
        supervisor is notified (deadline-miss accounting, incident,
        breaker window) and that tile's pixels are served by the
        unspecialized original while the rest of the frame stays on the
        batch kernel."""
        columns, n = self._frame(controls)
        colors, lane_costs = self._run_tiles(
            "adjust", self.edit.specialization.batch_kernel("reader", cap),
            columns, n, cache, cap=cap,
            on_overrun=(
                self._tile_overrun_handler(controls)
                if cap is not None and self.edit.supervisor is not None
                else None
            ),
        )
        return colors, self.edit._frame_cost(lane_costs, None, "adjust")

    def _tiled_refill(self, controls, cache, dirty):
        columns, n = self._frame(controls)
        spec = self.edit.specialization
        kernel = spec.delta_kernel(dirty)
        cache.reset_columns(dirty)
        _, lane_costs = self._run_tiles(
            "delta", kernel, columns, n, cache, layout=spec.layout,
            refill=True,
        )
        return self.edit._frame_cost(lane_costs, None, "delta")

    def _run_tiles(self, phase, kernel, columns, n, cache, **options):
        edit = self.edit
        session = edit.render_session
        return self.executor.run(
            kernel, columns, n, frame_cache=cache,
            width=session.scene.width, obs=edit.obs,
            shader=session.spec_info.name, partition=edit.param,
            phase=phase, on_pool_incident=self._pool_incident_hook(phase),
            **options
        )

    def _pool_incident_hook(self, phase):
        """Routes the executor's self-healing events (worker losses,
        redispatches, respawns, quarantines) into the supervisor's
        incident ring; None when this drag is unsupervised."""
        supervisor = self.edit.supervisor
        if supervisor is None:
            return None
        key = self.edit._key()

        def hook(cause, detail):
            supervisor.note_pool_incident(key, phase, cause, detail)

        return hook

    def _tile_overrun_handler(self, controls):
        """Per-tile degradation: serve a deadline-blown tile with the
        original shader (uncapped beyond ``options.max_steps``) and
        route the miss through the supervisor's accounting."""
        edit = self.edit
        session = edit.render_session
        spec = edit.specialization

        def handler(tile_index, start, stop, worst):
            edit.supervisor.note_tile_degradation(
                edit._key(), "adjust", tile_index, start, stop, worst,
            )
            colors = []
            costs = []
            for index in range(start, stop):
                pixel = session.scene.pixels[index]
                result, cost = spec.run_original(
                    session.args_for(pixel, controls)
                )
                colors.append(result)
                costs.append(cost)
            return colors, costs

        return handler


def _row_view(caches):
    """Per-pixel cache access for a slot-list array or an SoA cache."""
    if isinstance(caches, B.SoACache):
        return caches.row
    return caches.__getitem__


class RenderSession(object):
    """Drives one shader over one scene, with or without specialization."""

    def __init__(self, shader_index, scene=None, specializer_options=None,
                 width=16, height=16, backend=None, guard=False,
                 supervisor=None, policy=None, obs=None, workers=None,
                 tile=None, pool_policy=None, pool=None, store=None,
                 incremental=False):
        self.spec_info = SHADERS[shader_index]
        #: The :class:`~repro.runtime.parallel.WorkerPool` handed in by
        #: an owner that shares it (the render service), or None: a
        #: pooled session then builds its own from ``workers`` and
        #: ``pool_policy`` on first use and closes it in :meth:`close`.
        self._pool = pool
        self._owns_pool = pool is None
        self._pool_policy = pool_policy
        self._edits = weakref.WeakSet()
        #: Shared artifact store (:class:`~repro.serve.store
        #: .ArtifactStore`): specializations are fetched/persisted by
        #: content address, so sessions — and processes — pointed at
        #: one store share each shader×partition build.  None keeps the
        #: historical in-process-only behavior.
        self.store = store
        #: Telemetry bundle (``repro.obs``): ``True`` for a fresh one,
        #: an :class:`~repro.obs.Observability` to share, default off.
        self.obs = resolve_obs(obs)
        if scene is not None:
            self.scene = scene
        else:
            with self.obs.span(
                "render.scene", shader=self.spec_info.name,
                pixels=width * height,
            ):
                self.scene = scene_for(shader_index, width, height)
        #: The resolved :class:`~repro.runtime.plan.ExecutionPlan` every
        #: drag derives its own from.  Sessions default to
        #: ``backend="auto"`` (batch when NumPy is importable); the
        #: frame's pixel count decides whether the default tile pools.
        self.plan = ExecutionPlan(
            backend=backend, guard=guard, workers=workers, tile=tile,
            pixels=len(self.scene),
        )
        self.backend = self.plan.backend
        # The shader's checked program is installed once per process
        # and shared: ``cached`` says whether this session parsed it.
        with self.obs.span(
            "frontend.parse", shader=self.spec_info.name
        ) as span:
            self.program, cached = PROGRAMS.program(self.spec_info)
            span.set(cached=cached)
        self.specializer = DataSpecializer(
            self.program, specializer_options, obs=self.obs
        )
        #: Session-level render supervisor (deadlines, degradation
        #: ladder, circuit breakers).  Pass one explicitly to share
        #: breakers across sessions, or just a ``policy`` to get a
        #: private supervisor; None leaves rendering unsupervised.
        if supervisor is None and policy is not None:
            supervisor = RenderSupervisor(policy, obs=self.obs)
        self.supervisor = supervisor
        #: Default for every drag's incremental-edit knob: when set,
        #: invariant-parameter edits refill only the dirtied cache
        #: slots via sliced delta loaders (see
        #: :meth:`EditSession._incremental_load`).
        self.incremental = bool(incremental)
        self.controls = self.spec_info.default_controls()
        self._spec_memo = {}
        self._geometry_columns = None

    @property
    def pool(self):
        """The worker pool this session's tiled drags run on (None when
        the plan has one worker); forks nothing until a pooled run."""
        if self._pool is None and self.plan.workers > 1:
            self._pool = P.WorkerPool(self.plan.workers, self._pool_policy)
        return self._pool

    def close(self):
        """Release every drag's shared memory and stop the session's
        own worker pool (a handed-in pool belongs to its owner)."""
        for edit in list(self._edits):
            edit.close()
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    # -- argument plumbing ---------------------------------------------------

    def args_for(self, pixel, controls=None):
        """Full positional argument list for one pixel."""
        controls = controls if controls is not None else self.controls
        args = pixel.geometry_args()
        for name in self.spec_info.control_params:
            args.append(controls[name])
        return args

    def batch_args(self, controls=None):
        """Whole-frame argument columns: per-pixel geometry as arrays
        (scene-constant, built once), controls as uniform scalars."""
        controls = controls if controls is not None else self.controls
        columns = list(self._geometry())
        for name in self.spec_info.control_params:
            columns.append(controls[name])
        return columns

    def _geometry(self):
        """The scene's read-only (u, v, P, N, I) columns — or, when the
        batch backend runs without NumPy, their per-lane rows."""
        if self._geometry_columns is None:
            if B.HAVE_NUMPY:
                self._geometry_columns = self.scene.columns()
            else:
                self._geometry_columns = self.scene.row_columns()
        return self._geometry_columns

    def controls_with(self, **updates):
        merged = dict(self.controls)
        merged.update(updates)
        return merged

    # -- rendering -------------------------------------------------------------

    def render_reference(self, controls=None, specialization=None):
        """Render with the unspecialized shader (metered)."""
        if not self.obs.enabled:
            return self._render_reference(controls, specialization)
        with self.obs.span(
            "render.reference", shader=self.spec_info.name,
            backend=self.backend, pixels=len(self.scene),
        ) as span:
            image = self._render_reference(controls, specialization)
            span.set(cost=image.total_cost)
        return image

    def _render_reference(self, controls=None, specialization=None):
        spec = specialization
        if spec is None:
            spec = self._any_specialization()
        if self.backend == "batch":
            n = len(self.scene)
            values, total = spec.run_original_batch(
                self.batch_args(controls), n
            )
            colors = color_column(values, n)
            return Image(self.scene.width, self.scene.height, colors, total)
        colors = []
        total = 0
        for pixel in self.scene:
            result, cost = spec.run_original(self.args_for(pixel, controls))
            colors.append(result)
            total += cost
        return Image(self.scene.width, self.scene.height, colors, total)

    def _any_specialization(self):
        # The "original" stored on any specialization is the inlined
        # fragment.  Caveat: reassociation reorders operands around the
        # invariant inputs, so originals from different partitions can
        # differ in the last float ulp — callers needing bit-exact
        # parity with one partition's fallback should pass that
        # partition's specialization explicitly.
        return self.specialize(self.spec_info.control_params[0])

    def specialize(self, param, **overrides):
        """Specialize holding everything but ``param`` fixed.

        Results are memoized on ``(param, overrides)``: repeated drags of
        the same parameter (and ``render_reference``, which grabs an
        arbitrary specialization for its inlined original) reuse the
        pipeline output instead of re-running all eight stages."""
        if param not in self.spec_info.control_params:
            raise SpecializationError(
                "%r is not a control parameter of shader %r"
                % (param, self.spec_info.name)
            )
        try:
            key = (param, frozenset(overrides.items()))
        except TypeError:  # unhashable override value — skip the memo
            key = None
        if key is not None and key in self._spec_memo:
            return self._spec_memo[key]

        def build():
            return self.specializer.specialize(
                self.spec_info.name, {param}, **overrides
            )

        if self.store is not None and not overrides:
            spec = self.store.get_or_build(
                self.store.key_for(
                    shader_program_source(self.spec_info),
                    self.spec_info.name, {param}, self.specializer.options,
                ),
                build,
            )
        else:
            # Option overrides change the emitted code, so they bypass
            # the shared store (its key covers only the base options).
            spec = build()
        if key is not None:
            self._spec_memo[key] = spec
        return spec

    def begin_edit(self, param, dispatch=False, injector=None,
                   supervisor=None, incremental=None, **overrides):
        """Start an interactive drag of ``param``.

        ``dispatch=True`` additionally builds the Section 7.2 dispatch
        table and renders through per-pixel selected reader variants
        (falls back to the plain reader when the shader has no dispatch
        candidates).  ``injector`` attaches a
        :class:`~repro.runtime.faultinject.FaultInjector` (see
        :meth:`ExecutionPlan.for_edit` for how its faults split between
        guard and pool); ``supervisor`` overrides the session's
        supervisor (``False`` opts this drag out of supervision);
        ``incremental`` overrides the session's incremental-edit knob
        (delta loaders refill only the dirtied cache slots)."""
        specialization = self.specialize(param, **overrides)
        table = None
        if dispatch:
            from ..transform.dispatch import build_dispatch_table

            table = build_dispatch_table(specialization)
        return EditSession(
            self, specialization, param,
            self.plan.for_edit(dispatch=table is not None, injector=injector),
            table=table, supervisor=supervisor, incremental=incremental,
        )


class ShaderInstallation(object):
    """The paper's install-time workflow (Section 5).

    "A typical shader has on the order of 10 control parameters,
    requiring 10 loader/reader pairs.  We construct, compile, and link
    this code statically at the time a shader is installed, an operation
    that takes only a few seconds per input partition."

    Installing a shader builds the specialization for *every* control
    parameter up front (and optionally compiles the loader/reader pairs
    to Python callables); interactive edits then start instantly.
    """

    def __init__(self, shader_index, scene=None, specializer_options=None,
                 width=16, height=16, compile_code=True, **session_options):
        self.session = RenderSession(
            shader_index, scene=scene,
            specializer_options=specializer_options,
            width=width, height=height, **session_options
        )
        self.obs = self.session.obs
        self.specializations = {}
        self.stats = {}
        with self.obs.span(
            "install.shader", shader=self.session.spec_info.name,
            partitions=len(self.session.spec_info.control_params),
            compile=bool(compile_code),
        ):
            for param in self.session.spec_info.control_params:
                with self.obs.span("install.partition", partition=param):
                    spec = self.session.specialize(param)
                    if compile_code:
                        # Force compilation now ("compile and link ...
                        # at the time a shader is installed").
                        spec.compiled_loader
                        spec.compiled_reader
                self.specializations[param] = spec
                self.stats[param] = {
                    "slots": len(spec.layout),
                    "cache_bytes": spec.cache_size_bytes,
                    "reader_nodes": sum(1 for _ in _walk(spec.reader)),
                }

    @property
    def spec_info(self):
        return self.session.spec_info

    def partitions(self):
        return list(self.specializations)

    def edit(self, param, injector=None, supervisor=None, incremental=None):
        """Start a drag using the pre-built specialization."""
        return self.session.begin_edit(
            param, injector=injector, supervisor=supervisor,
            incremental=incremental,
        )

    def describe(self):
        lines = [
            "installed shader %d (%s): %d loader/reader pairs"
            % (
                self.spec_info.index,
                self.spec_info.name,
                len(self.specializations),
            )
        ]
        for param in self.spec_info.control_params:
            stat = self.stats[param]
            lines.append(
                "  %-12s %2d slots, %3d bytes/pixel, reader %4d nodes"
                % (param, stat["slots"], stat["cache_bytes"], stat["reader_nodes"])
            )
        return "\n".join(lines)


def _walk(node):
    from ..lang.ast_nodes import walk

    return walk(node)
