"""Interactive-renderer substrate (the paper's Section 5 setting).

The paper's renderer specializes a shader on every input except the one
control parameter the user is currently dragging, builds one cache per
pixel (up to ~10^6 simultaneously live caches), and re-runs only the
reader as the slider moves.  ``RenderSession`` reproduces that loop:

* ``render_reference``  — run the plain shader over the image,
* ``begin_edit(param)`` — specialize on the partition where ``param``
  varies, then run the loader once per pixel to build the cache array,
* ``adjust(value)``     — run the reader per pixel with the new value.

All runs are metered, so a session reports exactly the per-pixel
costs the paper's figures are built from.
"""

from __future__ import annotations

import time

from ..core.specializer import DataSpecializer
from ..lang.errors import DeadlineError, SpecializationError, SupervisionError
from ..lang.parser import parse_program
from ..obs import resolve_obs
from ..obs.schema import canonical_rung
from ..runtime import batch as B
from ..runtime import parallel as P
from ..runtime import values as V
from ..runtime.colors import ColorColumn, color_column
from ..runtime.guard import FaultLog
from ..runtime.interp import CostMeter, Interpreter
from ..runtime.plan import ExecutionPlan
from ..runtime.supervise import RenderSupervisor, Rung
from .scenes import scene_for
from .sources import SHADERS, shader_program_source


#: Incremental loads fall back to a full load once the dirty set covers
#: more than this fraction of the cache slots: refilling nearly all of
#: the cache costs about as much as a full load, but adds the reader
#: pass on top.
MAX_DIRTY_FRACTION = 0.8


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
    variants (e.g. the two tiles of a checkerboard)."""

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
        self._executor = (
            P.TileExecutor(
                workers=plan.workers, tile=plan.tile,
                policy=plan.pool_policy, injector=plan.pool_injector,
            )
            if plan.tiled else None
        )
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
        #: How the most recent :meth:`load` was served: ``"full"``,
        #: ``"delta"`` (sliced refill), or ``"noop"`` (only varying
        #: parameters changed; reader re-run on the existing cache).
        self._last_load_path = None
        #: Ladder rung that served the most recent supervised request
        #: (None when unsupervised).
        self.last_rung = None
        self._load_rung = None
        self._load_controls = None
        self._interp = None
        self._loader_kernel = None
        self._variant_kernels = {}
        if table is not None:
            self._interp = Interpreter(
                max_steps=specialization.options.max_steps
            )

    def close(self):
        """Release this drag's tiled executor — its per-session shm
        arenas and pool handle — without touching the process-wide warm
        pool other drags share.  Safe to call repeatedly; a service
        hosting many sessions calls this when a session ends."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

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

    def load(self, controls):
        """Run the loader for every pixel; returns the resulting Image."""
        if not self.obs.enabled:
            return self._load_frame(controls)
        with self.obs.span(
            "render.load", shader=self.render_session.spec_info.name,
            partition=self.param, backend=self.backend,
            pixels=len(self.render_session.scene),
        ) as span:
            image = self._load_frame(controls)
            span.set(
                cost=image.total_cost, rung=self._rung_label(),
                path=self._last_load_path or "full",
            )
        self._record_frame("load", image)
        return image

    def adjust(self, controls):
        """Run the reader for every pixel with updated controls."""
        if not self.obs.enabled:
            return self._adjust_frame(controls)
        with self.obs.span(
            "render.adjust", shader=self.render_session.spec_info.name,
            partition=self.param, backend=self.backend,
            pixels=len(self.render_session.scene),
        ) as span:
            image = self._adjust_frame(controls)
            span.set(cost=image.total_cost, rung=self._rung_label())
        self._record_frame("adjust", image)
        return image

    def _load_frame(self, controls):
        if self.incremental:
            image = self._incremental_load(controls)
            if image is not None:
                return image
        self._last_load_path = "full"
        if self.supervisor is not None:
            return self._supervised_load(controls)
        if self.guard is not None:
            self.guard.begin_load()
        if self.backend == "batch":
            colors, cache, total = self._load_batch(controls)
        else:
            colors, cache, total = self._load_scalar(controls)
        self.caches = cache
        self.load_cost = total
        self._load_controls = dict(controls)
        return self._image(colors, total)

    def _adjust_frame(self, controls):
        if self.supervisor is not None:
            return self._supervised_adjust(controls)
        if self.caches is None:
            raise SpecializationError("adjust() before load()")
        if self.backend == "batch":
            colors, total = self._adjust_batch(controls)
        else:
            colors, total = self._adjust_scalar(controls)
        return self._image(colors, total)

    def _image(self, colors, total):
        scene = self.render_session.scene
        return Image(scene.width, scene.height, colors, total)

    # -- incremental loads ---------------------------------------------------

    def _incremental_load(self, controls):
        """Serve :meth:`load` via a parameter-sliced delta refill.

        Applies when a previous load exists and the changed invariant
        parameters dirty at most :data:`MAX_DIRTY_FRACTION` of the cache
        slots; returns None whenever the delta path does not apply (or
        faults), in which case the caller runs a full load."""
        spec = self.specialization
        if self.table is not None:
            # Dispatch tables select variants per pixel; their caches
            # carry no parameter->slot dependence map to slice on.
            return None
        if self.guard is not None and self.guard.injector is not None:
            # Fault injection perturbs the guarded fallback pattern, so
            # a delta refill would not be comparable to a full load.
            return None
        if self.caches is None or self._load_controls is None:
            return None
        if self.backend == "batch" and not isinstance(self.caches, B.SoACache):
            return None
        if self.supervisor is not None:
            breaker = self.supervisor.breakers.get(self._key())
            if breaker is not None and breaker.state != "closed":
                # Suspect caches: the half-open probe must rebuild from
                # scratch via the fully supervised full-load ladder.
                return None
        previous = self._load_controls
        changed = set()
        for name in self.render_session.spec_info.control_params:
            if controls.get(name) != previous.get(name):
                changed.add(name)
        changed -= set(spec.varying)
        dirty = spec.dirty_slots(changed)
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
        the reader; commits the updated load state on success."""
        start = time.perf_counter()
        if self.supervisor is not None:
            # The delta path bypasses the degradation ladder: it only
            # runs when the breaker is closed, and any fault falls back
            # to a fully supervised full load.
            self.last_rung = self.backend
            self._load_rung = self.backend
        if self.backend == "batch":
            delta_cost = self._refill_batch(controls, dirty) if dirty else 0
            colors, reader_cost = self._adjust_batch(controls)
        else:
            delta_cost = self._refill_scalar(controls, dirty) if dirty else 0
            colors, reader_cost = self._adjust_scalar(controls)
        total = delta_cost + reader_cost
        self.load_cost = total
        self._load_controls = dict(controls)
        self._last_load_path = "delta" if dirty else "noop"
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
        return self._image(colors, total)

    def _refill_batch(self, controls, dirty):
        """Run the sliced delta kernel over the whole frame, splicing
        the refreshed columns into the existing SoA cache in place.

        The refill itself runs unguarded — a contained fault here could
        leave a half-refilled column, so any exception aborts the whole
        delta path and the caller falls back to a (guarded) full load.
        The reader pass that serves the frame still routes through the
        guard."""
        spec = self.specialization
        session = self.render_session
        n = len(session.scene)
        columns = session.batch_args(controls)
        cache = self.caches
        kernel = spec.delta_kernel(dirty)
        cache.reset_columns(dirty)
        if self._executor is not None:
            _, lane_costs = self._executor.run(
                kernel, columns, n, frame_cache=cache, layout=spec.layout,
                width=session.scene.width, obs=self.obs,
                shader=session.spec_info.name, partition=self.param,
                phase="delta", refill=True,
                on_pool_incident=self._pool_incident_hook("delta"),
            )
        else:
            _, lane_costs = kernel.run_lanes(columns, n, cache=cache)
        return self._frame_cost(lane_costs, n, None, "delta")

    def _refill_scalar(self, controls, dirty):
        """Per-pixel delta-loader sweep over the existing scalar caches
        (or over SoA rows, when a supervised ladder degradation left a
        batch cache behind a scalar drag)."""
        spec = self.specialization
        session = self.render_session
        caches = self.caches
        soa = isinstance(caches, B.SoACache)
        if soa:
            caches.reset_columns(dirty)
        observe = self.obs.enabled
        pixel_costs = [] if observe else None
        total = 0
        for index, pixel in enumerate(session.scene):
            if soa:
                cache = caches.row(index)
            else:
                cache = caches[index]
                for k in dirty:
                    cache[k] = None
            cost = spec.run_delta(
                session.args_for(pixel, controls), cache, dirty
            )
            total += cost
            if observe:
                pixel_costs.append(cost)
        if observe:
            self._observe_pixel_costs("delta", pixel_costs)
        return total

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

    def _frame_cost(self, lane_costs, n, cap, phase):
        """Exact frame total of one batch run's per-lane costs.

        Under a step ``cap`` the worst lane is checked first; the
        per-pixel histogram is fed only when telemetry is on."""
        if cap is not None:
            self._lane_deadline(
                lane_costs, cap, "loader" if phase == "load" else "reader"
            )
        if self.obs.enabled:
            self._observe_pixel_costs(phase, B.cost_rows(lane_costs, n))
        return B.cost_total(lane_costs)

    def _observe_pixel_costs(self, phase, costs):
        """Feed exact per-pixel CostMeter totals into the step
        histogram (only called on paths that have them)."""
        histogram = self.obs.registry.histogram(
            "repro_pixel_cost_steps",
            "Per-pixel abstract CostMeter steps for loader/reader runs.",
            ("shader", "partition", "phase"),
        ).labels(
            shader=self.render_session.spec_info.name,
            partition=self.param, phase=phase,
        )
        for cost in costs:
            histogram.observe(cost)

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

    # -- scalar backend ------------------------------------------------------

    def _load_scalar(self, controls, cap=None):
        """Per-pixel loader sweep; returns ``(colors, caches, total)``
        without committing any session state (a supervised rung must be
        all-or-nothing)."""
        spec = self.specialization
        session = self.render_session
        observe = self.obs.enabled
        pixel_costs = [] if observe else None
        colors = []
        caches = []
        total = 0
        for index, pixel in enumerate(session.scene):
            args = session.args_for(pixel, controls)
            if self.guard is not None:
                result, cache, cost = self.guard.run_loader(args, pixel=index)
            elif self.table is not None:
                cache = self.table.layout.new_instance()
                meter = CostMeter()
                result = self._table_interp(cap).run(
                    self.table.loader, args, cache=cache, meter=meter
                )
                cost = meter.total
            else:
                result, cache, cost = spec.run_loader(args, max_steps=cap)
            colors.append(result)
            caches.append(cache)
            total += cost
            if observe:
                pixel_costs.append(cost)
        if observe:
            self._observe_pixel_costs("load", pixel_costs)
        return ColorColumn.from_rows(colors), caches, total

    def _adjust_scalar(self, controls, cap=None):
        """Per-pixel reader sweep; returns ``(colors, total)``.

        Cache access is index-based so this rung also serves a frame
        whose caches live in a batch :class:`~repro.runtime.batch
        .SoACache` (the supervised ladder degrading batch → scalar)."""
        spec = self.specialization
        session = self.render_session
        caches = self.caches
        soa = isinstance(caches, B.SoACache)
        observe = self.obs.enabled
        pixel_costs = [] if observe else None
        colors = []
        total = 0
        for index, pixel in enumerate(session.scene):
            cache = caches.row(index) if soa else caches[index]
            args = session.args_for(pixel, controls)
            if self.guard is not None:
                result, cost = self.guard.run_reader(cache, args, pixel=index)
            elif self.table is not None:
                variant = self.table.select(cache)
                result, cost = self._table_interp(cap).run_metered(
                    variant, args, cache=cache
                )
            else:
                result, cost = spec.run_reader(cache, args, max_steps=cap)
            colors.append(result)
            total += cost
            if observe:
                pixel_costs.append(cost)
        if observe:
            self._observe_pixel_costs("adjust", pixel_costs)
        return ColorColumn.from_rows(colors), total

    def _table_interp(self, cap):
        """The shared dispatch-table interpreter, or a tighter-budget
        one when a supervisor deadline caps this rung."""
        if cap is None:
            return self._interp
        budget = self.specialization.options.max_steps
        if budget is not None:
            cap = min(cap, budget)
        return Interpreter(max_steps=cap)

    # -- batch backend -------------------------------------------------------

    def _load_batch(self, controls, cap=None):
        """One loader-kernel invocation fills the whole frame's SoA
        cache; returns ``(colors, cache, total)`` without committing."""
        session = self.render_session
        n = len(session.scene)
        columns = session.batch_args(controls)
        if self.guard is not None:
            rows, cache, total = self.guard.run_loader_batch(columns, n)
            return ColorColumn.from_rows(rows), cache, total
        if self.table is not None:
            cache = B.SoACache(self.table.layout, n)
            if self._loader_kernel is None:
                self._loader_kernel = B.BatchKernel(
                    self.table.loader,
                    max_steps=self.specialization.options.max_steps,
                )
            values, total = self._loader_kernel.run(columns, n, cache=cache)
            return color_column(values, n, cache.columns), cache, total
        if self._executor is not None:
            return self._load_batch_tiled(columns, n, cap)
        cache = self.specialization.new_batch_cache(n)
        kernel = self.specialization.batch_kernel("loader", cap)
        values, lane_costs = kernel.run_lanes(columns, n, cache=cache)
        total = self._frame_cost(lane_costs, n, cap, "load")
        return color_column(values, n, cache.columns), cache, total

    def _adjust_batch(self, controls, cap=None):
        """Whole-frame reader invocation; returns ``(colors, total)``."""
        session = self.render_session
        n = len(session.scene)
        columns = session.batch_args(controls)
        if self.guard is not None:
            rows, total = self.guard.run_reader_batch(
                self.caches, columns, n
            )
            return ColorColumn.from_rows(rows), total
        if self.table is not None:
            rows, total = B.run_dispatch(
                self.table, self._variant_kernel, self.caches, columns, n
            )
            return ColorColumn.from_rows(rows), total
        if self._executor is not None and isinstance(self.caches, B.SoACache):
            return self._adjust_batch_tiled(columns, n, cap, controls)
        kernel = self.specialization.batch_kernel("reader", cap)
        values, lane_costs = kernel.run_lanes(
            columns, n, cache=self.caches
        )
        total = self._frame_cost(lane_costs, n, cap, "adjust")
        return color_column(values, n, self.caches.columns), total

    @staticmethod
    def _lane_deadline(lane_costs, cap, which):
        """Enforce a per-pixel step deadline on the vectorized path.

        The vectorized kernel cannot abort mid-frame the way the scalar
        interpreter does, so the budget is checked post hoc per lane;
        the frame is discarded (never committed) when any lane blew it.
        """
        worst = B.cost_max(lane_costs)
        if worst > cap:
            raise DeadlineError(
                "batch %s blew the per-pixel step deadline "
                "(%d steps > budget %d)" % (which, worst, cap)
            )

    def _variant_kernel(self, code):
        kernel = self._variant_kernels.get(code)
        if kernel is None:
            kernel = B.BatchKernel(self.table.variants[code])
            self._variant_kernels[code] = kernel
        return kernel

    # -- tiled batch execution (runtime/parallel.py) -------------------------

    def _load_batch_tiled(self, columns, n, cap):
        """Loader sharded into tiles: tile-local SoA segments filled by
        the scheduler and spliced into one frame cache.  A capped load
        stays all-or-nothing (a blown tile raises ``DeadlineError`` and
        the rung fails): committing a frame cache with per-tile holes
        would poison every later adjust, so per-tile degradation is an
        adjust-phase behavior."""
        spec = self.specialization
        session = self.render_session
        # The executor picks the cache's backing store: shared-memory
        # columns when the fork pool will write tiles in place, an
        # ordinary SoACache otherwise.
        kernel = spec.batch_kernel("loader", cap)
        cache = self._executor.new_frame_cache(kernel, spec.layout, n)
        colors, lane_costs = self._executor.run(
            kernel, columns, n, frame_cache=cache, layout=spec.layout,
            width=session.scene.width, cap=cap, obs=self.obs,
            shader=session.spec_info.name, partition=self.param,
            phase="load",
            on_pool_incident=self._pool_incident_hook("load"),
        )
        return colors, cache, self._frame_cost(lane_costs, n, None, "load")

    def _adjust_batch_tiled(self, columns, n, cap, controls):
        """Reader sharded into tiles over contiguous frame-cache views.

        Under a supervised deadline a blown tile degrades *alone*: the
        supervisor is notified (deadline-miss accounting, incident,
        breaker window) and that tile's pixels are served by the
        unspecialized original while the rest of the frame stays on the
        batch kernel."""
        spec = self.specialization
        session = self.render_session
        kernel = spec.batch_kernel("reader", cap)
        on_overrun = (
            self._tile_overrun_handler(controls)
            if cap is not None and self.supervisor is not None
            else None
        )
        colors, lane_costs = self._executor.run(
            kernel, columns, n, frame_cache=self.caches, cap=cap,
            width=session.scene.width, on_overrun=on_overrun,
            obs=self.obs, shader=session.spec_info.name,
            partition=self.param, phase="adjust",
            on_pool_incident=self._pool_incident_hook("adjust"),
        )
        return colors, self._frame_cost(lane_costs, n, None, "adjust")

    def _pool_incident_hook(self, phase):
        """Routes the executor's self-healing events (worker losses,
        redispatches, respawns, quarantines) into the supervisor's
        incident ring; None when this drag is unsupervised."""
        if self.supervisor is None:
            return None
        supervisor = self.supervisor
        key = self._key()

        def hook(cause, detail):
            supervisor.note_pool_incident(key, phase, cause, detail)

        return hook

    def _tile_overrun_handler(self, controls):
        """Per-tile degradation: serve a deadline-blown tile with the
        original shader (uncapped beyond ``options.max_steps``) and
        route the miss through the supervisor's accounting."""
        session = self.render_session
        spec = self.specialization

        def handler(tile_index, start, stop, worst):
            self.supervisor.note_tile_degradation(
                self._key(), "adjust", tile_index, start, stop, worst,
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

    # -- supervised execution ------------------------------------------------

    def _key(self):
        return (self.render_session.spec_info.name, self.param)

    def _original_frame(self, controls):
        """The unspecialized shader over the whole frame — the ladder's
        safety valve, deliberately uncapped (``options.max_steps`` still
        bounds it)."""
        session = self.render_session
        spec = self.specialization
        if self.backend == "batch":
            n = len(session.scene)
            values, total = spec.run_original_batch(
                session.batch_args(controls), n
            )
            return color_column(values, n), total
        colors = []
        total = 0
        for pixel in session.scene:
            result, cost = spec.run_original(session.args_for(pixel, controls))
            colors.append(result)
            total += cost
        return ColorColumn.from_rows(colors), total

    def _supervised_load(self, controls):
        supervisor = self.supervisor
        session = self.render_session
        state = {}

        def batch_rung(cap):
            if self.guard is not None:
                self.guard.begin_load()
            colors, cache, total = self._load_batch(controls, cap)
            state["caches"] = cache
            state["cost"] = total
            return colors, total

        def scalar_rung(cap):
            if self.guard is not None:
                self.guard.begin_load()
            colors, caches, total = self._load_scalar(controls, cap)
            state["caches"] = caches
            state["cost"] = total
            return colors, total

        def original_rung(cap):
            colors, total = self._original_frame(controls)
            state["caches"] = None
            state["cost"] = total
            return colors, total

        def lkg_rung(cap):
            colors = supervisor.last_known_good(self._key(), "load")
            if colors is None:
                raise SupervisionError("no last-known-good load frame")
            state["caches"] = None
            state["cost"] = 0
            return colors, 0

        rungs = []
        if self.backend == "batch":
            rungs.append(Rung("batch", batch_rung))
        rungs.append(Rung("scalar", scalar_rung))
        rungs.append(Rung("original", original_rung))
        rungs.append(Rung("lkg", lkg_rung))
        colors, total, rung = supervisor.run_request(
            self._key(), "load", rungs, len(session.scene),
            fault_log=self.fault_log,
        )
        self.last_rung = rung
        self._load_rung = rung
        self._load_controls = dict(controls)
        self.caches = state.get("caches")
        self.load_cost = state.get("cost", total)
        self._drop_caches_if_tripped()
        return self._image(colors, total)

    def _drop_caches_if_tripped(self):
        """An open breaker invalidates this drag's caches: whatever
        poisoned the window may live in them, so the half-open probe
        must rebuild from scratch (via :meth:`_ensure_caches`) rather
        than re-test known-suspect state."""
        breaker = self.supervisor.breakers.get(self._key())
        if breaker is not None and breaker.state != "closed":
            self.caches = None

    def _ensure_caches(self, kind, cap):
        """Rebuild this drag's caches for a specialized adjust rung.

        A load served while the circuit breaker was open (or degraded to
        the original) leaves no caches; the first specialized adjust —
        typically the breaker's half-open probe — re-runs the loader
        with the retained load controls so the probe genuinely tests
        the specialized path end to end."""
        if self.caches is not None:
            return
        if self._load_controls is None:
            raise SupervisionError("no load controls to rebuild caches from")
        if self.guard is not None:
            self.guard.begin_load()
        if kind == "batch":
            _, cache, _ = self._load_batch(self._load_controls, cap)
        else:
            _, cache, _ = self._load_scalar(self._load_controls, cap)
        self.caches = cache

    def _supervised_adjust(self, controls):
        supervisor = self.supervisor
        session = self.render_session
        if self.caches is None and self._load_rung is None:
            raise SpecializationError("adjust() before load()")

        def lkg_rung(cap):
            colors = supervisor.last_known_good(self._key(), "adjust")
            if colors is None:
                raise SupervisionError("no last-known-good adjust frame")
            return colors, 0

        def batch_rung(cap):
            self._ensure_caches("batch", cap)
            return self._adjust_batch(controls, cap)

        def scalar_rung(cap):
            self._ensure_caches("scalar", cap)
            return self._adjust_scalar(controls, cap)

        rungs = []
        # A scalar-built cache array cannot feed the vectorized kernel,
        # so the batch rung only appears when the caches are (or can be
        # rebuilt as) an SoA cache; missing caches — a load served while
        # the breaker was open — are rebuilt by the first specialized
        # rung from the retained load controls.
        if self.backend == "batch" and (
            self.caches is None or isinstance(self.caches, B.SoACache)
        ):
            rungs.append(Rung("batch", batch_rung))
        rungs.append(Rung("scalar", scalar_rung))
        rungs.append(
            Rung("original", lambda cap: self._original_frame(controls))
        )
        rungs.append(Rung("lkg", lkg_rung))
        colors, total, rung = supervisor.run_request(
            self._key(), "adjust", rungs, len(session.scene),
            fault_log=self.fault_log,
        )
        self.last_rung = rung
        self._drop_caches_if_tripped()
        return self._image(colors, total)


class RenderSession(object):
    """Drives one shader over one scene, with or without specialization."""

    def __init__(self, shader_index, scene=None, specializer_options=None,
                 width=16, height=16, backend=None, guard=False,
                 supervisor=None, policy=None, obs=None, workers=None,
                 tile=None, pool_policy=None, store=None,
                 incremental=False):
        self.spec_info = SHADERS[shader_index]
        #: The resolved :class:`~repro.runtime.plan.ExecutionPlan` every
        #: drag derives its own from.  Sessions default to
        #: ``backend="auto"`` (batch when NumPy is importable).
        self.plan = ExecutionPlan(
            backend=backend, guard=guard, workers=workers, tile=tile,
            pool_policy=pool_policy,
        )
        self.backend = self.plan.backend
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
        with self.obs.span(
            "frontend.parse", shader=self.spec_info.name
        ):
            self.program = parse_program(
                shader_program_source(self.spec_info)
            )
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
        if param not in self.specializations:
            raise SpecializationError(
                "%r is not a control parameter of shader %r"
                % (param, self.spec_info.name)
            )
        return EditSession(
            self.session, self.specializations[param], param,
            self.session.plan.for_edit(injector=injector),
            supervisor=supervisor, incremental=incremental,
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
