"""Guarded execution: contain faults to the pixel or lane that raised them.

The paper's contract (Section 2) only holds when a reader runs against
the cache its matching loader built under the same invariant inputs.  A
corrupted slot, a poisoned NaN/Inf, or an evaluation fault (unfilled
slot, division by zero, step-budget blowout) would otherwise either
abort a whole frame render or silently yield wrong pixels.

:class:`GuardedExecutor` wraps a specialization's loader/reader calls —
scalar and batch — so that:

* an evaluation fault in one pixel falls back to ``run_original`` for
  **that pixel only** (the unspecialized fragment needs no cache, so its
  result is the reference answer by definition);
* in the batch backend the recovery is a **masked re-run**: faulted
  lanes are gathered out, the original kernel re-runs over just those
  lanes, and results scatter back — healthy lanes keep their vectorized
  results and per-lane costs;
* cache-validity violations (unfilled, ill-typed, or non-finite slots
  left by corruption) are detected *before* they can leak wrong colors;
* every incident is recorded in a structured :class:`FaultLog` with
  phase, pixel, slot, exception text, and the fallback's metered cost.

When no fault fires, the guarded path executes exactly the same kernel
or interpreter calls as the unguarded one — colors and
:class:`~repro.runtime.interp.CostMeter` totals are byte-identical.
A pixel whose *loader* faulted is remembered as failed: its cache is
untrustworthy, so every subsequent ``adjust`` falls back to the
original for it as well.
"""

from __future__ import annotations

import math
from collections import deque

from ..lang.errors import EvalError, SpecializationError
from ..obs.trace import current_request_id
from . import batch as B
from .interp import Interpreter, _slot_value_ok
from .vecops import HAVE_NUMPY, _column_rows, _np

#: Exception classes the guard contains to the faulting pixel/lane.
#: Beyond :class:`EvalError`, corrupted cache data can surface as host
#: arithmetic/type errors (e.g. ``None`` in arithmetic on the compiled
#: path, NaN→int conversion in dispatch-code selection).
GUARDED_FAULTS = (
    EvalError,
    SpecializationError,
    ArithmeticError,
    ValueError,
    TypeError,
    LookupError,
)


def _finite(value):
    """True when a result/slot value contains no NaN/Inf component."""
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _same(a, b):
    """Value equality that treats NaN as equal to NaN (legitimately
    non-finite results must not be misread as faults)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


class FaultIncident(object):
    """One contained fault and what its recovery cost."""

    __slots__ = (
        "phase", "pixel", "slot", "error", "fallback_cost", "seq",
        "request_id",
    )

    def __init__(self, phase, pixel, slot, error, fallback_cost, seq=0,
                 request_id=None):
        #: "load" or "adjust".
        self.phase = phase
        #: Pixel/lane index within the frame (None when unknown).
        self.pixel = pixel
        #: Cache slot implicated, when the fault named one.
        self.slot = slot
        #: Human-readable cause (exception text or validity violation).
        self.error = error
        #: Abstract cost of the ``run_original`` fallback for this pixel.
        self.fallback_cost = fallback_cost
        #: Monotonic sequence number assigned by the owning
        #: :class:`FaultLog` — ring eviction loses records but never
        #: reorders survivors, so exported incident streams stay
        #: orderable (and gaps reveal exactly what was dropped).
        self.seq = seq
        #: Trace/request id ambient when the fault fired (from
        #: :func:`repro.obs.current_request_id`), or None outside a
        #: served request.
        self.request_id = request_id

    def as_dict(self):
        return {
            "seq": self.seq,
            "request_id": self.request_id,
            "phase": self.phase,
            "pixel": self.pixel,
            "slot": self.slot,
            "error": self.error,
            "fallback_cost": self.fallback_cost,
        }

    def __repr__(self):
        where = "" if self.slot is None else " slot %d" % self.slot
        return "FaultIncident(#%d %s px %s%s: %s, fallback cost %d)" % (
            self.seq, self.phase, self.pixel, where, self.error,
            self.fallback_cost,
        )


#: Default bound on retained incidents (see :class:`FaultLog`).
DEFAULT_MAX_INCIDENTS = 1024


class FaultLog(object):
    """Structured record of every fault a :class:`GuardedExecutor`
    contained.

    Incident objects are kept in a capped ring buffer (``max_incidents``
    most recent) so a sustained fault storm — millions of pixels falling
    back frame after frame — cannot grow memory without bound.  The
    aggregates survive eviction: ``len``, :meth:`count`,
    :attr:`fallback_cost`, and the per-phase tallies always reflect
    *every* fault ever recorded; :attr:`dropped` says how many incident
    records were evicted from the ring.  Iteration and :attr:`incidents`
    yield the retained (most recent) incidents, oldest first.
    """

    def __init__(self, max_incidents=DEFAULT_MAX_INCIDENTS, on_record=None):
        if max_incidents < 1:
            raise ValueError("max_incidents must be >= 1")
        self.max_incidents = max_incidents
        self._recent = deque(maxlen=max_incidents)
        #: Incident records evicted from the ring (aggregates still
        #: count them).
        self.dropped = 0
        #: Optional callback invoked with each new :class:`FaultIncident`
        #: (telemetry mirrors fault counts into a metrics registry).
        self.on_record = on_record
        self._total = 0
        self._seq = 0
        self._phase_counts = {}
        self._fallback_cost = 0

    def record(self, phase, pixel, slot, error, fallback_cost):
        self._total += 1
        self._seq += 1
        self._phase_counts[phase] = self._phase_counts.get(phase, 0) + 1
        self._fallback_cost += fallback_cost
        if len(self._recent) == self.max_incidents:
            self.dropped += 1
        incident = FaultIncident(
            phase, pixel, slot, str(error), fallback_cost, seq=self._seq,
            request_id=current_request_id(),
        )
        self._recent.append(incident)
        if self.on_record is not None:
            self.on_record(incident)

    @property
    def incidents(self):
        """The retained incidents, oldest first (bounded ring view)."""
        return list(self._recent)

    def __len__(self):
        return self._total

    def __iter__(self):
        return iter(list(self._recent))

    def clear(self):
        # ``_seq`` deliberately survives: sequence numbers stay
        # monotonic for the lifetime of the log so incident streams
        # spanning a clear() remain orderable.
        self._recent.clear()
        self.dropped = 0
        self._total = 0
        self._phase_counts = {}
        self._fallback_cost = 0

    @property
    def pixels(self):
        """Sorted distinct pixel indices among the *retained* incidents
        that needed a fallback."""
        return sorted({i.pixel for i in self._recent if i.pixel is not None})

    @property
    def fallback_cost(self):
        """Total metered fallback cost, including evicted incidents."""
        return self._fallback_cost

    def count(self, phase=None):
        """Faults recorded (per phase, or overall), including evicted
        incidents."""
        if phase is None:
            return self._total
        return self._phase_counts.get(phase, 0)

    def phase_counts(self):
        """Aggregate per-phase fault tallies as a dict copy."""
        return dict(self._phase_counts)

    def summary(self):
        if not self._total:
            return "no faults"
        text = "%d faults (load %d, adjust %d) on %d pixels, fallback cost %d" % (
            self._total,
            self.count("load"),
            self.count("adjust"),
            len(self.pixels),
            self._fallback_cost,
        )
        if self.dropped:
            text += " (%d incident records dropped)" % self.dropped
        return text


class GuardedExecutor(object):
    """Wraps one :class:`~repro.core.specializer.Specialization` (and
    optionally its Section 7.2 dispatch table) with per-pixel fault
    containment.

    ``injector`` is an optional
    :class:`~repro.runtime.faultinject.FaultInjector` whose forced
    kernel faults the guard honors — tests use it to prove frames
    complete under deterministic fault storms.

    ``max_steps`` tightens the interpreter step budget for the
    *specialized* kernels only (a render supervisor's per-request
    deadline); the ``run_original`` fallback keeps the specialization's
    configured budget, so it stays the safety valve even when the
    deadline is set below the shader's own cost.
    """

    def __init__(self, specialization, table=None, injector=None, log=None,
                 max_steps=None):
        self.spec = specialization
        self.table = table
        self.injector = injector
        self.log = log if log is not None else FaultLog()
        #: Pixels whose loader faulted this frame: their caches are
        #: invalid, so readers always fall back for them.
        self._failed = set()
        budget = specialization.options.max_steps
        cap = None
        if max_steps is not None:
            budget = max_steps if budget is None else min(max_steps, budget)
            cap = budget
        self.max_steps = budget
        #: Tightened budget passed through to specialized kernel runs
        #: (None when no deadline narrows the configured budget).
        self._cap = cap
        self._interp = Interpreter(max_steps=budget)

    # -- frame lifecycle -----------------------------------------------------

    def begin_load(self):
        """Forget loader failures from any previous frame build."""
        self._failed.clear()

    @property
    def failed_pixels(self):
        return sorted(self._failed)

    def _forced(self, phase, pixel):
        return self.injector is not None and self.injector.should_fail(
            phase, pixel
        )

    def _forced_lanes(self, phase, n):
        if self.injector is None:
            return []
        return self.injector.forced_lanes(phase, n)

    # -- scalar execution ----------------------------------------------------

    def run_loader(self, args, pixel=None, cache=None):
        """Guarded per-pixel loader; returns ``(result, cache, cost)``.
        On a fault the cache comes back empty and the pixel is marked
        failed so adjusts fall back too."""
        layout = self.table.layout if self.table is not None else self.spec.layout
        if self._forced("load", pixel):
            return self._loader_fallback(
                args, pixel, layout, None, "injected kernel fault"
            )
        try:
            if self.table is not None:
                cache = layout.new_instance()
                result, cost = self._interp.run_metered(
                    self.table.loader, args, cache=cache
                )
            else:
                result, cache, cost = self.spec.run_loader(
                    args, cache=cache, max_steps=self._cap
                )
        except GUARDED_FAULTS as exc:
            return self._loader_fallback(
                args, pixel, layout, getattr(exc, "slot", None), exc
            )
        if not _finite(result):
            ref, ref_cost = self.spec.run_original(args)
            if not _same(result, ref):
                self._failed.add(pixel)
                self.log.record(
                    "load", pixel, None,
                    "non-finite loader result %r" % (result,), ref_cost,
                )
                return ref, layout.new_instance(), ref_cost
        return result, cache, cost

    def _loader_fallback(self, args, pixel, layout, slot, error):
        result, cost = self.spec.run_original(args)
        self._failed.add(pixel)
        self.log.record("load", pixel, slot, error, cost)
        return result, layout.new_instance(), cost

    def run_reader(self, cache, args, pixel=None):
        """Guarded per-pixel reader; returns ``(result, cost)``."""
        if pixel in self._failed:
            return self._reader_fallback(
                args, pixel, None, "cache invalidated by loader fault"
            )
        if self._forced("adjust", pixel):
            return self._reader_fallback(
                args, pixel, None, "injected kernel fault"
            )
        violation = self._cache_violation(cache)
        if violation is not None:
            return self._reader_fallback(args, pixel, violation[0], violation[1])
        try:
            if self.table is not None:
                variant = self.table.select(cache)
                result, cost = self._interp.run_metered(
                    variant, args, cache=cache
                )
            else:
                result, cost = self.spec.run_reader(
                    cache, args, max_steps=self._cap
                )
        except GUARDED_FAULTS as exc:
            return self._reader_fallback(
                args, pixel, getattr(exc, "slot", None), exc
            )
        if not _finite(result):
            ref, ref_cost = self.spec.run_original(args)
            if not _same(result, ref):
                self.log.record(
                    "adjust", pixel, None,
                    "non-finite reader result %r" % (result,), ref_cost,
                )
                return ref, ref_cost
        return result, cost

    def _reader_fallback(self, args, pixel, slot, error):
        result, cost = self.spec.run_original(args)
        self.log.record("adjust", pixel, slot, error, cost)
        return result, cost

    def _cache_violation(self, cache):
        """Scan the pixel's *filled* slots for corruption (non-finite or
        ill-typed values).  Unfilled slots are legitimate — the loader
        only stores along the path it executed — and are caught at read
        time instead.  Returns ``(slot, reason)`` or ``None``."""
        layout = getattr(cache, "layout", None)
        if layout is None:
            return None
        for slot in layout:
            value = cache[slot.index]
            if value is None:
                continue
            if not _slot_value_ok(cache, slot.index, value):
                return slot.index, (
                    "ill-typed value %r in cache slot %d" % (value, slot.index)
                )
            if not _finite(value):
                return slot.index, (
                    "non-finite value in cache slot %d" % slot.index
                )
        return None

    # -- batch execution -----------------------------------------------------

    def run_loader_batch(self, columns, n, cache=None):
        """Guarded whole-frame loader; returns ``(rows, cache, total)``
        where ``rows`` holds per-lane Python values."""
        if self.table is not None:
            cache = B.SoACache(self.table.layout, n)
            rows, costs = self._rows_loader(cache, columns, n)
            return rows, cache, sum(costs)
        if cache is None:
            cache = self.spec.new_batch_cache(n)
        try:
            rows, costs, over = self._run_kernel("loader", columns, n, cache)
        except GUARDED_FAULTS:
            rows, costs = self._rows_loader(cache, columns, n)
            over = set()
        forced = self._forced_lanes("load", n)
        if forced:
            arg_rows = [_column_rows(c, n) for c in columns]
            for i in forced:
                if i in self._failed:
                    continue
                ref, ref_cost = self.spec.run_original(
                    [col[i] for col in arg_rows]
                )
                self._failed.add(i)
                self.log.record("load", i, None, "injected kernel fault", ref_cost)
                rows[i] = ref
                costs[i] = ref_cost
                over.discard(i)
        rows, costs = self._patch_lanes(
            "load", rows, costs, columns, n, over, mark_failed=True
        )
        return rows, cache, sum(costs)

    def run_reader_batch(self, cache, columns, n):
        """Guarded whole-frame reader; returns ``(rows, total)``."""
        if self.table is not None:
            rows, costs = self._rows_reader(cache, columns, n)
            return rows, sum(costs)
        invalid = self._invalid_lanes("adjust", cache, n)
        if invalid:
            rows, costs = self._split_reader(cache, columns, n, invalid)
            return rows, sum(costs)
        try:
            rows, costs, over = self._run_kernel("reader", columns, n, cache)
        except GUARDED_FAULTS:
            rows, costs = self._rows_reader(cache, columns, n)
            return rows, sum(costs)
        rows, costs = self._patch_lanes(
            "adjust", rows, costs, columns, n, over
        )
        return rows, sum(costs)

    def _run_kernel(self, which, columns, n, cache):
        """One whole-frame kernel run: ``(rows, costs, over)``, where
        ``over`` holds the lanes whose metered cost blew the tightened
        step budget (lanes the scalar interpreter would have aborted)."""
        values, lane_costs = self.spec.batch_kernel(
            which, self._cap
        ).run_lanes(columns, n, cache=cache)
        costs = B.cost_list(lane_costs)
        cap = self._cap
        over = (
            set() if cap is None
            else {i for i, cost in enumerate(costs) if cost > cap}
        )
        return B.value_rows(values, n), costs, over

    def _invalid_lanes(self, phase, cache, n):
        """Lanes that must not run through the reader kernel: loader
        failures, injector-forced faults, and lanes whose filled slots
        hold non-finite or ill-typed values."""
        lanes = set(self._failed)
        lanes.update(self._forced_lanes(phase, n))
        for index, column in enumerate(cache.columns):
            if column is None:
                continue
            if HAVE_NUMPY and isinstance(column, _np.ndarray):
                if column.dtype.kind != "f":
                    continue
                finite = _np.isfinite(column)
                if finite.ndim == 2:
                    finite = finite.all(axis=1)
                lanes.update(_np.nonzero(~finite)[0].tolist())
            else:
                for i, value in enumerate(column):
                    if value is None:
                        continue  # per-path slot; legitimate
                    if not _finite(value) or not _slot_value_ok(
                        cache, index, value
                    ):
                        lanes.add(i)
        return sorted(lanes)

    def _split_reader(self, cache, columns, n, invalid):
        """Masked re-run: healthy lanes go through the reader kernel
        over gathered sub-columns; faulted lanes re-run the *original*
        kernel and scatter back."""
        invalid_set = set(invalid)
        valid = [i for i in range(n) if i not in invalid_set]
        rows = [None] * n
        costs = [0] * n
        if valid:
            sub_columns = [B._gather(c, valid) for c in columns]
            sub_cache = cache.gather(valid)
            try:
                sub_rows, sub_costs, over = self._run_kernel(
                    "reader", sub_columns, len(valid), sub_cache
                )
            except GUARDED_FAULTS:
                sub_rows, sub_costs = self._rows_reader(
                    sub_cache, sub_columns, len(valid), lane_ids=valid
                )
                over = set()
            sub_rows, sub_costs = self._patch_lanes(
                "adjust", sub_rows, sub_costs, sub_columns, len(valid), over,
                lane_ids=valid,
            )
            for j, i in enumerate(valid):
                rows[i] = sub_rows[j]
                costs[i] = sub_costs[j]
        bad_columns = [B._gather(c, invalid) for c in columns]
        ref_values, ref_costs = self.spec.batch_original.run_lanes(
            bad_columns, len(invalid)
        )
        ref_rows = B.value_rows(ref_values, len(invalid))
        ref_cost_list = B.cost_list(ref_costs)
        for j, i in enumerate(invalid):
            rows[i] = ref_rows[j]
            costs[i] = ref_cost_list[j]
            reason = (
                "cache invalidated by loader fault"
                if i in self._failed
                else "cache-validity violation (corrupted lane)"
            )
            self.log.record("adjust", i, None, reason, ref_cost_list[j])
        return rows, costs

    # -- per-row guarded loops (fallback + dispatch tables) ------------------

    def _rows_loader(self, cache, columns, n, lane_ids=None):
        loader = self.table.loader if self.table is not None else self.spec.loader
        arg_rows = [_column_rows(c, n) for c in columns]
        rows = [None] * n
        costs = [0] * n
        for i in range(n):
            pixel = i if lane_ids is None else lane_ids[i]
            args = [col[i] for col in arg_rows]
            if self._forced("load", pixel):
                ref, ref_cost = self.spec.run_original(args)
                self._failed.add(pixel)
                self.log.record("load", pixel, None, "injected kernel fault", ref_cost)
                rows[i], costs[i] = ref, ref_cost
                continue
            try:
                rows[i], costs[i] = self._interp.run_metered(
                    loader, args, cache=cache.row(i)
                )
            except GUARDED_FAULTS as exc:
                ref, ref_cost = self.spec.run_original(args)
                self._failed.add(pixel)
                self.log.record(
                    "load", pixel, getattr(exc, "slot", None), exc, ref_cost
                )
                rows[i], costs[i] = ref, ref_cost
        return rows, costs

    def _rows_reader(self, cache, columns, n, lane_ids=None):
        arg_rows = [_column_rows(c, n) for c in columns]
        rows = [None] * n
        costs = [0] * n
        for i in range(n):
            pixel = i if lane_ids is None else lane_ids[i]
            args = [col[i] for col in arg_rows]
            rows[i], costs[i] = self.run_reader(
                cache.row(i), args, pixel=pixel
            )
        return rows, costs

    def _patch_lanes(
        self, phase, rows, costs, columns, n, over, mark_failed=False,
        lane_ids=None,
    ):
        """Replace a lane's result with the original's answer when it is
        in ``over`` (it blew the step budget), or came out non-finite
        where the original is not non-finite in exactly the same way (a
        legitimate value, not a fault)."""
        arg_rows = None
        for i in range(n):
            blown = i in over
            if not blown and rows[i] is not None and _finite(rows[i]):
                continue
            if arg_rows is None:
                arg_rows = [_column_rows(c, n) for c in columns]
            ref, ref_cost = self.spec.run_original(
                [col[i] for col in arg_rows]
            )
            if blown:
                error = "step budget exceeded (%d steps > budget %d)" % (
                    costs[i], self._cap,
                )
            elif _same(rows[i], ref):
                continue
            else:
                error = "non-finite result %r" % (rows[i],)
            pixel = i if lane_ids is None else lane_ids[i]
            if mark_failed:
                self._failed.add(pixel)
            self.log.record(phase, pixel, None, error, ref_cost)
            rows[i] = ref
            costs[i] = ref_cost
        return rows, costs
