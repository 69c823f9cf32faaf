"""Batched (whole-frame) execution backend.

The scalar path calls one Python function per pixel and keeps one Python
list per pixel cache; interpreter dispatch dominates — exactly the
overhead the paper's C backend avoided.  This module executes a full
pixel array per call instead:

* :class:`SoACache` — a struct-of-arrays cache: **one contiguous column
  per** :class:`~repro.core.cache.CacheSlot` (a NumPy array when NumPy
  is available, a plain Python list otherwise), shared by all pixels,
  in place of a list-of-lists.
* :class:`BatchKernel` — a loader/reader/original compiled by
  :func:`repro.runtime.compiler.compile_batch_function` into a
  vectorized kernel whose parameters are whole argument columns and
  which returns ``(values, per_lane_costs)``.

Divergence-fallback rule: when a function contains a construct the
vectorized mode cannot express (the impure ``emit`` builtin, a user
function call, a ``return`` inside a loop, or NumPy missing), the
kernel silently degrades to running the metering interpreter once per
lane over row views of the same SoA cache — identical colors and
identical :class:`~repro.runtime.interp.CostMeter` totals, just without
the speedup.  Branches whose arms are side-effect-free never hit the
fallback; they are linearized with masked ``where``-style selects.
"""

from __future__ import annotations

import itertools
import os
import weakref

from ..lang.errors import CacheFault, EvalError
from ..lang.types import INT, MAT3, VEC3
from .compiler import compile_batch_function
from .interp import CostMeter, Interpreter, slot_detail
from .vecops import HAVE_NUMPY, BatchCompileError, _column_rows, _np

try:  # POSIX shared memory (the zero-copy tile transport's backing store)
    from multiprocessing import shared_memory as _shared_memory

    HAVE_SHM = True
except ImportError:  # pragma: no cover - platforms without _posixshmem
    _shared_memory = None
    HAVE_SHM = False

#: Accepted values for the ``backend=`` knob.
BACKENDS = ("scalar", "batch", "auto")


def resolve_backend(backend):
    """Normalize a ``backend=`` knob value.

    ``None`` keeps the historical scalar path at this knob level (the
    session layer — ``RenderSession``/``EditSession`` — defaults to
    ``"auto"`` instead; pass ``backend="scalar"`` there to opt out).
    ``"auto"`` picks the batch backend exactly when NumPy is importable:
    with the noise family vectorized there is no shader left whose hot
    builtins drop to the lane-at-a-time fallback, so batch is the
    faster choice whenever real arrays exist, while the pure-Python
    batch fallback is correct but not faster than scalar — ``auto``
    never selects it."""
    if backend is None:
        return "scalar"
    if backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (expected one of %s)"
            % (backend, ", ".join(BACKENDS))
        )
    if backend == "auto":
        return "batch" if HAVE_NUMPY else "scalar"
    return backend


class SoACache(object):
    """Struct-of-arrays cache: column ``k`` holds slot ``k`` for every
    lane (pixel) at once.

    Vectorized kernels use :meth:`load`/:meth:`store` on whole columns;
    the per-row fallback path sees one lane at a time through
    :meth:`row` views that speak the scalar interpreter's list protocol.
    """

    __slots__ = ("layout", "n", "columns", "filled")

    def __init__(self, layout, n):
        self.layout = layout
        self.n = n
        self.columns = [None] * len(layout)
        #: Per-column filled tracking for *array* columns, which cannot
        #: hold ``None`` holes the way list columns do: ``True`` when
        #: every lane was stored, or a boolean lane mask when only a
        #: divergent (masked) store reached the column.  List columns
        #: encode unfilled lanes as ``None`` and keep ``None`` here.
        #: Without this, lanes a masked store skipped read back as the
        #: fill value (0) and are indistinguishable from real data —
        #: fault injection and validity scans need the distinction to
        #: agree with the scalar backend's per-pixel ``None`` slots.
        self.filled = [None] * len(layout)

    # -- full-width access (vectorized kernels) ------------------------------

    def load(self, index):
        column = self.columns[index]
        if column is None:
            raise CacheFault(
                "read of unfilled cache slot %d%s"
                % (index, slot_detail(self, index)),
                slot=index,
            )
        if HAVE_NUMPY and isinstance(column, list):
            column = self._densify(index, column)
        return column

    def store(self, index, value, mask=None):
        """Store a full-width ``value`` column; ``mask`` restricts the
        write to active lanes (divergent stores)."""
        if not HAVE_NUMPY:
            raise BatchCompileError("NumPy is unavailable")
        value = self._widen(value)
        if mask is None:
            self.columns[index] = value
            self.filled[index] = True
            return
        old = self.columns[index]
        if isinstance(old, list):
            old = self._densify(index, old, masked_store=True)
        if old is None:
            old = _np.zeros_like(value)
        m = _np.asarray(mask)
        if m.ndim == 0:
            # A predicate over uniform controls and constants: one flag
            # for every lane, widened so filled-lane tracking has a lane
            # axis.
            m = _np.full(self.n, bool(m))
        lanes = m.astype(bool)
        prev = self.filled[index]
        if prev is True:
            pass  # already fully filled; a masked overwrite keeps it so
        elif prev is None:
            self.filled[index] = lanes.copy()
        else:
            self.filled[index] = prev | lanes
        if getattr(value, "ndim", 0) == 2:
            m = m[..., None]
        self.columns[index] = _np.where(m, value, old)

    def _widen(self, value):
        value = _np.asarray(value)
        if value.ndim == 0:
            value = _np.full(self.n, value[()])
        return value

    def _densify(self, index, column, masked_store=False):
        """Convert a row-written (fallback-loaded) list column into the
        contiguous array a vectorized kernel expects.

        A read needs every lane filled.  A masked store (a vectorized
        delta refill over a cache a per-row loader filled) may write
        into a column with unfilled lanes: they become zeros that stay
        unfilled in the column's lane mask, and a column with no filled
        lane is None."""
        lanes = [v is not None for v in column]
        if not all(lanes):
            if not masked_store:
                raise CacheFault(
                    "read of unfilled cache slot %d%s"
                    % (index, slot_detail(self, index)),
                    slot=index,
                )
            if not any(lanes):
                return None
            sample = column[lanes.index(True)]
            zero = (0,) * len(sample) if isinstance(sample, tuple) else 0
            column = [zero if v is None else v for v in column]
        ty = self.layout[index].ty
        dtype = _np.int64 if ty is INT else float
        dense = _np.asarray(column, dtype=dtype)
        self.columns[index] = dense
        self.filled[index] = True if all(lanes) else _np.asarray(lanes)
        return dense

    # -- per-lane access (scalar fallback) -----------------------------------

    def row(self, i):
        """A list-protocol view of lane ``i`` for the scalar interpreter."""
        return _CacheRow(self, i)

    def lane_filled(self, index, lane):
        """True when the loader actually stored slot ``index`` for
        ``lane`` — the SoA analog of a scalar slot not being ``None``."""
        column = self.columns[index]
        if column is None:
            return False
        if HAVE_NUMPY and isinstance(column, _np.ndarray):
            mask = self.filled[index]
            if mask is None or mask is True:
                return True
            return bool(mask[lane])
        return column[lane] is not None

    def demote_column(self, index):
        """Convert an array column to the list representation, restoring
        ``None`` holes for lanes a masked store never reached.  Returns
        the list (already installed in :attr:`columns`)."""
        column = self.columns[index]
        if not (HAVE_NUMPY and isinstance(column, _np.ndarray)):
            return column
        if column.ndim == 2:
            rows = [tuple(row) for row in column.tolist()]
        else:
            rows = column.tolist()
        mask = self.filled[index]
        if mask is not None and mask is not True:
            rows = [v if mask[i] else None for i, v in enumerate(rows)]
        self.columns[index] = rows
        self.filled[index] = None
        return rows

    def reset_columns(self, indices):
        """Forget the listed slots: dirty columns drop back to the
        freshly-allocated state (incremental refill resets them before a
        delta loader recomputes their values in place)."""
        for k in indices:
            self.columns[k] = None
            self.filled[k] = None

    def gather(self, idx):
        """A sub-cache holding only the selected lanes (dispatch grouping)."""
        sub = SoACache(self.layout, len(idx))
        for k, column in enumerate(self.columns):
            if column is None:
                continue
            if HAVE_NUMPY and isinstance(column, _np.ndarray):
                sub.columns[k] = column[idx]
                mask = self.filled[k]
                sub.filled[k] = (
                    mask if mask is None or mask is True else mask[idx]
                )
            else:
                sub.columns[k] = [column[i] for i in idx]
        return sub

    # -- tiled access (runtime/parallel.py) ----------------------------------

    def tile(self, start, stop):
        """A sub-cache over lanes ``[start, stop)``.

        Array columns are NumPy **views** (contiguous, zero-copy — this
        is what the tile scheduler hands each reader tile); list columns
        slice.  Intended for reading: a full-width store through the
        view would rebind the view's column, not write through.
        """
        sub = SoACache(self.layout, stop - start)
        for k, column in enumerate(self.columns):
            if column is None:
                continue
            sub.columns[k] = column[start:stop]
            mask = self.filled[k]
            if HAVE_NUMPY and isinstance(column, _np.ndarray):
                sub.filled[k] = (
                    mask if mask is None or mask is True else mask[start:stop]
                )
        return sub

    def splice(self, start, stop, tile):
        """Install a tile-local cache (lanes ``[start, stop)`` of this
        frame, produced by a loader tile) into the frame cache.

        Array tile columns land in preallocated frame arrays with
        per-lane filled masks merged (normalized back to ``True`` once
        every lane is covered); list tile columns (the pure-Python
        fallback) keep the list representation with ``None`` holes.
        """
        for k, column in enumerate(tile.columns):
            if column is not None:
                self._splice_column(k, start, stop, tile, column)
        return self

    def _splice_column(self, k, start, stop, tile, column):
        if HAVE_NUMPY and isinstance(column, _np.ndarray):
            frame = self.columns[k]
            if isinstance(frame, list):
                frame[start:stop] = tile.demote_column(k)
                return
            if frame is None:
                frame = _np.zeros(
                    (self.n,) + column.shape[1:], dtype=column.dtype
                )
                self.columns[k] = frame
                self.filled[k] = _np.zeros(self.n, dtype=bool)
            frame[start:stop] = column
            mask = self.filled[k]
            if mask is True:
                mask = _np.ones(self.n, dtype=bool)
            elif mask is None:
                mask = _np.zeros(self.n, dtype=bool)
            self._merge_tile_mask(k, mask, start, stop, tile)
        else:
            frame = self.columns[k]
            if frame is None:
                frame = [None] * self.n
                self.columns[k] = frame
                self.filled[k] = None
            elif HAVE_NUMPY and isinstance(frame, _np.ndarray):
                frame = self.demote_column(k)
            frame[start:stop] = column

    def _merge_tile_mask(self, k, mask, start, stop, tile):
        """Mark the tile's filled lanes in the frame-wide ``mask`` and
        install it (normalized to ``True`` once every lane is filled)."""
        tile_mask = tile.filled[k]
        if tile_mask is None or tile_mask is True:
            mask[start:stop] = True
        else:
            mask[start:stop] = tile_mask
        self.filled[k] = True if mask.all() else mask

    # -- container protocol --------------------------------------------------
    #
    # The scalar backend's "caches" are a list of per-pixel slot lists;
    # these dunders let SoA frame caches satisfy the same shape checks
    # (``len(edit.caches)``, iterating per-pixel views) now that the
    # batch backend is the session default.

    def __len__(self):
        return self.n

    def __iter__(self):
        for i in range(self.n):
            yield _CacheRow(self, i)


class _CacheRow(object):
    """One lane of a :class:`SoACache`, exposed as the slot list the
    scalar interpreter indexes.

    Reads convert NumPy storage back to pure Python values so the
    interpreter's dynamic dispatch (e.g. the ``int``/``int`` truncating
    division rule, which tests ``isinstance(x, int)``) behaves exactly
    as it does on the scalar backend.
    """

    __slots__ = ("cache", "i")

    def __init__(self, cache, i):
        self.cache = cache
        self.i = i

    @property
    def layout(self):
        return self.cache.layout

    def __getitem__(self, index):
        column = self.cache.columns[index]
        if column is None:
            return None
        if HAVE_NUMPY and isinstance(column, _np.ndarray):
            if not self.cache.lane_filled(index, self.i):
                return None  # masked store skipped this lane
            if column.ndim == 2:
                return tuple(column[self.i].tolist())
            return column[self.i].item()
        return column[self.i]

    def __setitem__(self, index, value):
        cache = self.cache
        columns = cache.columns
        if columns[index] is None:
            columns[index] = [None] * cache.n
        elif HAVE_NUMPY and isinstance(columns[index], _np.ndarray):
            cache.demote_column(index)
        columns[index][self.i] = value


class BatchKernel(object):
    """One function compiled for whole-frame execution, with automatic
    per-row fallback when vectorized compilation is impossible."""

    __slots__ = ("fn", "program", "max_steps", "_kernel", "_tried",
                 "_interp", "fallback_reason")

    def __init__(self, fn, program=None, max_steps=None):
        self.fn = fn
        #: Optional Program resolving user calls on the fallback path.
        self.program = program
        #: Per-lane interpreter step budget on the fallback path (None =
        #: the interpreter default), so runaway loops are bounded in the
        #: batch backend exactly as in the scalar one.
        self.max_steps = max_steps
        self._kernel = None
        self._tried = False
        self._interp = None
        #: Why vectorized compilation failed (None while untried/ok).
        self.fallback_reason = None

    @property
    def vectorized(self):
        self._ensure()
        return self._kernel is not None

    def _ensure(self):
        if self._tried:
            return
        self._tried = True
        try:
            self._kernel = compile_batch_function(self.fn)
        except BatchCompileError as exc:
            self.fallback_reason = str(exc)

    def run(self, columns, n, cache=None):
        """Execute over ``n`` lanes; returns ``(values, total_cost)``.

        ``values`` is a full-width result column — an array under NumPy,
        a list of per-lane Python values on the fallback path.  Columns
        may be arrays, lists, or uniform Python scalars (controls).
        """
        values, lane_costs = self.run_lanes(columns, n, cache=cache)
        return values, cost_total(lane_costs)

    def run_lanes(self, columns, n, cache=None):
        """Like :meth:`run`, but returns per-lane costs instead of the
        total — ``(values, lane_costs)`` where ``lane_costs`` is an
        int64 array (vectorized) or a list of ints (fallback).  Guarded
        execution uses this to patch individual faulted lanes without
        disturbing the others' accounting."""
        self._ensure()
        if self._kernel is None:
            return self._run_rows(columns, n, cache)
        with _np.errstate(all="ignore"):
            values, lane_costs = self._kernel(*columns, __cache=cache, __n=n)
        return values, lane_costs

    def _run_rows(self, columns, n, cache):
        if self._interp is None:
            self._interp = Interpreter(self.program, max_steps=self.max_steps)
        rows = [_column_rows(column, n) for column in columns]
        values = [None] * n
        costs = [0] * n
        for i in range(n):
            meter = CostMeter()
            values[i] = self._interp.run(
                self.fn,
                [column[i] for column in rows],
                cache=cache.row(i) if cache is not None else None,
                meter=meter,
            )
            costs[i] = meter.total
        return values, costs


def value_rows(values, n):
    """Per-lane Python values of a result column (tuples for vec3/mat3) —
    bitwise equal to what the scalar path would have produced."""
    return _column_rows(values, n)


def cost_total(lane_costs):
    """Exact frame total of per-lane step costs, as a Python int."""
    if isinstance(lane_costs, list):
        return sum(lane_costs)
    return int(lane_costs.sum())


def cost_list(lane_costs):
    """Per-lane step costs as a list of Python ints."""
    if isinstance(lane_costs, list):
        return list(lane_costs)
    return lane_costs.tolist()


def cost_max(lane_costs):
    """The costliest lane's steps (0 for no lanes), as a Python int."""
    if len(lane_costs) == 0:
        return 0
    if isinstance(lane_costs, list):
        return max(lane_costs)
    return int(lane_costs.max())


def join_costs(parts):
    """Per-tile lane costs concatenated in frame order: one int64 array,
    or a list on the pure-Python path."""
    if HAVE_NUMPY:
        return _np.concatenate(
            [_np.asarray(part, dtype=_np.int64) for part in parts]
        )
    joined = []
    for part in parts:
        joined.extend(part)
    return joined


def broadcast_cache(layout, row_cache, n):
    """A :class:`SoACache` whose every lane repeats one scalar cache's
    slot values.

    The Section 7.3 high-repetition shape (image filtering, curve
    sweeps): one loader run fills a single per-instance cache, and one
    batched reader call then serves *n* lanes from it.  ``row_cache`` is
    the slot list a scalar ``run_loader`` produced; unfilled (``None``)
    slots stay unfilled so reads of them still fault.
    """
    if not HAVE_NUMPY:
        raise BatchCompileError("NumPy is unavailable")
    soa = SoACache(layout, n)
    for index, value in enumerate(row_cache):
        if value is None:
            continue
        if isinstance(value, tuple):
            soa.columns[index] = _np.tile(
                _np.asarray(value, dtype=float), (n, 1)
            )
        else:
            dtype = _np.int64 if layout[index].ty is INT else float
            soa.columns[index] = _np.full(n, value, dtype=dtype)
        soa.filled[index] = True
    return soa


def run_dispatch(table, kernel_for, cache, columns, n):
    """Batched Section 7.2 dispatch.

    Group lanes by their cached dispatch code, run each group's reader
    variant kernel over the gathered sub-columns and sub-cache, and
    scatter the results back in lane order.  ``kernel_for(code)`` maps a
    dispatch code to that variant's (memoized) :class:`BatchKernel`, so
    the kernels' step budget holds on both paths.  Returns
    ``(per_lane_values, lane_costs)``.
    """
    if HAVE_NUMPY:
        codes = _np.asarray(cache.load(table.dispatch_slot))
        groups = [
            (int(code), _np.nonzero(codes == code)[0].tolist())
            for code in _np.unique(codes)
        ]
    else:
        lanes = {}
        for i in range(n):
            lanes.setdefault(table.code_of(cache.row(i)), []).append(i)
        groups = sorted(lanes.items())
    values = [None] * n
    costs = [0] * n
    for code, idx in groups:
        group_values, group_costs = kernel_for(code).run_lanes(
            [_gather(column, idx) for column in columns], len(idx),
            cache=cache.gather(idx),
        )
        group_rows = _column_rows(group_values, len(idx))
        for i, value, cost in zip(idx, group_rows, cost_list(group_costs)):
            values[i] = value
            costs[i] = cost
    return values, costs


def _gather(column, idx):
    if HAVE_NUMPY and isinstance(column, _np.ndarray):
        return column[idx]
    if isinstance(column, list):
        return [column[i] for i in idx]
    return column  # uniform scalar (a control parameter)


# ---------------------------------------------------------------------------
# Shared-memory arenas (zero-copy tile transport, runtime/parallel.py)
# ---------------------------------------------------------------------------

#: Segment name sequence — names embed the creating PID so tests can
#: match ``/dev/shm/repro_shm_*`` against live interpreter processes.
_ARENA_SEQ = itertools.count(1)

#: Live arenas (weak — each arena owns its own finalizer); used for the
#: ``repro_shm_bytes_resident`` gauge and the atexit sweep.
_ARENAS = weakref.WeakSet()

#: Alignment for column offsets inside a segment.
_ARENA_ALIGN = 64


def _release_segment(segment, owner, pid):
    """Detach (and, for the creating process, unlink) one segment.

    Runs from :meth:`ShmArena.release`, the arena's GC finalizer, or the
    atexit sweep.  The PID guard matters under ``fork``: pool workers
    inherit the parent's arena objects, and their exit must not unlink
    segments the parent still serves frames from.
    """
    try:
        segment.close()
    except BufferError:
        # Column views are still exported (e.g. a frame cache the caller
        # kept).  The mapping lives until process exit; unlinking below
        # still removes the name, which is the part hygiene cares about.
        pass
    if owner and os.getpid() == pid:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass


class ShmArena(object):
    """One shared-memory segment carved into named NumPy columns.

    The parent process creates an arena from ``(key, dtype, shape)``
    specs; pool workers :meth:`attach` to the picklable
    :meth:`descriptor` and see the *same* physical pages, so a worker
    storing a tile's rows writes directly into the parent's frame —
    nothing but the descriptor ever crosses the pipe.

    Lifecycle: the creator owns the segment name and unlinks it on
    :meth:`release` (idempotent; also wired to a GC finalizer and the
    :func:`~repro.runtime.lifecycle.cleanup_now` sweep, so no segment
    outlives the process).  Attached (worker-side) arenas only ever close their
    mapping.
    """

    def __init__(self, segment, placed, size, owner):
        self._segment = segment
        #: ``key -> (offset, dtype_str, shape)`` — the picklable layout.
        self._placed = {
            key: (offset, dtype, tuple(shape))
            for key, offset, dtype, shape in placed
        }
        self._columns = {
            key: _np.ndarray(
                shape, dtype=_np.dtype(dtype), buffer=segment.buf,
                offset=offset,
            )
            for key, offset, dtype, shape in placed
        }
        self.name = segment.name
        self.size = size
        self.owner = owner
        self._finalizer = weakref.finalize(
            self, _release_segment, segment, owner, os.getpid()
        )
        _ARENAS.add(self)

    @staticmethod
    def _layout_columns(specs):
        offset = 0
        placed = []
        for key, dtype, shape in specs:
            dt = _np.dtype(dtype)
            offset = -(-offset // _ARENA_ALIGN) * _ARENA_ALIGN
            count = 1
            for dim in shape:
                count *= int(dim)
            placed.append((key, offset, dt.str, tuple(shape)))
            offset += count * dt.itemsize
        return placed, max(offset, 1)

    @classmethod
    def create(cls, specs):
        """Allocate a segment holding every ``(key, dtype, shape)`` spec.

        New segments are zero-filled by the OS — loader commit logic
        relies on untouched mask bytes reading as ``False``.
        """
        if not (HAVE_NUMPY and HAVE_SHM):
            raise BatchCompileError("shared memory is unavailable")
        placed, size = cls._layout_columns(specs)
        name = "repro_shm_%d_%d" % (os.getpid(), next(_ARENA_SEQ))
        segment = _shared_memory.SharedMemory(
            create=True, size=size, name=name
        )
        return cls(segment, placed, size, owner=True)

    @classmethod
    def attach(cls, descriptor):
        """Map an existing segment from a :meth:`descriptor` (worker side)."""
        # Attaching re-registers the name with the resource tracker;
        # that is harmless here because fork workers share the parent's
        # tracker process, whose per-type cache is a set — the duplicate
        # collapses, and the creator's unlink clears the single entry.
        segment = _shared_memory.SharedMemory(name=descriptor["segment"])
        placed = [
            (key, offset, dtype, tuple(shape))
            for key, (offset, dtype, shape) in descriptor["columns"].items()
        ]
        return cls(segment, placed, descriptor["size"], owner=False)

    def descriptor(self):
        """Picklable handle a worker can :meth:`attach` to."""
        return {
            "segment": self.name,
            "size": self.size,
            "columns": dict(self._placed),
        }

    def column(self, key):
        return self._columns[key]

    @property
    def alive(self):
        return self._finalizer.alive

    def release(self):
        """Drop the mapping (and unlink when this process created it)."""
        self._columns = {}
        self._finalizer()
        _ARENAS.discard(self)


def shm_resident_bytes():
    """Total bytes of live shared-memory arenas in this process."""
    return sum(arena.size for arena in list(_ARENAS) if arena.alive)


def release_all_arenas():
    """Unlink every live arena (atexit hygiene sweep)."""
    for arena in list(_ARENAS):
        arena.release()


def reclaim_orphaned_segments(shm_dir="/dev/shm"):
    """Unlink ``repro_shm_*`` segments whose creating process is gone.

    A worker killed with SIGKILL (or the parent of a previous crashed
    run) can leave named segments behind that no finalizer will ever
    sweep.  Segment names embed the creating PID, so orphans are
    detectable without ``ps``: a name is reclaimed when its PID no
    longer exists, or when it is this process's own PID but no live
    arena claims the name (the tracking object was lost).  Segments of
    *other live* processes are never touched.

    Returns ``(segments, bytes)`` reclaimed.  No-op (``(0, 0)``) on
    hosts without a /dev/shm-style directory.
    """
    if not (HAVE_NUMPY and HAVE_SHM) or not os.path.isdir(shm_dir):
        return (0, 0)
    live = {arena.name for arena in list(_ARENAS) if arena.alive}
    own_pid = os.getpid()
    segments = 0
    nbytes = 0
    try:
        names = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - unreadable shm dir
        return (0, 0)
    for name in names:
        if not name.startswith("repro_shm_") or name in live:
            continue
        try:
            pid = int(name.split("_")[2])
        except (IndexError, ValueError):
            continue
        if pid != own_pid:
            try:
                os.kill(pid, 0)
                continue  # creator still running: its segment, not ours
            except ProcessLookupError:
                pass
            except (PermissionError, OSError):
                continue  # pragma: no cover - someone else's live pid
        path = os.path.join(shm_dir, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            continue  # pragma: no cover - raced another sweep
        # Unlink through SharedMemory so the resource tracker's entry
        # (if this process ever registered the name) is cleared too.
        try:
            segment = _shared_memory.SharedMemory(name=name)
        except (OSError, ValueError):  # pragma: no cover - raced
            continue
        try:
            segment.close()
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - raced
            continue
        segments += 1
        nbytes += size
    return (segments, nbytes)


def _column_spec(slot, n):
    """(dtype, shape) of one cache slot's full-width column."""
    if slot.ty is INT:
        return "int64", (n,)
    if slot.ty is VEC3:
        return "float64", (n, 3)
    if slot.ty is MAT3:
        return "float64", (n, 9)
    return "float64", (n,)


class ShmSoACache(SoACache):
    """A frame :class:`SoACache` whose array columns live in a
    :class:`ShmArena`, so loader tiles running in pool workers can store
    results in place.

    Freshly created it is indistinguishable from an empty ``SoACache``
    (all columns ``None``); the executor *commits* columns — pointing
    ``columns[k]`` at the arena views and deriving ``filled`` from the
    arena's mask planes — only after the workers' tile descriptors come
    back.  Every ``SoACache`` operation (tiling, demotion, splicing,
    row views) keeps working because committed columns are ordinary
    ndarrays; operations that *rebind* a column simply diverge that
    column from the arena, and the executor detects divergence before
    reusing the arena for reader transport.
    """

    __slots__ = ("arena", "__weakref__")

    def __init__(self, layout, n, arena):
        SoACache.__init__(self, layout, n)
        self.arena = arena

    def reset_columns(self, indices):
        """Forget the listed slots *and* zero their arena planes, so a
        delta refill through the shm transport starts from the same
        all-zero bytes a fresh arena has (non-storing tiles and the
        commit's mask derivation rely on that baseline)."""
        SoACache.reset_columns(self, indices)
        if self.arena.alive:
            for k in indices:
                self.arena.column("col%d" % k)[...] = 0
                self.arena.column("mask%d" % k)[...] = False

    def _splice_column(self, k, start, stop, tile, column):
        """Splice into the arena planes, so a frame a serial loader
        stitched together stays backed by its arena (and its adjusts
        stay eligible for the pool); a tile column whose dtype or shape
        does not match its plane, or a column that already diverged,
        takes the plain :class:`SoACache` path instead."""
        frame = self.columns[k]
        if self.arena.alive and isinstance(column, _np.ndarray):
            plane = self.arena.column("col%d" % k)
            if (
                (frame is None or frame is plane)
                and column.dtype == plane.dtype
                and column.shape == (stop - start,) + plane.shape[1:]
            ):
                mask = self.arena.column("mask%d" % k)
                if frame is None:
                    # Lanes no tile splices (degraded tiles) must read
                    # as zeros with False masks, like a fresh column.
                    plane[...] = 0
                    mask[...] = False
                    self.columns[k] = plane
                elif self.filled[k] is True:
                    mask[...] = True
                elif self.filled[k] is not mask:
                    mask[...] = self.filled[k]
                plane[start:stop] = column
                self._merge_tile_mask(k, mask, start, stop, tile)
                return
        SoACache._splice_column(self, k, start, stop, tile, column)

    @classmethod
    def allocate(cls, layout, n):
        """A frame cache backed by a fresh arena (one data plane plus one
        bool mask plane per cache slot)."""
        specs = []
        for k, slot in enumerate(layout):
            dtype, shape = _column_spec(slot, n)
            specs.append(("col%d" % k, dtype, shape))
            specs.append(("mask%d" % k, "bool", (n,)))
        arena = ShmArena.create(specs)
        cache = cls(layout, n, arena)
        # The cache's own lifetime drives the arena's: when the session
        # drops the frame cache, the segment is unlinked.
        weakref.finalize(cache, arena.release)
        return cache
