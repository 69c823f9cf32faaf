"""Deterministic fault injection for the guarded-execution subsystem.

Tests (``tests/test_fault_smoke.py`` among them) use a
:class:`FaultInjector` to prove the robustness contract: under a seeded
storm of cache corruption and forced kernel faults, every frame still
completes and every fallback pixel bit-matches ``render_reference``.

All decisions derive from ``(seed, kind, lane, slot)`` through a
private :class:`random.Random` per site, so an injection plan is a pure
function of the seed — independent of iteration order, hash
randomization, and how many other sites were probed first.

Injection kinds
---------------
* ``corrupt_caches`` — clear slots (``None`` → unfilled-read faults) or
  poison them with NaN/Inf (→ cache-validity violations), on both the
  scalar list-of-lists caches and the batch ``SoACache``;
* ``should_fail``/``forced_lanes`` — forced kernel exceptions the
  :class:`~repro.runtime.guard.GuardedExecutor` honors per pixel/lane;
* ``truncate_file``/``garble_file`` — damage persisted artifacts so
  ``load_specialization`` integrity checks can be exercised;
* ``proc_fault`` — *process-level* faults for the self-healing worker
  pool: seeded kill / hang / slow-reply / garbled-reply directives the
  :class:`~repro.runtime.parallel.TileExecutor` plants in outgoing
  chunks and the pool's child loop executes on itself.
"""

from __future__ import annotations

import os
import random

from .vecops import HAVE_NUMPY, _np

#: Cache-corruption flavors: clear a slot back to unfilled, or poison
#: it with a non-finite value (which also ill-types int slots — both
#: are detectable violations, so recovery can be proven bit-exact).
CACHE_MODES = ("clear", "nan", "inf")

#: Process-fault flavors a worker chunk can be directed to perform on
#: itself: ``kill`` (``os._exit`` mid-chunk, the SIGKILL/OOM model),
#: ``hang`` (sleep past the pool deadline), ``slow`` (sleep briefly,
#: then reply correctly), ``garbled`` (send an unparseable reply).
PROC_KINDS = ("kill", "hang", "slow", "garbled")

#: Default hang length.  The dispatching pool stretches it to at least
#: twice its ``PoolPolicy.deadline_ms``, so a hang always outlasts the
#: deadline (the parent SIGKILLs the sleeper, so the sleep never
#: completes); with deadlines off the worker sleeps exactly this long.
DEFAULT_HANG_S = 30.0

#: Default slow-reply delay: long enough to be a real stall relative to
#: millisecond chunks, short enough for sweeps.
DEFAULT_SLOW_S = 0.005


class FaultInjector(object):
    """Seeded, rate-configurable fault source.

    ``cache_rate`` is the per-(lane, slot) corruption probability;
    ``kernel_rate`` the per-(phase, lane) forced-exception probability;
    ``proc_rate`` the per-dispatched-chunk process-fault probability
    (kinds drawn from ``proc_kinds``).  ``injected`` records every
    fault actually planted, as ``(kind, lane, slot, mode)`` tuples, so
    tests know the ground truth.
    """

    def __init__(self, seed=0, cache_rate=0.0, kernel_rate=0.0,
                 modes=CACHE_MODES, proc_rate=0.0, proc_kinds=PROC_KINDS,
                 hang_s=DEFAULT_HANG_S, slow_s=DEFAULT_SLOW_S):
        self.seed = seed
        self.cache_rate = cache_rate
        self.kernel_rate = kernel_rate
        self.modes = tuple(modes)
        self.proc_rate = proc_rate
        self.proc_kinds = tuple(proc_kinds)
        self.hang_s = hang_s
        self.slow_s = slow_s
        self.injected = []

    def _rng(self, *key):
        # str-seeded Random is deterministic across processes (unlike
        # hash()-based seeding under PYTHONHASHSEED).
        return random.Random("%r|%r" % (self.seed, key))

    # -- forced kernel exceptions --------------------------------------------

    def should_fail(self, phase, lane):
        """Deterministically decide a forced kernel fault for one
        pixel/lane of one phase ("load"/"adjust")."""
        if self.kernel_rate <= 0.0:
            return False
        return self._rng("kernel", phase, lane).random() < self.kernel_rate

    def forced_lanes(self, phase, n):
        return [i for i in range(n) if self.should_fail(phase, i)]

    # -- process-level faults (self-healing worker pool) ---------------------

    def proc_fault(self, chunk):
        """Deterministically decide a process fault for one dispatched
        worker chunk (``chunk`` is the executor's monotonically
        increasing dispatch ordinal).

        Returns a ``(kind, seconds)`` directive for the child loop, or
        None.  ``seconds`` is the sleep for ``hang``/``slow`` and None
        for ``kill``/``garbled``.
        """
        if self.proc_rate <= 0.0:
            return None
        rng = self._rng("proc", chunk)
        if rng.random() >= self.proc_rate:
            return None
        kind = rng.choice(self.proc_kinds)
        seconds = None
        if kind == "hang":
            seconds = self.hang_s
        elif kind == "slow":
            seconds = self.slow_s
        self.injected.append(("proc", chunk, None, kind))
        return (kind, seconds)

    # -- cache corruption ----------------------------------------------------

    def corrupt_caches(self, caches):
        """Corrupt filled slots at ``cache_rate``.

        ``caches`` is either the scalar backend's list of per-pixel slot
        lists or one batch :class:`~repro.runtime.batch.SoACache`.
        Returns the number of slots corrupted.
        """
        if self.cache_rate <= 0.0:
            return 0
        if hasattr(caches, "columns"):
            return self._corrupt_soa(caches)
        count = 0
        for lane, cache in enumerate(caches):
            for slot in range(len(cache)):
                mode = self._pick("cache", lane, slot)
                if mode is None or cache[slot] is None:
                    continue
                cache[slot] = _poison_value(cache[slot], mode)
                self.injected.append(("cache", lane, slot, mode))
                count += 1
        return count

    def _pick(self, kind, lane, slot):
        rng = self._rng(kind, lane, slot)
        if rng.random() >= self.cache_rate:
            return None
        return rng.choice(self.modes)

    def _corrupt_soa(self, cache):
        count = 0
        for slot in range(len(cache.layout)):
            if cache.columns[slot] is None:
                continue
            for lane in range(cache.n):
                mode = self._pick("cache", lane, slot)
                if mode is None:
                    continue
                if not cache.lane_filled(slot, lane):
                    # Same skip rule as a scalar ``None`` slot: an
                    # unfilled lane holds nothing to corrupt, so both
                    # backends plant at identical logical sites.
                    continue
                self._poison_soa_lane(cache, slot, lane, mode)
                self.injected.append(("cache", lane, slot, mode))
                count += 1
        return count

    @staticmethod
    def _poison_soa_lane(cache, slot, lane, mode):
        """Corrupt one filled lane of one column in place."""
        bad = float("nan") if mode == "nan" else float("inf")
        column = cache.columns[slot]
        if HAVE_NUMPY and isinstance(column, _np.ndarray):
            if mode == "clear" or column.dtype.kind != "f":
                # Arrays cannot hold None (or NaN in int columns):
                # demote to the list representation row-written caches
                # already use (restoring any masked-store holes), then
                # corrupt the one lane.
                column = cache.demote_column(slot)
                column[lane] = None if mode == "clear" else bad
                return
            if column.ndim == 2:
                column[lane, 0] = bad
            else:
                column[lane] = bad
            return
        column[lane] = _poison_value(column[lane], mode)

    # -- persisted-artifact damage -------------------------------------------

    def truncate_file(self, path, keep=0.5):
        """Truncate a persisted artifact to ``keep`` of its bytes
        (simulating a torn write)."""
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(int(size * keep))
        self.injected.append(("truncate", path, None, keep))

    def garble_file(self, path, nbytes=8):
        """Overwrite the first ``nbytes`` of a persisted artifact with
        deterministic garbage."""
        rng = self._rng("garble", path)
        junk = bytes(rng.randrange(256) for _ in range(nbytes))
        with open(path, "rb+") as handle:
            handle.write(junk)
        self.injected.append(("garble", path, None, nbytes))


def _poison_value(value, mode):
    """Corrupt one scalar/vec3/mat3 slot value."""
    if mode == "clear":
        return None
    bad = float("nan") if mode == "nan" else float("inf")
    if isinstance(value, tuple):
        return (bad,) + value[1:]
    return bad
