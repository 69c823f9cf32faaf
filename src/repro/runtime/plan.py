"""The execution plan: how one session, or one drag, actually runs.

``RenderSession`` resolves its execution keywords (``backend``,
``guard``, ``workers``, ``tile``, ``pool_policy``) into one immutable
:class:`ExecutionPlan` at construction, and ``begin_edit`` derives each
drag's plan from it once.  ``EditSession``, ``repro render --json`` and
the render service all read the plan, so what a surface reports is what
runs, not what was typed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from .batch import resolve_backend
from .parallel import (
    DEFAULT_TILE, _pool_available, resolve_tile, resolve_workers,
)


@dataclasses.dataclass(frozen=True)
class ExecutionPlan(object):
    """One resolved, validated execution configuration.

    Construction validates every knob (``ValueError`` names the accepted
    spellings; ``backend=None`` means ``"auto"``) and resolves the
    combinations that cannot tile instead of rejecting them: a plan is
    :attr:`tiled` only on the batch backend, unguarded, without a
    dispatch table, and with more than one worker or an explicit tile
    size.  Every other plan records ``workers`` 1 and ``tile`` None, so
    no surface reports a pool that never runs.
    """

    backend: Optional[str] = None
    guard: bool = False
    dispatch: bool = False
    workers: Any = None
    tile: Any = None
    pool_policy: Any = None
    #: Edit plans only: the drag's
    #: :class:`~repro.runtime.faultinject.FaultInjector`, split between
    #: guard and pool by :attr:`guard_injector` / :attr:`pool_injector`.
    injector: Any = None

    def __post_init__(self):
        def pin(name, value):
            object.__setattr__(self, name, value)

        pin("backend", resolve_backend(
            "auto" if self.backend is None else self.backend
        ))
        pin("guard", bool(self.guard) or self.guard_injector is not None)
        pin("dispatch", bool(self.dispatch))
        pin("workers", resolve_workers(self.workers))
        pin("tile", None if self.tile is None else resolve_tile(self.tile))
        if not self.tiled:
            pin("workers", 1)
            pin("tile", None)
        elif self.tile is None:
            pin("tile", DEFAULT_TILE)

    @property
    def tiled(self):
        """True when frames run through a tiled executor."""
        return (
            self.backend == "batch" and not self.guard and not self.dispatch
            and (self.workers > 1 or self.tile is not None)
        )

    @property
    def transport(self):
        """What a multi-tile frame uses: ``"shm"`` (fork pool) or
        ``"serial"``.  A single-tile frame, a non-vectorized kernel or an
        open pool breaker can still demote one run to serial; the
        ``render.tile`` span reports the per-run choice."""
        return "shm" if self.workers > 1 and _pool_available() else "serial"

    @property
    def guard_injector(self):
        """The injector the per-pixel guard runs with (which makes the
        drag guarded): any injector except one whose only faults are
        process-level (worker kill/hang/slow/garbled).  Those exercise
        the pool's recovery instead, so the drag can stay tiled."""
        injector = self.injector
        if injector is None or (
            self._proc_faults() and injector.cache_rate <= 0.0
            and injector.kernel_rate <= 0.0
        ):
            return None
        return injector

    @property
    def pool_injector(self):
        """The injector a tiled drag's executor plants process faults
        from, or None."""
        return self.injector if self.tiled and self._proc_faults() else None

    def _proc_faults(self):
        return getattr(self.injector, "proc_rate", 0.0) > 0.0

    def for_edit(self, dispatch=False, injector=None):
        """This session plan narrowed to one drag."""
        return dataclasses.replace(self, dispatch=dispatch, injector=injector)

    def as_dict(self):
        """The JSON form every reporting surface shares."""
        return {
            "backend": self.backend,
            "guard": self.guard,
            "dispatch": self.dispatch,
            "tiled": self.tiled,
            "workers": self.workers,
            "tile": self.tile,
            "transport": self.transport,
        }
