"""The execution plan: how one session, or one drag, actually runs.

``RenderSession`` resolves its execution keywords (``backend``,
``guard``, ``tile``) into one immutable :class:`ExecutionPlan` at
construction, and ``begin_edit`` derives each drag's plan from it once.
``EditSession``, ``repro render --json`` and the render service all read
the plan, so what a surface reports is what runs, not what was typed.

Every batch frame is one whole-frame kernel call.  ``tile=`` sets only
the granularity of per-tile deadline degradation: a supervised, capped
adjust splits its lane costs at :func:`plan_tiles` spans and serves each
span whose worst lane blew the cap with the original shader, while the
rest of the frame keeps the reader's result.  Every vectorized operation
the kernels perform is lane-local (elementwise arithmetic, masked
selects, per-lane cost charges; the language has no cross-lane
reduction), so lanes ``[s, e)`` of one whole-frame call are bit-identical
to a call over those lanes alone: the frame, its costs and its degraded
spans are what running the spans one by one would give.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from .batch import resolve_backend


def resolve_tile(tile):
    """Normalize the ``tile=`` knob: a whole lane count >= 1 (an int,
    an integral float, or a decimal integer string), or None for no
    tiling.  Bools and fractional lane counts are rejected."""
    if tile is None:
        return None
    size = 0
    if isinstance(tile, float):
        if tile.is_integer():
            size = int(tile)
    elif not isinstance(tile, bool):
        try:
            size = int(tile)
        except (TypeError, ValueError):
            pass
    if size < 1:
        raise ValueError("bad tile %r (expected a lane count >= 1)" % (tile,))
    return size


def plan_tiles(n, tile, width=None):
    """Deterministic contiguous ``[start, stop)`` lane spans.

    When the scene ``width`` is known the tile size is rounded down to a
    whole number of scan lines (and up to at least one), so a tile never
    splits a row: a degraded tile covers whole image rows.
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


@dataclasses.dataclass(frozen=True)
class ExecutionPlan(object):
    """One resolved, validated execution configuration.

    Construction validates every knob (``ValueError`` names the accepted
    spellings; ``backend=None`` means ``"auto"``) and resolves the
    combinations that cannot tile instead of rejecting them: a plan is
    :attr:`tiled` only on the batch backend, unguarded, without a
    dispatch table, and with a ``tile``.  Every untiled plan records
    ``tile`` None, so no surface reports a tiling that never runs.
    """

    backend: Optional[str] = None
    guard: bool = False
    dispatch: bool = False
    tile: Any = None
    #: Edit plans only: the drag's
    #: :class:`~repro.runtime.faultinject.FaultInjector`, which makes
    #: the drag guarded.
    injector: Any = None

    def __post_init__(self):
        def pin(name, value):
            object.__setattr__(self, name, value)

        pin("backend", resolve_backend(
            "auto" if self.backend is None else self.backend
        ))
        pin("guard", bool(self.guard) or self.injector is not None)
        pin("dispatch", bool(self.dispatch))
        pin("tile", resolve_tile(self.tile))
        if not self.tiled:
            pin("tile", None)

    @property
    def tiled(self):
        """True when a capped adjust degrades per tile."""
        return (
            self.backend == "batch" and not self.guard and not self.dispatch
            and self.tile is not None
        )

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
            "tile": self.tile,
        }
