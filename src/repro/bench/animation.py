"""Animation workloads for the incremental edit path.

Interactive drags (``bench/session.py``) edit one parameter at a time
— the partition parameter — so each frame is a reader-only pass over a
standing cache.  Animation is the opposite regime: every frame moves
*invariant* parameters (a seeded parameter sweep, or a light/camera
path orbiting through two or three parameters at once), which a plain
session must answer with a full cache reload per frame.  The
incremental edit path instead refills only the slots the moved
parameters dirty, so this workload is precisely where delta loaders
pay off — and where they must still produce byte-identical frames.

:func:`animate` replays one seeded script twice over the same shader —
once with ``incremental=True``, once without — asserts frame-for-frame
byte parity, and returns an :class:`AnimationTrace` with the per-frame
load paths, abstract cost totals, and wall-clock throughput.
:func:`sweep_script` and :func:`orbit_script` are the seeded script
generators; ``renderbench/animate.py`` builds its workload from them.
"""

from __future__ import annotations

import math
import random
import time

from ..shaders.render import RenderSession

#: Default animation subject: the clouds shader — noise-heavy loads,
#: a sun direction to orbit, and plenty of scalar tuning parameters.
DEFAULT_SHADER = 5
#: Partition parameter (the one the drag varies; never animated here).
DEFAULT_PARAM = "density"
#: Parameter-sweep segments: each random-walks one invariant parameter.
DEFAULT_SWEEPS = ("haze", "sharpness", "cloudbright")
#: Camera-path parameters orbited together, one step per frame.
DEFAULT_ORBIT = ("sunx", "suny", "sunz")


class AnimationFrame(object):
    """One animation frame as served by the incremental session."""

    __slots__ = ("segment", "kind", "edited", "path", "cost", "full_cost")

    def __init__(self, segment, kind, edited, path, cost, full_cost):
        self.segment = segment
        #: ``"sweep"`` or ``"orbit"``.
        self.kind = kind
        #: Names of the parameters this frame moved.
        self.edited = edited
        #: How the incremental session served it: full/delta/noop.
        self.path = path
        self.cost = cost
        #: Cost of the same frame through a full reload.
        self.full_cost = full_cost


class AnimationTrace(object):
    """The full animation plus aggregate statistics."""

    def __init__(self, shader_index, param, seed, frames,
                 incremental_seconds, full_seconds):
        self.shader_index = shader_index
        self.param = param
        self.seed = seed
        self.frames = frames
        self.incremental_seconds = incremental_seconds
        self.full_seconds = full_seconds

    @property
    def total_cost(self):
        return sum(f.cost for f in self.frames)

    @property
    def total_full_cost(self):
        return sum(f.full_cost for f in self.frames)

    @property
    def cost_speedup(self):
        return self.total_full_cost / float(self.total_cost)

    @property
    def wall_speedup(self):
        return (
            self.full_seconds / self.incremental_seconds
            if self.incremental_seconds else float("inf")
        )

    def path_counts(self):
        counts = {}
        for frame in self.frames:
            counts[frame.path] = counts.get(frame.path, 0) + 1
        return counts

    def describe(self):
        lines = [
            "animation on shader %d (seed %d): %d frames, "
            "cost %.2fx cheaper than full reloads (wall %.2fx)"
            % (self.shader_index, self.seed, len(self.frames),
               self.cost_speedup, self.wall_speedup)
        ]
        for path, count in sorted(self.path_counts().items()):
            lines.append("  %-6s frames: %d" % (path, count))
        return "\n".join(lines)


def sweep_script(rng, controls, params, frames_per_segment):
    """Seeded parameter sweep: one segment per parameter, each frame
    nudging that parameter by a random step around its base value."""
    script = []
    for param in params:
        base = controls[param]
        value = base
        segment = []
        for _ in range(frames_per_segment):
            value = value + (rng.random() - 0.5) * 0.2 * (abs(base) + 0.5)
            segment.append({param: value})
        script.append(("sweep", (param,), segment))
    return script


def orbit_script(rng, controls, params, frames):
    """Camera-style path: orbit the listed parameters together along a
    seeded circular arc (phase and radius drawn from ``rng``)."""
    phase = rng.random() * 2.0 * math.pi
    radius = 0.5 + rng.random()
    segment = []
    for step in range(frames):
        angle = phase + (step + 1) * (2.0 * math.pi / max(frames, 1))
        values = (math.cos(angle), math.sin(angle), 0.3 + 0.2 * math.cos(angle))
        segment.append({
            param: controls[param] + radius * offset
            for param, offset in zip(params, values)
        })
    return [("orbit", tuple(params), segment)]


def animate(shader_index=DEFAULT_SHADER, param=DEFAULT_PARAM,
            sweeps=DEFAULT_SWEEPS, orbit=DEFAULT_ORBIT, seed=0,
            width=24, height=24, frames_per_segment=4, backend=None,
            workers=None, tile=None):
    """Run one seeded animation through the incremental and full edit
    paths; returns an :class:`AnimationTrace`.

    Both sessions replay the identical control sequence; every frame
    pair is asserted byte-identical before any number is reported."""
    rng = random.Random(seed)

    def make(incremental):
        session = RenderSession(
            shader_index, width=width, height=height, backend=backend,
            workers=workers, tile=tile, incremental=incremental,
        )
        return session, session.begin_edit(param)

    inc_session, inc_edit = make(True)
    full_session, full_edit = make(False)
    script = (
        sweep_script(rng, inc_session.controls, sweeps, frames_per_segment)
        + orbit_script(rng, inc_session.controls, orbit, frames_per_segment)
    )

    inc_edit.load(inc_session.controls)
    full_edit.load(full_session.controls)

    frames = []
    inc_seconds = 0.0
    full_seconds = 0.0
    controls = dict(inc_session.controls)
    for segment, (kind, edited, steps) in enumerate(script):
        for updates in steps:
            controls = dict(controls)
            controls.update(updates)
            start = time.perf_counter()
            inc_frame = inc_edit.load(controls)
            inc_seconds += time.perf_counter() - start
            start = time.perf_counter()
            full_frame = full_edit.load(controls)
            full_seconds += time.perf_counter() - start
            assert inc_frame.colors == full_frame.colors, (
                "animation frame diverges on %s edit of %s"
                % (kind, ", ".join(edited))
            )
            frames.append(
                AnimationFrame(
                    segment, kind, edited, inc_edit.last_path,
                    inc_frame.total_cost, full_frame.total_cost,
                )
            )
    inc_session.close()
    full_session.close()
    return AnimationTrace(
        shader_index, param, seed, frames, inc_seconds, full_seconds
    )

