"""Interactive editing-session simulation.

Section 5's setting: "The graphical interface restricts the user to
modifying a single control parameter at a time, allowing us to specialize
a shader on all of its inputs except for the control parameter being
modified, and reuse the specialization ... so long as the user continues
to modify the same parameter."

:func:`simulate_session` replays such a session against an installed
shader: a script of parameter drags, each segment paying one loader pass
(cache array rebuild) followed by reader-only frames, with the
unspecialized per-frame cost recorded alongside for comparison.  The
resulting trace is what the E14 bench measures: total session cost,
per-segment speedups, and worst-frame latency — the quantity an
interactive user actually feels.
"""

from __future__ import annotations

from ..shaders.render import ShaderInstallation


class FrameRecord(object):
    """One rendered frame of the session."""

    __slots__ = ("segment", "param", "value", "kind", "cost", "reference_cost")

    def __init__(self, segment, param, value, kind, cost, reference_cost):
        self.segment = segment
        self.param = param
        self.value = value
        self.kind = kind  # "load" or "read"
        self.cost = cost
        self.reference_cost = reference_cost

    @property
    def speedup(self):
        return self.reference_cost / self.cost if self.cost else float("inf")


class SessionTrace(object):
    """The full session: frames plus aggregate statistics."""

    def __init__(self, shader_index, frames):
        self.shader_index = shader_index
        self.frames = frames

    @property
    def total_cost(self):
        return sum(f.cost for f in self.frames)

    @property
    def total_reference_cost(self):
        return sum(f.reference_cost for f in self.frames)

    @property
    def session_speedup(self):
        return self.total_reference_cost / float(self.total_cost)

    @property
    def worst_frame_cost(self):
        return max(f.cost for f in self.frames)

    @property
    def worst_reference_frame_cost(self):
        return max(f.reference_cost for f in self.frames)

    def segment_speedups(self):
        """Steady-state (reader-frame) speedup per drag segment."""
        per_segment = {}
        for frame in self.frames:
            if frame.kind != "read":
                continue
            per_segment.setdefault((frame.segment, frame.param), []).append(
                frame.speedup
            )
        return {
            key: sum(values) / len(values)
            for key, values in per_segment.items()
        }

    def describe(self):
        lines = [
            "session on shader %d: %d frames, speedup %.2fx overall"
            % (self.shader_index, len(self.frames), self.session_speedup)
        ]
        for (segment, param), speedup in sorted(self.segment_speedups().items()):
            lines.append(
                "  segment %d (%s): steady-state %.2fx" % (segment, param, speedup)
            )
        lines.append(
            "  worst frame: %.0f specialized vs %.0f unspecialized"
            % (self.worst_frame_cost, self.worst_reference_frame_cost)
        )
        return "\n".join(lines)


#: A representative default session: cheap scale drags, an expensive
#: light move, then color tuning.
DEFAULT_SCRIPT = {
    10: [
        ("ambient", [0.25, 0.35, 0.45, 0.3]),
        ("lightx", [3.0, 1.5, -1.0]),
        ("blue1", [0.2, 0.35, 0.5, 0.4, 0.25]),
        ("ringscale", [8.0, 12.0, 15.0]),
    ],
    3: [
        ("veinfreq", [5.0, 7.0, 9.0]),
        ("r1", [0.3, 0.4, 0.5, 0.45]),
        ("ka", [0.25, 0.3]),
    ],
}


def simulate_session(shader_index, script=None, width=6, height=6,
                     installation=None, **session_options):
    """Replay an editing session; returns a :class:`SessionTrace`.

    ``session_options`` (``backend``, ``tile``, ...) go to
    the underlying :class:`ShaderInstallation` (default
    ``backend="auto"``: the batch kernels when NumPy is available, so
    the bench measures the same execution path interactive sessions
    use; pass ``backend="scalar"`` to simulate the per-pixel
    interpreter instead)."""
    if script is None:
        script = DEFAULT_SCRIPT.get(shader_index)
        if script is None:
            raise ValueError("no default script for shader %d" % shader_index)
    install = installation or ShaderInstallation(
        shader_index, width=width, height=height, compile_code=False,
        **session_options
    )
    session = install.session

    frames = []
    for segment, (param, values) in enumerate(script):
        edit = install.edit(param)
        for value in values:
            controls = session.controls_with(**{param: value})
            frame = edit.frame(controls)
            reference = session.render_reference(
                controls, specialization=edit.specialization
            )
            frames.append(
                FrameRecord(
                    segment, param, value,
                    "read" if edit.last_path == "adjust" else "load",
                    frame.total_cost, reference.total_cost,
                )
            )
    return SessionTrace(shader_index, frames)
