"""Output checks: every frame against the partition's original program
on the batch path, and a seeded sample against the scalar interpreter.

Colours are compared bit for bit.  The scalar check also recomputes the
frame's abstract cost by running the same phase (load, adjust, delta
refill or reader-only) per pixel on the scalar backend.
"""

from __future__ import annotations

import numpy as np


def _array(colors):
    return np.asarray(colors, dtype=np.float64).reshape(-1)


def same_colors(got, want, nan_sign=False):
    """Bitwise colour equality.  With ``nan_sign`` (values that crossed
    JSON, which keeps no NaN sign or payload) any two NaNs match."""
    a = _array(got)
    b = _array(want)
    if a.shape != b.shape:
        return False
    if np.array_equal(a.view(np.uint64), b.view(np.uint64)):
        return True
    if not nan_sign:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    return bool(np.all((a.view(np.uint64) == b.view(np.uint64)) | both_nan))


class Oracle(object):
    """Tallies what was checked and what mismatched."""

    def __init__(self):
        self.batch_frames = 0
        self.batch_mismatches = 0
        self.scalar_frames = 0
        self.scalar_pixels = 0
        self.scalar_mismatches = 0

    def batch(self, session, spec, controls, colors, nan_sign=False):
        """Check one frame against ``spec``'s original program run over
        the whole frame on the batch path; returns True on a match."""
        ref = session.render_reference(controls, specialization=spec)
        ok = same_colors(colors, ref.colors, nan_sign=nan_sign)
        self.batch_frames += 1
        if not ok:
            self.batch_mismatches += 1
        return ok

    def scalar(self, session, spec, frame):
        """Check one frame against the scalar interpreter: colours from
        ``run_original`` per pixel, cost from the same phase on the
        scalar backend.  ``frame`` is a :class:`Frame`."""
        colors = []
        for pixel in session.scene:
            args = session.args_for(pixel, frame.controls)
            colors.append(spec.run_original(args)[0])
        cost = scalar_phase_cost(session, spec, frame)
        ok = same_colors(frame.colors, colors) and cost == frame.cost
        self.scalar_frames += 1
        self.scalar_pixels += len(colors)
        if not ok:
            self.scalar_mismatches += 1
        return ok

    def summary(self):
        return (
            "oracle: batch original %d frames (%d mismatched); scalar "
            "interpreter %d frames, %d px (%d mismatched)"
            % (self.batch_frames, self.batch_mismatches, self.scalar_frames,
               self.scalar_pixels, self.scalar_mismatches)
        )


class Frame(object):
    """One served frame as the checks need it."""

    __slots__ = ("phase", "controls", "prior", "dirty", "colors", "cost")

    def __init__(self, phase, controls, colors, cost, prior=None,
                 dirty=()):
        #: ``"load"``, ``"adjust"``, ``"delta"`` or ``"noop"``.
        self.phase = phase
        self.controls = controls
        #: Controls of the load that filled the cache this frame read.
        self.prior = prior
        self.dirty = frozenset(dirty)
        self.colors = colors
        self.cost = cost


def scalar_phase_cost(session, spec, frame):
    """Total cost of ``frame``'s phase run per pixel by the scalar
    interpreter."""
    total = 0
    for pixel in session.scene:
        args = session.args_for(pixel, frame.controls)
        if frame.phase == "load":
            total += spec.run_loader(args)[2]
            continue
        _, cache, _ = spec.run_loader(session.args_for(pixel, frame.prior))
        if frame.phase == "delta":
            for slot in frame.dirty:
                cache[slot] = None
            total += spec.run_delta(args, cache, frame.dirty)
        elif frame.phase not in ("adjust", "noop"):
            raise ValueError("unknown phase %r" % frame.phase)
        total += spec.run_reader(cache, args)[1]
    return total
