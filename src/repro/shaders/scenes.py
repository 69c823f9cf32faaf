"""Synthetic per-pixel shading inputs.

The paper shades real images from the GKR95 renderer; we synthesize the
per-pixel quantities a scan-line renderer would hand a shader — texture
coordinates, surface position, unit normal, unit incident (eye-to-surface)
vector — deterministically from the pixel grid, for a sphere-patch scene
(curved normals exercise the lighting math) and a flat wall scene (for the
tiling shaders).  Determinism matters: every speedup and cache-size figure
in the benches is exactly reproducible.

A scene is held as columns: ``u``/``v`` of shape ``(n,)`` and ``P``/``N``/
``I`` of shape ``(n, 3)``, read-only float64 arrays in row-major pixel
order, which the batch backend passes to its kernels as they are.  They
are computed with the same IEEE-754 operations, in the same order, as a
per-pixel loop over :mod:`repro.runtime.values` would; only the per-row
and per-column angles go through ``math.sin``/``math.cos``.  The scalar
path's :class:`PixelInput` objects are built from the columns on first
use.
"""

from __future__ import annotations

import math

from ..lang.errors import SceneError
from ..runtime import values as V

try:
    import numpy as _np
except ImportError:  # pragma: no cover - NumPy-less installs
    _np = None


class PixelInput(object):
    """Geometry handed to a shader for one pixel (fixed per pixel)."""

    __slots__ = ("x", "y", "u", "v", "P", "N", "I")

    def __init__(self, x, y, u, v, P, N, I):
        self.x = x
        self.y = y
        self.u = u
        self.v = v
        self.P = P
        self.N = N
        self.I = I

    def geometry_args(self):
        """The (u, v, P, N, I) prefix of a shader argument list."""
        return [self.u, self.v, self.P, self.N, self.I]


def _check_size(width, height):
    if width < 1 or height < 1:
        raise SceneError(
            "a scene needs at least 1x1 pixels, got %sx%s" % (width, height)
        )


class Scene(object):
    """A W×H grid of pixel inputs, held as read-only columns (tuples of
    per-pixel values without NumPy)."""

    def __init__(self, width, height, name, u, v, P, N, I):
        self.width = width
        self.height = height
        self.name = name
        if _np is not None:
            for column in (u, v, P, N, I):
                column.flags.writeable = False
        self.u, self.v, self.P, self.N, self.I = u, v, P, N, I
        self._pixels = None

    def columns(self):
        """The (u, v, P, N, I) columns, in shader argument order."""
        return [self.u, self.v, self.P, self.N, self.I]

    def row_columns(self):
        """The same columns as lists of per-pixel Python values: floats
        for u/v, 3-tuples for P/N/I."""
        if _np is None:
            return [list(column) for column in self.columns()]
        return [self.u.tolist(), self.v.tolist()] + [
            list(map(tuple, column.tolist()))
            for column in (self.P, self.N, self.I)
        ]

    @property
    def pixels(self):
        """Per-pixel :class:`PixelInput` objects (the scalar path),
        built on first use."""
        if self._pixels is None:
            u, v, P, N, I = self.row_columns()
            width = self.width
            self._pixels = [
                PixelInput(i % width, i // width, u[i], v[i], P[i], N[i], I[i])
                for i in range(len(u))
            ]
        return self._pixels

    def __len__(self):
        return self.width * self.height

    def __iter__(self):
        return iter(self.pixels)

    def sample(self, count):
        """A deterministic spread of ``count`` pixels across the image."""
        if count <= 0:
            return []
        pixels = self.pixels
        if count >= len(pixels):
            return list(pixels)
        step = len(pixels) / float(count)
        return [pixels[int(i * step)] for i in range(count)]


_EYE = (0.0, 0.0, -5.0)


def _grid(width, height):
    """Per-column u and per-row v values of a W×H pixel grid."""
    us = [(x + 0.5) / width for x in range(width)]
    vs = [(y + 0.5) / height for y in range(height)]
    return us, vs


def _incident(P):
    """Unit eye-to-surface vectors, ``vnormalize(vsub(P, _EYE))`` per
    row: same operand order, and a zero-length vector maps to zero."""
    d = P - _np.asarray(_EYE)
    length = _np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    zero = (length == 0.0)[:, None]
    return _np.where(zero, 0.0, d / _np.where(zero, 1.0, length[:, None]))


def sphere_scene(width=16, height=16, radius=1.5, center=(0.0, 0.0, 1.0)):
    """A sphere patch facing the camera.

    u, v parameterize the visible hemisphere; P lies on the sphere, N is
    the outward unit normal, I the unit vector from the eye to P.
    """
    _check_size(width, height)
    us, vs = _grid(width, height)
    # Visible hemisphere: latitude per row, longitude per column.
    thetas = [(v - 0.5) * math.pi * 0.8 for v in vs]
    phis = [(u - 0.5) * math.pi * 0.8 for u in us]
    name = "sphere%dx%d" % (width, height)
    if _np is None:
        N = tuple(
            (math.cos(t) * math.sin(p), math.sin(t), -math.cos(t) * math.cos(p))
            for t in thetas for p in phis
        )
        P = tuple(
            (center[0] + radius * nx, center[1] + radius * ny,
             center[2] + radius * nz)
            for nx, ny, nz in N
        )
        return Scene(
            width, height, name, tuple(us) * height,
            tuple(v for v in vs for _ in us), P, N,
            tuple(V.vnormalize(V.vsub(p, _EYE)) for p in P),
        )
    cos_t = _np.repeat([math.cos(t) for t in thetas], width)
    sin_t = _np.repeat([math.sin(t) for t in thetas], width)
    sin_p = _np.tile([math.sin(p) for p in phis], height)
    cos_p = _np.tile([math.cos(p) for p in phis], height)
    nx = cos_t * sin_p
    ny = sin_t
    nz = -cos_t * cos_p
    N = _np.stack([nx, ny, nz], axis=1)
    P = _np.stack(
        [center[0] + radius * nx, center[1] + radius * ny,
         center[2] + radius * nz],
        axis=1,
    )
    return Scene(
        width, height, name, _np.tile(_np.asarray(us), height),
        _np.repeat(_np.asarray(vs), width), P, N, _incident(P),
    )


def wall_scene(width=16, height=16, extent=2.0, depth=2.0):
    """A flat wall facing the camera (for checker/brick/ramp shaders)."""
    _check_size(width, height)
    us, vs = _grid(width, height)
    normal = (0.0, 0.0, -1.0)
    name = "wall%dx%d" % (width, height)
    if _np is None:
        P = tuple(
            ((u - 0.5) * extent, (v - 0.5) * extent, depth)
            for v in vs for u in us
        )
        return Scene(
            width, height, name, tuple(us) * height,
            tuple(v for v in vs for _ in us), P, (normal,) * len(P),
            tuple(V.vnormalize(V.vsub(p, _EYE)) for p in P),
        )
    u = _np.tile(_np.asarray(us), height)
    v = _np.repeat(_np.asarray(vs), width)
    P = _np.stack(
        [(u - 0.5) * extent, (v - 0.5) * extent, _np.full(u.shape, depth)],
        axis=1,
    )
    N = _np.tile(_np.asarray(normal), (len(u), 1))
    return Scene(width, height, name, u, v, P, N, _incident(P))


#: Which scene each shader is most naturally shown on.
SCENE_FOR_SHADER = {
    1: sphere_scene,
    2: wall_scene,
    3: sphere_scene,
    4: sphere_scene,
    5: wall_scene,
    6: sphere_scene,
    7: sphere_scene,
    8: wall_scene,
    9: wall_scene,
    10: sphere_scene,
}


def scene_for(shader_index, width=16, height=16):
    """Build the default scene for a shader at a given resolution."""
    return SCENE_FOR_SHADER[shader_index](width, height)
