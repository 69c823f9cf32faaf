"""Gradient (Perlin-style) lattice noise and fractal sums.

The paper's shaders "invoke a small mathematical library that supports
vector and matrix operations as well as noise functions"; shaders 3, 4 and
5 call "expensive fractal noise functions" whose cachability dominates
their speedups.  This module provides that substrate: a classic 3D
gradient-lattice noise (deterministic permutation table, so results are
reproducible), a signed variant, fractional Brownian motion (``fbm``) and
turbulence built on top of it.

The implementation is deliberately a faithful, scalar, allocation-light
port of the classic algorithm: it is genuinely the most expensive primitive
in the system, exactly the role it plays in the paper's workloads.

Alongside the scalar port live ``*_array`` variants used by the batch
execution backend on hosts without the native builtin library
(:mod:`repro.runtime.native`, which compiles this same algorithm to C
with the permutation table below).  They perform the identical IEEE-754 double
operations in the identical order over whole lane arrays, so their
results are bit-for-bit equal to the scalar functions (lanes whose
inputs would make the scalar path raise — non-finite coordinates or
octave counts — produce NaN, matching the batch fallback convention).
"""

from __future__ import annotations

import math

try:
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the force-off knob
    _np = None
    HAVE_NUMPY = False

# Deterministic permutation table (the classic Ken Perlin reference table),
# duplicated so that indexing with (hash + offset) never wraps.
_PERM_BASE = [
    151, 160, 137, 91, 90, 15, 131, 13, 201, 95, 96, 53, 194, 233, 7, 225,
    140, 36, 103, 30, 69, 142, 8, 99, 37, 240, 21, 10, 23, 190, 6, 148,
    247, 120, 234, 75, 0, 26, 197, 62, 94, 252, 219, 203, 117, 35, 11, 32,
    57, 177, 33, 88, 237, 149, 56, 87, 174, 20, 125, 136, 171, 168, 68, 175,
    74, 165, 71, 134, 139, 48, 27, 166, 77, 146, 158, 231, 83, 111, 229, 122,
    60, 211, 133, 230, 220, 105, 92, 41, 55, 46, 245, 40, 244, 102, 143, 54,
    65, 25, 63, 161, 1, 216, 80, 73, 209, 76, 132, 187, 208, 89, 18, 169,
    200, 196, 135, 130, 116, 188, 159, 86, 164, 100, 109, 198, 173, 186, 3, 64,
    52, 217, 226, 250, 124, 123, 5, 202, 38, 147, 118, 126, 255, 82, 85, 212,
    207, 206, 59, 227, 47, 16, 58, 17, 182, 189, 28, 42, 223, 183, 170, 213,
    119, 248, 152, 2, 44, 154, 163, 70, 221, 153, 101, 155, 167, 43, 172, 9,
    129, 22, 39, 253, 19, 98, 108, 110, 79, 113, 224, 232, 178, 185, 112, 104,
    218, 246, 97, 228, 251, 34, 242, 193, 238, 210, 144, 12, 191, 179, 162, 241,
    81, 51, 145, 235, 249, 14, 239, 107, 49, 192, 214, 31, 181, 199, 106, 157,
    184, 84, 204, 176, 115, 121, 50, 45, 127, 4, 150, 254, 138, 236, 205, 93,
    222, 114, 67, 29, 24, 72, 243, 141, 128, 195, 78, 66, 215, 61, 156, 180,
]
_PERM = _PERM_BASE + _PERM_BASE

_floor = math.floor


def _fade(t):
    """Perlin's quintic smoothing curve 6t^5 - 15t^4 + 10t^3."""
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _lerp(t, a, b):
    return a + t * (b - a)


def _grad(h, x, y, z):
    """Dot product of a pseudo-random lattice gradient with (x, y, z)."""
    h = h & 15
    u = x if h < 8 else y
    if h < 4:
        v = y
    elif h == 12 or h == 14:
        v = x
    else:
        v = z
    return (u if (h & 1) == 0 else -u) + (v if (h & 2) == 0 else -v)


def snoise3(x, y, z):
    """Signed 3D gradient noise in roughly [-1, 1]."""
    xi = int(_floor(x)) & 255
    yi = int(_floor(y)) & 255
    zi = int(_floor(z)) & 255
    x -= _floor(x)
    y -= _floor(y)
    z -= _floor(z)
    u = _fade(x)
    v = _fade(y)
    w = _fade(z)

    p = _PERM
    a = p[xi] + yi
    aa = p[a] + zi
    ab = p[a + 1] + zi
    b = p[xi + 1] + yi
    ba = p[b] + zi
    bb = p[b + 1] + zi

    return _lerp(
        w,
        _lerp(
            v,
            _lerp(u, _grad(p[aa], x, y, z), _grad(p[ba], x - 1.0, y, z)),
            _lerp(u, _grad(p[ab], x, y - 1.0, z), _grad(p[bb], x - 1.0, y - 1.0, z)),
        ),
        _lerp(
            v,
            _lerp(
                u,
                _grad(p[aa + 1], x, y, z - 1.0),
                _grad(p[ba + 1], x - 1.0, y, z - 1.0),
            ),
            _lerp(
                u,
                _grad(p[ab + 1], x, y - 1.0, z - 1.0),
                _grad(p[bb + 1], x - 1.0, y - 1.0, z - 1.0),
            ),
        ),
    )


def noise3(x, y, z):
    """Unsigned 3D gradient noise in roughly [0, 1] (RenderMan convention)."""
    return 0.5 * snoise3(x, y, z) + 0.5


def fbm3(x, y, z, octaves, lacunarity=2.0, gain=0.5):
    """Fractional Brownian motion: ``octaves`` self-similar noise bands."""
    total = 0.0
    amplitude = 1.0
    norm = 0.0
    count = max(1, int(octaves))
    for _ in range(count):
        total += amplitude * snoise3(x, y, z)
        norm += amplitude
        amplitude *= gain
        x *= lacunarity
        y *= lacunarity
        z *= lacunarity
    return total / norm


def turbulence3(x, y, z, octaves, lacunarity=2.0, gain=0.5):
    """Absolute-value fractal sum; the classic marble/cloud driver."""
    total = 0.0
    amplitude = 1.0
    norm = 0.0
    count = max(1, int(octaves))
    for _ in range(count):
        total += amplitude * abs(snoise3(x, y, z))
        norm += amplitude
        amplitude *= gain
        x *= lacunarity
        y *= lacunarity
        z *= lacunarity
    return total / norm


# ---------------------------------------------------------------------------
# Array (batch-backend) variants — bit-exact mirrors of the scalar port
# ---------------------------------------------------------------------------
#
# Every arithmetic step below is elementwise IEEE-754 double arithmetic in
# the same order as the scalar functions above; permutation-table lookups
# are exact integer gathers; branches become selects over values the
# scalar path would have computed on the taken side.  The only divergence
# is error handling: where the scalar path raises (``int(floor(inf))``,
# ``int(nan)``) and the batch fallback fills NaN, these produce NaN
# directly on the offending lanes.

_PERM_A = _np.asarray(_PERM, dtype=_np.int64) if HAVE_NUMPY else None


def _wrap256(t):
    """``int(v) & 255`` for integer-valued doubles, without leaving
    float64 (``fmod`` is exact, so this matches arbitrary-precision
    Python int wrapping even for huge magnitudes)."""
    r = _np.fmod(t, 256.0)
    return _np.where(r < 0.0, r + 256.0, r).astype(_np.int64)


def _grad_array(h, x, y, z):
    h = h & 15
    u = _np.where(h < 8, x, y)
    v = _np.where(h < 4, y, _np.where((h == 12) | (h == 14), x, z))
    return _np.where((h & 1) == 0, u, -u) + _np.where((h & 2) == 0, v, -v)


def snoise3_array(x, y, z):
    """Signed gradient noise over same-shape lane arrays.

    Bit-identical to ``snoise3`` per lane; lanes with non-finite
    coordinates yield NaN (the scalar path raises there).
    """
    x = _np.asarray(x, dtype=float)
    y = _np.asarray(y, dtype=float)
    z = _np.asarray(z, dtype=float)
    ok = _np.isfinite(x) & _np.isfinite(y) & _np.isfinite(z)
    x = _np.where(ok, x, 0.0)
    y = _np.where(ok, y, 0.0)
    z = _np.where(ok, z, 0.0)

    fx = _np.floor(x)
    fy = _np.floor(y)
    fz = _np.floor(z)
    xi = _wrap256(fx)
    yi = _wrap256(fy)
    zi = _wrap256(fz)
    # ``+ 0.0`` normalizes floor(-0.0) == -0.0 to +0.0: the scalar path
    # subtracts ``math.floor``'s *int*, so its fraction keeps the sign
    # of x (-0.0 - 0 == -0.0) where ``x - np.floor(x)`` would not.
    x = x - (fx + 0.0)
    y = y - (fy + 0.0)
    z = z - (fz + 0.0)
    u = _fade(x)
    v = _fade(y)
    w = _fade(z)

    p = _PERM_A
    a = p[xi] + yi
    aa = p[a] + zi
    ab = p[a + 1] + zi
    b = p[xi + 1] + yi
    ba = p[b] + zi
    bb = p[b + 1] + zi

    out = _lerp(
        w,
        _lerp(
            v,
            _lerp(
                u,
                _grad_array(p[aa], x, y, z),
                _grad_array(p[ba], x - 1.0, y, z),
            ),
            _lerp(
                u,
                _grad_array(p[ab], x, y - 1.0, z),
                _grad_array(p[bb], x - 1.0, y - 1.0, z),
            ),
        ),
        _lerp(
            v,
            _lerp(
                u,
                _grad_array(p[aa + 1], x, y, z - 1.0),
                _grad_array(p[ba + 1], x - 1.0, y, z - 1.0),
            ),
            _lerp(
                u,
                _grad_array(p[ab + 1], x, y - 1.0, z - 1.0),
                _grad_array(p[bb + 1], x - 1.0, y - 1.0, z - 1.0),
            ),
        ),
    )
    return _np.where(ok, out, _np.nan)


def noise3_array(x, y, z):
    """Unsigned gradient noise over lane arrays (see ``noise3``)."""
    return 0.5 * snoise3_array(x, y, z) + 0.5


def _fractal_array(x, y, z, octaves, lacunarity, gain, shape_fn):
    x = _np.asarray(x, dtype=float)
    y = _np.asarray(y, dtype=float)
    z = _np.asarray(z, dtype=float)
    octaves = _np.asarray(octaves, dtype=float)
    ok = (
        _np.isfinite(x)
        & _np.isfinite(y)
        & _np.isfinite(z)
        & _np.isfinite(octaves)
    )
    x = _np.where(ok, x, 0.0)
    y = _np.where(ok, y, 0.0)
    z = _np.where(ok, z, 0.0)
    # ``max(1, int(octaves))`` per lane: trunc-toward-zero then floor at 1.
    count = _np.maximum(1.0, _np.trunc(_np.where(ok, octaves, 1.0)))

    total = _np.zeros(x.shape)
    amplitude = _np.ones(x.shape)
    norm = _np.zeros(x.shape)
    rounds = int(count.max()) if count.size else 0
    with _np.errstate(over="ignore", invalid="ignore"):
        for i in range(rounds):
            live = i < count
            band = shape_fn(snoise3_array(x, y, z))
            total = _np.where(live, total + amplitude * band, total)
            norm = _np.where(live, norm + amplitude, norm)
            amplitude = _np.where(live, amplitude * gain, amplitude)
            x = _np.where(live, x * lacunarity, x)
            y = _np.where(live, y * lacunarity, y)
            z = _np.where(live, z * lacunarity, z)
        out = total / norm
    return _np.where(ok, out, _np.nan)


def fbm3_array(x, y, z, octaves, lacunarity=2.0, gain=0.5):
    """Fractional Brownian motion over lane arrays (see ``fbm3``)."""
    return _fractal_array(x, y, z, octaves, lacunarity, gain, lambda s: s)


def turbulence3_array(x, y, z, octaves, lacunarity=2.0, gain=0.5):
    """Absolute-value fractal sum over lane arrays (see ``turbulence3``)."""
    return _fractal_array(x, y, z, octaves, lacunarity, gain, _np.abs)
