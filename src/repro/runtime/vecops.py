"""Vectorized runtime support for the batch execution backend.

The scalar interpreter and compiler execute one pixel at a time; the
batch backend executes whole pixel *arrays* through kernels emitted by
:func:`repro.runtime.compiler.compile_batch_function`.  This module
supplies everything those kernels call at run time:

* mask algebra (``_ne0``/``_sel``/...) used to linearize control-flow
  divergence into ``where``-style selects,
* array flavors of the vec3/mat3 arithmetic helpers,
* a vectorized builtin registry mirroring :mod:`repro.runtime.builtins`.

Bit-exactness contract: every vectorized operation performs the same
IEEE-754 double operations, in the same order, as its scalar
counterpart, so batch results are bit-identical to the scalar path.
Builtins fall in three groups:

* arithmetic NumPy evaluates with the scalar path's exact double steps
  (``sqrt``, ``floor``, ``fmod``, ``dot``, the matrix helpers, ...)
  runs as NumPy array code;
* the libm transcendentals (``sin``/``cos``/``tan``/``atan``/``exp``/
  ``log``/``pow``) and the noise family (``noise``/``snoise``/``fbm``/
  ``turbulence``) run as whole-column C loops of
  :mod:`repro.runtime.native` whenever that library loads, and
  ``rotation_*``/``rotate_*`` are NumPy assembly over its ``sin``/
  ``cos``.  NumPy's own SIMD ``sin``/``pow`` round differently from
  libm, so they are never used;
* without the native library, the transcendentals and rotations run
  lane-at-a-time through the scalar implementation (``_lanewise``),
  and the noise family through the bit-exact ``*_array`` mirrors in
  :mod:`repro.shaders.noise`.

A call whose arguments are all uniform (controls) runs the scalar
builtin once and broadcasts the result.  Lanes that are masked off by
divergence may compute garbage (that is the nature of full-width
evaluation); domain errors on such lanes yield NaN instead of raising,
and the garbage is discarded by the enclosing select.
"""

from __future__ import annotations

import math

from ..lang.errors import EvalError
from ..shaders import noise as _noise_mod
from . import native as _native
from .builtins import REGISTRY

try:
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the force-off knob
    _np = None
    HAVE_NUMPY = False


class BatchCompileError(Exception):
    """A kernel cannot be compiled in vectorized mode (unsupported
    construct, impure builtin, or NumPy missing); callers fall back to
    the scalar per-row path."""


#: Builtins eligible for vectorized emission.  Impure builtins (``emit``)
#: are excluded: full-width evaluation would reorder their side effects
#: relative to the scalar per-pixel loop.
VECTORIZABLE = frozenset(
    name for name, builtin in REGISTRY.items() if builtin.pure
)


# ---------------------------------------------------------------------------
# Mask algebra and selects
# ---------------------------------------------------------------------------


def _ne0(x):
    return _np.asarray(x) != 0


def _mnot(m):
    return _np.logical_not(m)


def _mand(a, b):
    return _np.logical_and(a, b)


def _mor(a, b):
    return _np.logical_or(a, b)


def _sel(m, a, b):
    """Scalar-typed select: lanes where ``m`` take ``a``, else ``b``."""
    return _np.where(m, a, b)


def _selv(m, a, b):
    """vec3/mat3-typed select (mask broadcast across components)."""
    return _np.where(_np.asarray(m)[..., None], a, b)


def _mwhere(m, amount):
    """Cost contribution ``amount`` charged only to lanes where ``m``."""
    return _np.where(m, amount, 0)


def _land(m, r):
    """``&&`` with the left-operand mask precomputed."""
    return _np.where(_np.logical_and(m, _np.asarray(r) != 0), 1, 0)


def _lor(m, r):
    return _np.where(m, 1, _np.where(_np.asarray(r) != 0, 1, 0))


def _lnot(x):
    return _np.where(_np.asarray(x) != 0, 0, 1)


def _czero(n):
    """Fresh per-lane cost accumulator."""
    return _np.zeros(n, dtype=_np.int64)


def _full_mask(n):
    return _np.ones(n, dtype=bool)


# ---------------------------------------------------------------------------
# Scalar arithmetic over arrays
# ---------------------------------------------------------------------------


def _expand(s):
    """Broadcast a per-lane scalar against a trailing component axis."""
    return _np.asarray(s)[..., None]


def _bidiv(a, b):
    """C-style truncating integer division, elementwise.

    Lanes dividing by zero produce 0 rather than raising: full-width
    evaluation reaches lanes the scalar path would have branched around.
    """
    aa = _np.asarray(a)
    bb = _np.asarray(b)
    safe = _np.where(bb == 0, 1, bb)
    q = _np.abs(aa) // _np.abs(safe)
    q = _np.where((aa >= 0) == (bb >= 0), q, -q)
    return _np.where(bb == 0, 0, q)


def _bimod(a, b):
    """C-style remainder (sign follows the dividend), elementwise."""
    return _np.asarray(a) - _bidiv(a, b) * _np.asarray(b)


def _bvscale(a, s):
    return a * _expand(s)


def _bvdiv(a, s):
    return a / _expand(_np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# Lane-at-a-time fallback for non-vectorizable builtins
# ---------------------------------------------------------------------------


def _column_rows(column, n):
    """Per-lane Python values for one argument column.

    Columns are uniform Python scalars, ``(n,)`` scalar arrays,
    ``(n, k)`` vec3/mat3 arrays, or (in the pure-Python fallback) plain
    lists prepared by the caller.
    """
    if HAVE_NUMPY and isinstance(column, _np.ndarray):
        if column.ndim == 2:
            return [tuple(row) for row in column.tolist()]
        if column.ndim == 1:
            return column.tolist()
        column = column.item()
    if isinstance(column, list):
        return column
    return [column] * n


def _lanewise(fn, fill):
    """Wrap a scalar builtin as a batch builtin of ``(n, *columns)``.

    Runs the exact scalar implementation per lane, so its results are
    bit-identical to the scalar path (the transcendentals and rotations
    take this path on hosts without the native library).  Domain errors
    become ``fill`` (NaN) — the lane is either masked off, or the result
    is as invalid as the scalar run would have been.

    When no argument is per-lane (all uniform controls), the builtin is
    pure, so it runs once and its result — or ``fill`` — is broadcast
    to every lane.
    """

    def run(n, *args):
        if any(_per_lane(a) for a in args):
            columns = [_column_rows(a, n) for a in args]
        else:
            columns = [[_column_rows(a, 1)[0]] for a in args]
        out = []
        for row in zip(*columns):
            try:
                out.append(fn(*row))
            except (EvalError, ValueError, OverflowError, ZeroDivisionError):
                out.append(fill)
        out = _np.asarray(out, dtype=float)
        return out if len(out) == n else out.repeat(n, axis=0)

    return run


def _per_lane(column):
    """True for a per-lane column (a list, or an array with a lane axis),
    False for a uniform scalar or vector."""
    if isinstance(column, list):
        return True
    return isinstance(column, _np.ndarray) and column.ndim > 0


# ---------------------------------------------------------------------------
# Vectorized builtins (bit-exact mirrors of repro.runtime.builtins)
# ---------------------------------------------------------------------------


def _as_float(x):
    return _np.asarray(x, dtype=float)


def _stackk(n, k, comps):
    out = _np.empty((n, k), dtype=float)
    for i, comp in enumerate(comps):
        out[:, i] = comp
    return out


#: Builtins whose per-lane calls run as native C loops when the
#: library loads (the lane-at-a-time path otherwise).
_NATIVE_LIBM = ("sin", "cos", "tan", "atan", "exp", "log", "pow")

#: ``fbm``/``turbulence`` lacunarity and gain (the scalar defaults).
_FRACTAL_PARAMS = (2.0, 0.5)


def _lane_column(x, n):
    """A scalar argument as the ``(n,)`` float64 C-contiguous column the
    native loops take (uniform values broadcast)."""
    column = _np.asarray(x, dtype=_np.float64)
    if column.ndim == 0:
        return _np.full(n, column)
    return _np.ascontiguousarray(column)


def _lane_points(p, n):
    """A vec3 argument as an ``(n, 3)`` float64 C-contiguous block."""
    block = _np.ascontiguousarray(p, dtype=_np.float64)
    if block.ndim == 1:
        block = _np.repeat(block[None, :], n, axis=0)
    return block


def _native_or_lanewise(name, lanewise):
    """Per-lane calls of ``name`` as one native loop; uniform calls, and
    every call on a host without the library, through ``lanewise``."""

    def run(n, *args):
        if any(_per_lane(a) for a in args):
            loops = _native.library()
            if loops is not None:
                return loops.run(name, n, *[_lane_column(a, n) for a in args])
        return lanewise(n, *args)

    return run


def _native_sincos(n, angle, other_per_lane=False):
    """``(sin, cos, raises)`` columns of a rotation angle from the native
    loops — ``raises`` marks the ±inf lanes where the scalar builtin
    raises — or None when the call is uniform or the library is
    unavailable."""
    if not (other_per_lane or _per_lane(angle)):
        return None
    loops = _native.library()
    if loops is None:
        return None
    angle = _lane_column(angle, n)
    return (
        loops.run("sin", n, angle),
        loops.run("cos", n, angle),
        _np.isinf(angle),
    )


def _make_vec_builtins():
    ns = {}

    # Default: every pure builtin runs lane-at-a-time through the scalar
    # implementation; the overrides below keep these as the path for
    # uniform calls and for hosts without the native library.
    for name in VECTORIZABLE:
        builtin = REGISTRY[name]
        ty_name = builtin.ret_type.name
        if ty_name == "vec3":
            fill = (float("nan"),) * 3
        elif ty_name == "mat3":
            fill = (float("nan"),) * 9
        else:
            fill = float("nan")
        ns[name] = _lanewise(builtin.fn, fill)

    # Overrides: operations NumPy evaluates with the exact same IEEE
    # double steps as the scalar implementation.
    def vb_sqrt(n, x):
        return _np.sqrt(_as_float(x))

    def vb_floor(n, x):
        return _np.floor(_as_float(x))

    def vb_ceil(n, x):
        return _np.ceil(_as_float(x))

    def vb_frac(n, x):
        x = _as_float(x)
        return x - _np.floor(x)

    def vb_fabs(n, x):
        return _np.abs(_np.asarray(x))

    def vb_fmin(n, a, b):
        return _np.minimum(a, b)

    def vb_fmax(n, a, b):
        return _np.maximum(a, b)

    def vb_clamp(n, x, lo, hi):
        return _np.minimum(hi, _np.maximum(lo, x))

    def vb_mix(n, a, b, t):
        return _np.asarray(a) + (_np.asarray(b) - a) * t

    def vb_step(n, edge, x):
        return _np.where(_np.asarray(x) >= edge, 1.0, 0.0)

    def vb_smoothstep(n, lo, hi, x):
        lo = _np.asarray(lo)
        hi = _np.asarray(hi)
        x = _np.asarray(x)
        t = _np.minimum(1.0, _np.maximum(0.0, (x - lo) / (hi - lo)))
        shaped = t * t * (3.0 - 2.0 * t)
        return _np.where(hi == lo, _np.where(x < lo, 0.0, 1.0), shaped)

    def vb_vec3(n, x, y, z):
        return _stackk(n, 3, (x, y, z))

    def vb_dot(n, a, b):
        return (
            a[..., 0] * b[..., 0]
            + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2]
        )

    def vb_cross(n, a, b):
        return _stackk(
            n,
            3,
            (
                a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
            ),
        )

    def vb_length(n, a):
        return _np.sqrt(
            a[..., 0] * a[..., 0]
            + a[..., 1] * a[..., 1]
            + a[..., 2] * a[..., 2]
        )

    def vb_normalize(n, a):
        ln = vb_length(n, a)
        zero = ln == 0.0
        out = a / _np.where(zero, 1.0, ln)[..., None]
        return _np.where(zero[..., None], 0.0, out)

    def vb_reflect(n, i, nrm):
        k = 2.0 * vb_dot(n, i, nrm)
        return i - k[..., None] * nrm

    def vb_faceforward(n, nrm, i):
        flips = vb_dot(n, nrm, i) > 0.0
        return _np.where(flips[..., None], -nrm, nrm)

    def vb_vmix(n, a, b, t):
        s = 1.0 - _np.asarray(t)
        return _expand(s) * a + _expand(t) * b

    def vb_vmul(n, a, b):
        return a * b

    def vb_clampcolor(n, a):
        return _np.minimum(1.0, _np.maximum(0.0, a))

    def vb_mat3(n, *comps):
        return _stackk(n, 9, comps)

    def vb_mat_identity(n):
        out = _np.zeros((n, 9), dtype=float)
        out[:, 0] = out[:, 4] = out[:, 8] = 1.0
        return out

    def vb_mat_rows(n, r0, r1, r2):
        return _stackk(
            n,
            9,
            (
                r0[..., 0], r0[..., 1], r0[..., 2],
                r1[..., 0], r1[..., 1], r1[..., 2],
                r2[..., 0], r2[..., 1], r2[..., 2],
            ),
        )

    def vb_mat_vec(n, m, v):
        return _stackk(
            n,
            3,
            (
                m[..., 0] * v[..., 0] + m[..., 1] * v[..., 1] + m[..., 2] * v[..., 2],
                m[..., 3] * v[..., 0] + m[..., 4] * v[..., 1] + m[..., 5] * v[..., 2],
                m[..., 6] * v[..., 0] + m[..., 7] * v[..., 1] + m[..., 8] * v[..., 2],
            ),
        )

    def vb_mat_mul(n, a, b):
        return _stackk(
            n,
            9,
            (
                a[..., 0] * b[..., 0] + a[..., 1] * b[..., 3] + a[..., 2] * b[..., 6],
                a[..., 0] * b[..., 1] + a[..., 1] * b[..., 4] + a[..., 2] * b[..., 7],
                a[..., 0] * b[..., 2] + a[..., 1] * b[..., 5] + a[..., 2] * b[..., 8],
                a[..., 3] * b[..., 0] + a[..., 4] * b[..., 3] + a[..., 5] * b[..., 6],
                a[..., 3] * b[..., 1] + a[..., 4] * b[..., 4] + a[..., 5] * b[..., 7],
                a[..., 3] * b[..., 2] + a[..., 4] * b[..., 5] + a[..., 5] * b[..., 8],
                a[..., 6] * b[..., 0] + a[..., 7] * b[..., 3] + a[..., 8] * b[..., 6],
                a[..., 6] * b[..., 1] + a[..., 7] * b[..., 4] + a[..., 8] * b[..., 7],
                a[..., 6] * b[..., 2] + a[..., 7] * b[..., 5] + a[..., 8] * b[..., 8],
            ),
        )

    def vb_mat_transpose(n, m):
        return m[..., (0, 3, 6, 1, 4, 7, 2, 5, 8)]

    def vb_mat_det(n, m):
        return (
            m[..., 0] * (m[..., 4] * m[..., 8] - m[..., 5] * m[..., 7])
            - m[..., 1] * (m[..., 3] * m[..., 8] - m[..., 5] * m[..., 6])
            + m[..., 2] * (m[..., 3] * m[..., 7] - m[..., 4] * m[..., 6])
        )

    def vb_mat_scale(n, m, s):
        return m * _expand(s)

    def _vec3_cols(p, n):
        """Component columns of a vec3 argument: ``(n, 3)`` array from
        the kernel, or a uniform tuple broadcast to full width."""
        if isinstance(p, _np.ndarray) and p.ndim == 2:
            return p[:, 0], p[:, 1], p[:, 2]
        px, py, pz = p
        return (
            _np.full(n, float(px)),
            _np.full(n, float(py)),
            _np.full(n, float(pz)),
        )

    def _scalar_col(s, n):
        if isinstance(s, _np.ndarray) and s.ndim:
            return s
        return _np.full(n, float(s))

    def _noise_builtin(name, mirror):
        def run(n, p):
            loops = _native.library()
            if loops is not None:
                return loops.run(name, n, _lane_points(p, n))
            return mirror(*_vec3_cols(p, n))

        return run

    def _fractal_builtin(name, mirror):
        def run(n, p, octaves):
            loops = _native.library()
            if loops is not None:
                return loops.run(
                    name, n, _lane_points(p, n), _lane_column(octaves, n),
                    params=_FRACTAL_PARAMS,
                )
            return mirror(*_vec3_cols(p, n), _scalar_col(octaves, n))

        return run

    lanewise_fmod = ns["fmod"]

    def vb_fmod(n, a, b):
        if not (_per_lane(a) or _per_lane(b)):
            return lanewise_fmod(n, a, b)
        a = _as_float(a)
        b = _as_float(b)
        with _np.errstate(invalid="ignore", divide="ignore"):
            r = _np.fmod(a, b)
        raises = (b == 0.0) | (_np.isnan(r) & ~_np.isnan(a) & ~_np.isnan(b))
        return _np.where(raises, _np.nan, r)

    def _rotation_builtin(axis):
        fallback = ns["rotation_" + axis]
        # Row-major slots of cos, cos, sin, -sin and 1.0 in the matrix.
        c1, c2, sin_slot, neg_sin_slot, one_slot = {
            "x": (4, 8, 7, 5, 0),
            "y": (0, 8, 2, 6, 4),
            "z": (0, 4, 3, 1, 8),
        }[axis]

        def run(n, angle):
            sincos = _native_sincos(n, angle)
            if sincos is None:
                return fallback(n, angle)
            s, c, raises = sincos
            out = _np.zeros((n, 9))
            out[:, c1] = c
            out[:, c2] = c
            out[:, sin_slot] = s
            out[:, neg_sin_slot] = -s
            out[:, one_slot] = 1.0
            out[raises] = _np.nan
            return out

        return run

    def _rotate_builtin(axis):
        fallback = ns["rotate_" + axis]

        def run(n, v, angle):
            sincos = _native_sincos(n, angle, _per_lane(v))
            if sincos is None:
                return fallback(n, v, angle)
            s, c, raises = sincos
            x, y, z = _vec3_cols(v, n)
            with _np.errstate(invalid="ignore", over="ignore"):
                if axis == "x":
                    comps = (x, c * y - s * z, s * y + c * z)
                elif axis == "y":
                    comps = (c * x + s * z, y, -s * x + c * z)
                else:
                    comps = (c * x - s * y, s * x + c * y, z)
            out = _stackk(n, 3, comps)
            out[raises] = _np.nan
            # Which NaN a product of two NaNs keeps depends on operand
            # order, and NumPy's SIMD body and remainder loop order them
            # differently: redo NaN lanes with the scalar builtin.
            redo = _np.isnan(out).any(axis=1) & ~raises
            if redo.any():
                lanes = _np.flatnonzero(redo)
                rows = _np.asarray(v)[lanes] if _per_lane(v) else v
                out[lanes] = fallback(
                    len(lanes), rows, _lane_column(angle, n)[lanes])
            return out

        return run

    overrides = {
        "sqrt": vb_sqrt,
        "floor": vb_floor,
        "ceil": vb_ceil,
        "frac": vb_frac,
        "fabs": vb_fabs,
        "fmin": vb_fmin,
        "fmax": vb_fmax,
        "clamp": vb_clamp,
        "mix": vb_mix,
        "step": vb_step,
        "smoothstep": vb_smoothstep,
        "vec3": vb_vec3,
        "dot": vb_dot,
        "cross": vb_cross,
        "length": vb_length,
        "normalize": vb_normalize,
        "reflect": vb_reflect,
        "faceforward": vb_faceforward,
        "vmix": vb_vmix,
        "vmul": vb_vmul,
        "clampcolor": vb_clampcolor,
        "mat3": vb_mat3,
        "mat_identity": vb_mat_identity,
        "mat_rows": vb_mat_rows,
        "mat_vec": vb_mat_vec,
        "mat_mul": vb_mat_mul,
        "mat_transpose": vb_mat_transpose,
        "mat_det": vb_mat_det,
        "mat_scale": vb_mat_scale,
        "noise": _noise_builtin("noise", _noise_mod.noise3_array),
        "snoise": _noise_builtin("snoise", _noise_mod.snoise3_array),
        "fbm": _fractal_builtin("fbm", _noise_mod.fbm3_array),
        "turbulence": _fractal_builtin(
            "turbulence", _noise_mod.turbulence3_array
        ),
        "fmod": vb_fmod,
    }
    for name in _NATIVE_LIBM:
        overrides[name] = _native_or_lanewise(name, ns[name])
    for axis in "xyz":
        overrides["rotation_" + axis] = _rotation_builtin(axis)
        overrides["rotate_" + axis] = _rotate_builtin(axis)
    ns.update(overrides)
    return ns


VEC_BUILTINS = _make_vec_builtins() if HAVE_NUMPY else {}


def batch_namespace():
    """Execution namespace for batch kernels emitted by the compiler."""
    if not HAVE_NUMPY:
        raise BatchCompileError("NumPy is unavailable")
    ns = {
        "_np": _np,
        "_ne0": _ne0,
        "_mnot": _mnot,
        "_mand": _mand,
        "_mor": _mor,
        "_sel": _sel,
        "_selv": _selv,
        "_mwhere": _mwhere,
        "_land": _land,
        "_lor": _lor,
        "_lnot": _lnot,
        "_czero": _czero,
        "_full_mask": _full_mask,
        "_bidiv": _bidiv,
        "_bimod": _bimod,
        "_bvscale": _bvscale,
        "_bvdiv": _bvdiv,
        "_expand": _expand,
        "EvalError": EvalError,
        "math": math,
    }
    for name, fn in VEC_BUILTINS.items():
        ns["_vb_" + name] = fn
    return ns
