"""Bit-exactness of the vectorized noise family.

The batch backend's noise builtins (``snoise``/``noise``/``fbm``/
``turbulence``) are real array implementations, not lane-at-a-time
wrappers: the native C loops (:mod:`repro.runtime.native`) where that
library loads, the NumPy ``*_array`` mirrors elsewhere.  Their contract
is that every lane equals the scalar port's result **bit for bit** —
same IEEE-754 double operations in the same order.  These tests sweep
that contract with hypothesis over both implementations, pin the
domain edges (sign zeros, the 256 wrap seam, 2^52, 1e300), check the
nonfinite-input convention (NaN lanes, matching the batch fallback's
exception fill), and keep the no-NumPy fallback path honest.
"""

import math
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runtime import native
from repro.shaders import noise
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not noise.HAVE_NUMPY, reason="NumPy unavailable"
)

#: Lattice/domain edges: signed zeros, the cell seam, the permutation
#: wrap at 256, integers too large for an exact float fraction, and
#: magnitudes that overflow naive int conversion strategies.
EDGES = [
    0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5,
    255.0, 255.5, 256.0, -256.0, 257.0, -257.0,
    4095.875, -4095.875, 2.0 ** 52, -(2.0 ** 52),
    1e15, -1e15, 1e-300, 1e300, -1e300,
]

coord = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
octave_count = st.floats(
    min_value=-3.0, max_value=9.0, allow_nan=False, allow_infinity=False
)


def _exact(scalar_value, array_value):
    """Bitwise comparison that treats -0.0 and 0.0 as distinct."""
    return math.copysign(1.0, scalar_value) == math.copysign(
        1.0, array_value
    ) and (
        scalar_value == array_value
        or (math.isnan(scalar_value) and math.isnan(array_value))
    )


def _native_impl(loops):
    """The native loops behind the ``*_array`` mirrors' signatures."""
    np = noise._np

    def block(x, y, z):
        return np.ascontiguousarray(np.stack([x, y, z], axis=1),
                                    dtype=np.float64)

    def lattice(name):
        return lambda x, y, z: loops.run(name, len(x), block(x, y, z))

    def fractal(name):
        def run(x, y, z, octaves, lacunarity=2.0, gain=0.5):
            octs = np.ascontiguousarray(
                np.broadcast_to(np.asarray(octaves, dtype=float), len(x)))
            return loops.run(name, len(x), block(x, y, z), octs,
                             params=(lacunarity, gain))

        return run

    return SimpleNamespace(
        snoise3_array=lattice("snoise"), noise3_array=lattice("noise"),
        fbm3_array=fractal("fbm"), turbulence3_array=fractal("turbulence"),
    )


def _impls():
    """The array implementations under test: the NumPy mirrors, and the
    native loops where the library loads."""
    loops = native.library()
    return [noise] + ([_native_impl(loops)] if loops is not None else [])


def _columns(points):
    np = noise._np
    xs = np.asarray([p[0] for p in points], dtype=float)
    ys = np.asarray([p[1] for p in points], dtype=float)
    zs = np.asarray([p[2] for p in points], dtype=float)
    return xs, ys, zs


def _assert_lanes_exact(scalar_fn, array_column, points, *extra):
    for lane, p in enumerate(points):
        expect = scalar_fn(p[0], p[1], p[2], *extra)
        got = float(array_column[lane])
        assert _exact(expect, got), (
            "lane %d %r: scalar %r != array %r"
            % (lane, p, expect, got)
        )


@requires_numpy
@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(coord, coord, coord),
                       min_size=1, max_size=32))
def test_snoise_and_noise_bit_exact(points):
    xs, ys, zs = _columns(points)
    for impl in _impls():
        _assert_lanes_exact(noise.snoise3, impl.snoise3_array(xs, ys, zs),
                            points)
        _assert_lanes_exact(noise.noise3, impl.noise3_array(xs, ys, zs),
                            points)


@requires_numpy
@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(coord, coord, coord),
                    min_size=1, max_size=16),
    octaves=octave_count,
    lacunarity=st.floats(min_value=1.1, max_value=3.0),
    gain=st.floats(min_value=0.1, max_value=0.9),
)
def test_fractal_noise_bit_exact(points, octaves, lacunarity, gain):
    xs, ys, zs = _columns(points)
    for impl in _impls():
        for scalar_fn, array_fn in (
            (noise.fbm3, impl.fbm3_array),
            (noise.turbulence3, impl.turbulence3_array),
        ):
            column = array_fn(xs, ys, zs, octaves, lacunarity, gain)
            _assert_lanes_exact(scalar_fn, column, points,
                                octaves, lacunarity, gain)


@requires_numpy
@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.tuples(coord, coord, coord),
                    min_size=2, max_size=16),
    octaves=st.lists(octave_count, min_size=2, max_size=16),
)
def test_per_lane_octave_counts(points, octaves):
    """``octaves`` may itself vary per lane (it is a shader control
    threaded through the cache): each lane must run exactly its own
    truncated count, not the batch maximum."""
    lanes = min(len(points), len(octaves))
    points, octaves = points[:lanes], octaves[:lanes]
    np = noise._np
    xs, ys, zs = _columns(points)
    for impl in _impls():
        column = impl.fbm3_array(
            xs, ys, zs, np.asarray(octaves, dtype=float)
        )
        for lane, p in enumerate(points):
            expect = noise.fbm3(p[0], p[1], p[2], octaves[lane])
            assert _exact(expect, float(column[lane]))


@requires_numpy
def test_domain_edges_bit_exact():
    points = [
        (x, y, z)
        for x in EDGES
        for (y, z) in zip(EDGES[3:] + EDGES[:3], EDGES[7:] + EDGES[:7])
    ]
    xs, ys, zs = _columns(points)
    for impl in _impls():
        _assert_lanes_exact(noise.snoise3, impl.snoise3_array(xs, ys, zs),
                            points)
        for octaves in (1.0, 3.0, 4.7):
            _assert_lanes_exact(
                noise.turbulence3,
                impl.turbulence3_array(xs, ys, zs, octaves),
                points, octaves,
            )


@requires_numpy
def test_nonfinite_lanes_fill_nan_without_contamination():
    """inf/NaN coordinates produce NaN on exactly those lanes — the
    same convention as the batch fallback's exception fill — and leave
    neighboring finite lanes bit-exact."""
    np = noise._np
    inf, nan = float("inf"), float("nan")
    points = [
        (0.25, 0.5, 0.75), (inf, 0.0, 0.0), (1.5, 2.5, 3.5),
        (0.0, -inf, 1.0), (nan, 1.0, 2.0), (-2.25, 0.125, 9.0),
    ]
    xs, ys, zs = _columns(points)
    for impl in _impls():
        for column in (
            impl.snoise3_array(xs, ys, zs),
            impl.noise3_array(xs, ys, zs),
            impl.fbm3_array(xs, ys, zs, 3.0),
            impl.turbulence3_array(xs, ys, zs, 2.0),
        ):
            assert np.isnan(column[[1, 3, 4]]).all()
            for lane in (0, 2, 5):
                assert not math.isnan(float(column[lane]))
        p = points[0]
        assert _exact(noise.snoise3(*p),
                      float(impl.snoise3_array(xs, ys, zs)[0]))


@requires_numpy
def test_coordinates_overflowing_mid_octave_fill_nan():
    """Finite coordinates that double to inf before the last octave make
    the scalar fractal raise, so those lanes are NaN; one octave less
    and the same lane is finite and exact."""
    points = [(1e308, 0.5, 0.5), (0.5, -1.5e308, 2.0), (0.1, 0.2, 0.3)]
    xs, ys, zs = _columns(points)
    for impl in _impls():
        for scalar_fn, array_fn in (
            (noise.fbm3, impl.fbm3_array),
            (noise.turbulence3, impl.turbulence3_array),
        ):
            column = array_fn(xs, ys, zs, 2.0)
            assert [math.isnan(float(v)) for v in column] == [
                True, True, False]
            _assert_lanes_exact(scalar_fn, array_fn(xs, ys, zs, 1.0),
                                points, 1.0)


@requires_numpy
def test_vec_builtin_overrides_bit_exact(monkeypatch):
    """Through the compiler's builtin namespace: vec3 columns arrive as
    (n, 3) arrays or uniform tuples, octave counts as arrays or
    uniform scalars — every combination must stay bit-exact, on the
    NumPy mirrors and (where the library loads) the native loops."""
    from repro.runtime.vecops import VEC_BUILTINS

    np = noise._np
    pts = [
        (0.1 * i - 1.3, 0.37 * i, 251.0 + 0.5 * i) for i in range(24)
    ]
    arr = np.asarray(pts, dtype=float)
    uniform = (1.25, -2.5, 255.75)
    octs = np.asarray([1.0 + (i % 5) for i in range(24)], dtype=float)

    tiers = [native.NativeBuiltins.disabled()]
    if native.library() is not None:
        tiers.append(native.TIER)
    for tier in tiers:
        monkeypatch.setattr(native, "TIER", tier)
        for name, scalar_fn in (
            ("noise", noise.noise3), ("snoise", noise.snoise3),
        ):
            column = VEC_BUILTINS[name](len(pts), arr)
            _assert_lanes_exact(scalar_fn, column, pts)
            flat = VEC_BUILTINS[name](4, uniform)
            assert all(
                _exact(scalar_fn(*uniform), float(v)) for v in flat
            )

        for name, scalar_fn in (
            ("fbm", noise.fbm3), ("turbulence", noise.turbulence3),
        ):
            column = VEC_BUILTINS[name](len(pts), arr, octs)
            for lane, p in enumerate(pts):
                assert _exact(
                    scalar_fn(p[0], p[1], p[2], float(octs[lane])),
                    float(column[lane]),
                )
            flat = VEC_BUILTINS[name](4, uniform, 3.0)
            assert all(
                _exact(scalar_fn(*uniform, 3.0), float(v)) for v in flat
            )


@pytest.mark.parametrize("index", [3, 5])
def test_noise_shader_fallback_parity(index, monkeypatch):
    """With NumPy forced off the batch backend degrades to the per-row
    fallback for the noise shaders too — still bit-identical."""
    from repro.runtime import batch as batch_mod
    from repro.runtime import compiler as compiler_mod
    from repro.runtime import vecops as vecops_mod
    from repro.shaders.render import RenderSession

    monkeypatch.setattr(vecops_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(compiler_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    param = SHADERS[index].control_params[0]
    scalar = RenderSession(index, width=3, height=3, backend="scalar")
    batched = RenderSession(index, width=3, height=3, backend="batch")
    scalar_edit = scalar.begin_edit(param)
    batch_edit = batched.begin_edit(param)
    a = scalar_edit.load(scalar.controls)
    b = batch_edit.load(batched.controls)
    assert a.colors == b.colors and a.total_cost == b.total_cost
    assert not batch_edit.specialization.batch_reader.vectorized
    dragged = scalar.controls_with(**{param: scalar.controls[param] * 1.4})
    a = scalar_edit.adjust(dragged)
    b = batch_edit.adjust(dragged)
    assert a.colors == b.colors and a.total_cost == b.total_cost


@requires_numpy
def test_noise_shader_kernels_vectorize():
    """The point of the family: with NumPy present, no noise shader may
    silently drop to the lane-at-a-time fallback anymore."""
    from repro.shaders.render import RenderSession

    for index in (3, 4, 5, 10):
        session = RenderSession(index, width=2, height=2, backend="batch")
        param = SHADERS[index].control_params[0]
        spec = session.specialize(param)
        assert spec.batch_loader.vectorized, spec.batch_loader.fallback_reason
        assert spec.batch_reader.vectorized, spec.batch_reader.fallback_reason
