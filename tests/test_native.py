"""The native builtin tier (:mod:`repro.runtime.native`).

* Every native loop, and every batch builtin routed through it, equals
  its scalar ``REGISTRY`` function bit for bit — NaN sign and payload
  included — over signed zeros, infinities, NaNs, magnitudes of 2^63
  and more, fractal lanes whose coordinates overflow mid-octave, and
  octave counts that are <= 0 or NaN.
* Every build/load failure falls back with a typed reason to frames
  byte-identical to the forced-NumPy path, and leaves no temp file.
* On a host with gcc, the kernels of ``drag``'s shaders really take
  the native path (a silent fallback would lose the speedup unseen).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runtime import native
from repro.runtime.builtins import REGISTRY
from repro.shaders.render import RenderSession

np = pytest.importorskip("numpy")

from repro.runtime.vecops import VEC_BUILTINS  # noqa: E402

HAVE_GCC = shutil.which("gcc") is not None
requires_gcc = pytest.mark.skipif(
    not HAVE_GCC, reason="no gcc on PATH: the native tier cannot build"
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


CANONICAL_NAN_BITS = 0x7FF8000000000000

NANS = [
    _from_bits(CANONICAL_NAN_BITS),
    _from_bits(0xFFF8000000000000),
    _from_bits(0x7FF8000000000123),
    _from_bits(0xFFF80000DEADBEEF),
]

EDGES = [
    0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.5, math.pi, -math.pi,
    255.5, 256.0, -256.0, 2.0 ** 52, -(2.0 ** 52), 2.0 ** 53,
    2.0 ** 63, -(2.0 ** 63), 2.0 ** 64, 3.0e19, 1e300, -1e300, 1e308,
    -1e308, sys.float_info.max, 5e-324, -5e-324, 2.2250738585072014e-308,
    709.78, 710.0, -745.2, -746.0, float("inf"), float("-inf"),
] + NANS

any_float = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e3, max_value=1e3),
)
columns = st.lists(any_float, min_size=1, max_size=24)
coords = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(allow_nan=True, allow_infinity=True),
)
points = st.lists(st.tuples(coords, coords, coords), min_size=1,
                  max_size=16)
octaves = st.one_of(
    st.sampled_from([-3.0, -0.0, 0.0, 0.5, 1.0, 2.9, 5.0, 8.0,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(min_value=-4.0, max_value=12.0),
)


def _scalar(name, *args):
    """The scalar builtin's value as a tuple, or the lane-at-a-time
    fill (canonical NaNs) where it raises."""
    builtin = REGISTRY[name]
    try:
        value = builtin.fn(*args)
    except Exception:
        width = {"vec3": 3, "mat3": 9}.get(builtin.ret_type.name, 1)
        return (float("nan"),) * width
    return value if isinstance(value, tuple) else (value,)


def _expected(name, *lanes):
    return _bits([_scalar(name, *row) for row in zip(*lanes)])


def _got(column, n):
    return _bits(np.asarray(column).reshape(n, -1))


@pytest.fixture(scope="module")
def loops():
    lib = native.library()
    if lib is None:
        pytest.skip("native builtins unavailable: %s"
                    % native.status()["reason"])
    return lib


# -- bit-exactness -----------------------------------------------------------


@pytest.mark.parametrize("name", ["sin", "cos", "tan", "exp", "log"])
@settings(max_examples=120, deadline=None)
@given(xs=columns)
def test_unary_loops_match_scalar(loops, name, xs):
    n = len(xs)
    column = np.asarray(xs, dtype=float)
    want = _expected(name, xs)
    assert _got(loops.run(name, n, column), n) == want
    assert _got(VEC_BUILTINS[name](n, column), n) == want


pairs = st.lists(st.tuples(any_float, any_float), min_size=1, max_size=24)


def _check_binary(name, pairs):
    n = len(pairs)
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    want = _expected(name, a, b)
    ca, cb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert _got(VEC_BUILTINS[name](n, ca, cb), n) == want
    # One side uniform (a control), the other per lane.
    assert _got(VEC_BUILTINS[name](n, a[0], cb), n) == _expected(
        name, [a[0]] * n, b)
    return n, ca, cb, want


@pytest.mark.parametrize("name", ["atan", "pow"])
@settings(max_examples=150, deadline=None)
@given(pairs=pairs)
def test_binary_loops_match_scalar(loops, name, pairs):
    n, ca, cb, want = _check_binary(name, pairs)
    assert _got(loops.run(name, n, ca, cb), n) == want


@settings(max_examples=150, deadline=None)
@given(pairs=pairs)
def test_fmod_matches_scalar(pairs):
    """``fmod`` is NumPy's exact remainder on every host, with the
    canonical NaN where the scalar builtin raises."""
    _check_binary("fmod", pairs)


@pytest.mark.parametrize("name", ["snoise", "noise"])
@settings(max_examples=120, deadline=None)
@given(ps=points)
def test_noise_loops_match_scalar(loops, name, ps):
    n = len(ps)
    block = np.asarray(ps, dtype=float).reshape(n, 3)
    want = _expected(name, ps)
    assert _got(loops.run(name, n, block), n) == want
    assert _got(VEC_BUILTINS[name](n, block), n) == want


@pytest.mark.parametrize("name", ["fbm", "turbulence"])
@settings(max_examples=120, deadline=None)
@given(ps=points, octs=st.lists(octaves, min_size=16, max_size=16))
def test_fractal_loops_match_scalar(loops, name, ps, octs):
    n = len(ps)
    block = np.asarray(ps, dtype=float).reshape(n, 3)
    octs = octs[:n]
    want = _expected(name, ps, octs)
    column = np.asarray(octs, dtype=float)
    assert _got(VEC_BUILTINS[name](n, block, column), n) == want
    assert _got(VEC_BUILTINS[name](n, block, octs[0]), n) == _expected(
        name, ps, [octs[0]] * n)


def test_fractal_overflow_mid_octave_is_nan_not_an_index(loops):
    """1e308 doubles to inf at the second octave: the scalar path
    raises there, so the lane is NaN — never a wild table index."""
    ps = [(1e308, 0.5, 0.5), (0.25, -1.7e308, 3.0), (0.5, 0.5, 9e307),
          (1e308, 0.5, 0.5), (0.1, 0.2, 0.3)]
    octs = [3.0, 2.0, 40.0, 1.0, 5.0]
    block = np.asarray(ps, dtype=float)
    for name in ("fbm", "turbulence"):
        got = _got(loops.run(name, 5, block, np.asarray(octs),
                             params=(2.0, 0.5)), 5)
        assert got == _expected(name, ps, octs)
        assert [g[0] == CANONICAL_NAN_BITS for g in got] == [
            True, True, True, False, False]


@pytest.mark.parametrize("axis", "xyz")
@settings(max_examples=80, deadline=None)
@given(angles=columns, vs=points)
def test_rotations_match_scalar(loops, axis, angles, vs):
    n = min(len(angles), len(vs))
    angles, vs = angles[:n], vs[:n]
    column = np.asarray(angles, dtype=float)
    block = np.asarray(vs, dtype=float).reshape(n, 3)
    name = "rotation_" + axis
    assert _got(VEC_BUILTINS[name](n, column), n) == _expected(name, angles)
    name = "rotate_" + axis
    assert _got(VEC_BUILTINS[name](n, block, column), n) == _expected(
        name, vs, angles)
    # Uniform angle with per-lane vectors, and the reverse.
    assert _got(VEC_BUILTINS[name](n, block, angles[0]), n) == _expected(
        name, vs, [angles[0]] * n)
    assert _got(VEC_BUILTINS[name](n, vs[0], column), n) == _expected(
        name, [vs[0]] * n, angles)


def test_loops_check_their_arrays(loops):
    good = np.arange(4.0)
    with pytest.raises(ValueError):
        loops.run("sin", 4, np.arange(8.0)[::2])  # not contiguous
    with pytest.raises(ValueError):
        loops.run("sin", 4, np.arange(4))  # int64
    with pytest.raises(ValueError):
        loops.run("sin", 5, good)  # wrong length
    with pytest.raises(ValueError):
        loops.run("snoise", 4, good)  # not (n, 3)
    with pytest.raises(ValueError):
        loops.run("fbm", 4, np.zeros((4, 3)), good)  # missing params
    assert _got(loops.run("sin", 4, good), 4) == _expected("sin", good)


# -- fallback paths ----------------------------------------------------------


def _drag_frames():
    """Load + adjust of a noise shader and a sin/cos/rotation shader:
    colour bytes and exact costs."""
    frames = []
    for index in (3, 7):
        session = RenderSession(index, width=6, height=5, backend="batch")
        param = session.spec_info.control_params[0]
        edit = session.begin_edit(param)
        dragged = session.controls_with(
            **{param: session.controls[param] * 1.3}
        )
        for image in (edit.load(session.controls), edit.adjust(dragged)):
            frames.append(
                (np.asarray(image.colors).tobytes(), image.total_cost)
            )
    return frames


def _digest(frames):
    h = hashlib.sha256()
    for colors, cost in frames:
        h.update(colors)
        h.update(str(cost).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def reference_frames():
    saved = native.TIER
    native.TIER = native.NativeBuiltins.disabled("reference")
    try:
        return _drag_frames()
    finally:
        native.TIER = saved


def _run_tier(tier, monkeypatch):
    monkeypatch.setattr(native, "TIER", tier)
    loops = tier.library()
    return loops, _drag_frames(), tier.status()


def _leftovers(*directories):
    names = []
    for directory in directories:
        if os.path.isdir(directory):
            names += [n for n in os.listdir(directory)
                      if not (n.startswith("builtins-") and n.endswith(".so"))]
    return names


def test_no_compiler_falls_back(reference_frames, monkeypatch, tmp_path):
    tier = native.NativeBuiltins(compiler="repro-no-such-cc",
                                 cache_dirs=[str(tmp_path)])
    loops, frames, status = _run_tier(tier, monkeypatch)
    assert loops is None and status["reason"] == "no_compiler"
    assert frames == reference_frames
    assert os.listdir(str(tmp_path)) == []
    # The outcome is final: no retry on later calls.
    assert tier.library() is None and tier.status() == status


@requires_gcc
def test_compile_error_falls_back(reference_frames, monkeypatch, tmp_path):
    tier = native.NativeBuiltins(
        cache_dirs=[str(tmp_path)],
        source=native.SOURCE + "\n#error deliberately broken\n",
    )
    loops, frames, status = _run_tier(tier, monkeypatch)
    assert loops is None and status["reason"] == "compile_error"
    assert "deliberately broken" in status["detail"]
    assert frames == reference_frames
    assert os.listdir(str(tmp_path)) == []


@requires_gcc
def test_compiler_timeout_falls_back(reference_frames, monkeypatch,
                                     tmp_path):
    tier = native.NativeBuiltins(cache_dirs=[str(tmp_path)],
                                 timeout_s=1e-4)
    loops, frames, status = _run_tier(tier, monkeypatch)
    assert loops is None and status["reason"] == "timeout"
    assert frames == reference_frames
    assert os.listdir(str(tmp_path)) == []


@requires_gcc
def test_unwritable_cache_dirs_fall_back(reference_frames, monkeypatch,
                                         tmp_path):
    """A regular file where the cache directories should be (works as
    root too, unlike permission bits)."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(blocker))
    assert native.default_cache_dirs() == [
        str(blocker / "xdg" / "repro"),
        str(blocker / ("repro-%d" % os.getuid())),
    ]
    loops, frames, status = _run_tier(native.NativeBuiltins(), monkeypatch)
    assert loops is None and status["reason"] == "cache_unwritable"
    assert frames == reference_frames
    assert os.listdir(str(tmp_path)) == ["blocker"]


@requires_gcc
def test_unwritable_xdg_dir_uses_the_temp_dir(reference_frames, monkeypatch,
                                              tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    loops, frames, status = _run_tier(native.NativeBuiltins(), monkeypatch)
    assert loops is not None, status
    private = tmp_path / "tmp" / ("repro-%d" % os.getuid())
    assert status["path"] == str(private / ("builtins-%s.so" % status["key"]))
    assert os.stat(str(private)).st_mode & 0o077 == 0
    assert frames == reference_frames
    assert _leftovers(str(private)) == []


@requires_gcc
def test_truncated_cached_library_is_rebuilt(reference_frames, monkeypatch,
                                             tmp_path):
    good = native.NativeBuiltins(cache_dirs=[str(tmp_path / "good")])
    assert good.library() is not None, good.status()
    damaged = tmp_path / "damaged"
    damaged.mkdir(mode=0o700)
    path = damaged / os.path.basename(good.path)
    with open(good.path, "rb") as handle:
        path.write_bytes(handle.read(200))
    loops, frames, status = _run_tier(
        native.NativeBuiltins(cache_dirs=[str(damaged)]), monkeypatch
    )
    assert loops is not None and status["state"] == "loaded"
    assert status["rebuilt"].startswith("load_error")
    assert status["key"] == good.key
    assert path.stat().st_size == os.path.getsize(good.path)
    assert frames == reference_frames
    assert _leftovers(str(damaged)) == []


@requires_gcc
def test_dlopen_error_falls_back(reference_frames, monkeypatch, tmp_path):
    def refuse(path):
        raise OSError("%s: cannot open shared object file" % path)

    monkeypatch.setattr(native.ctypes, "CDLL", refuse)
    tier = native.NativeBuiltins(cache_dirs=[str(tmp_path)])
    loops, frames, status = _run_tier(tier, monkeypatch)
    assert loops is None and status["reason"] == "load_error"
    assert frames == reference_frames
    assert _leftovers(str(tmp_path)) == []


_CHILD = r"""
import json, sys
sys.path[:0] = [%(src)r, %(root)r]
from repro.runtime import native
from tests.test_native import _digest, _drag_frames
native.TIER = native.NativeBuiltins(cache_dirs=[%(cache)r])
native.TIER.library()
print(json.dumps({"status": native.status(), "digest": _digest(_drag_frames())}))
"""


@requires_gcc
def test_two_processes_building_at_once(reference_frames, tmp_path):
    cache = str(tmp_path / "cache")
    code = _CHILD % {"src": os.path.join(ROOT, "src"), "root": ROOT,
                     "cache": cache}
    children = [
        subprocess.Popen([sys.executable, "-c", code],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    reports = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        reports.append(json.loads(out.strip().splitlines()[-1]))
    keys = {r["status"]["key"] for r in reports}
    assert len(keys) == 1
    assert all(r["status"]["state"] == "loaded" for r in reports)
    assert all(r["digest"] == _digest(reference_frames) for r in reports)
    assert os.listdir(cache) == ["builtins-%s.so" % keys.pop()]


# -- observability -------------------------------------------------------------


@requires_gcc
def test_drag_shaders_take_the_native_path():
    """Every noise shader's drag calls the native noise loops, and the
    drags together call the native libm loops too.  On a host with gcc
    a library that fails to build or load fails here, so a silent
    fallback cannot pass while losing the speedup."""
    if native.status()["reason"] == "disabled":
        pytest.skip("native builtins forced off (--native-builtins=off)")
    loops = native.library()
    assert loops is not None, native.status()
    before = dict(loops.calls)
    used = {}
    for index in (3, 4, 5, 7, 8, 10):
        session = RenderSession(index, width=6, height=6, backend="batch")
        start = dict(loops.calls)
        for param in session.spec_info.control_params[:2]:
            edit = session.begin_edit(param)
            edit.load(session.controls)
            edit.adjust(session.controls_with(
                **{param: session.controls[param] * 1.25}))
        used[index] = {k for k, v in loops.calls.items() if v > start[k]}
    for index in (3, 4, 5, 10):
        assert used[index] & {"snoise", "fbm", "turbulence"}, used
    called = {k for k, v in loops.calls.items() if v > before[k]}
    assert {"sin", "cos", "pow"} <= called, called
    assert native.status()["state"] == "loaded"
