"""Columnar frames: scenes and colours stay NumPy columns end to end.

* column scenes match the per-pixel construction bit for bit;
* the :class:`ColorColumn` contract (list behaviour, read-only,
  zero-copy ``np.asarray``) and its ownership rule (a returned frame
  never changes, whatever the session renders next);
* the daemon's JSON reply keeps its exact bytes;
* uniform-argument builtins hoisted out of the lane loop keep parity;
* empty frames are rejected with a typed error.
"""

from __future__ import annotations

import io
import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.lang.errors import SceneError
from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.runtime.builtins import REGISTRY
from repro.runtime.colors import ColorColumn, color_column
from repro.shaders import render as R
from repro.shaders.render import RenderSession
from repro.shaders.scenes import sphere_scene, wall_scene
from repro.shaders.sources import SHADERS
from tests.helpers import per_pixel_scene

np = pytest.importorskip("numpy")

BUILDERS = {"sphere": sphere_scene, "wall": wall_scene}


def _bits(values):
    """IEEE bit patterns (tells -0.0 from 0.0 and NaN payloads apart)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# -- scenes ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BUILDERS)),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_column_scene_matches_per_pixel_construction(kind, width, height):
    scene = BUILDERS[kind](width, height)
    oracle = per_pixel_scene(kind, width, height)
    assert len(scene) == len(oracle) == width * height
    for k, column in enumerate(scene.columns(), start=2):
        assert not column.flags.writeable
        assert _bits(column) == _bits([pixel[k] for pixel in oracle])
    for pixel, want in zip(scene, oracle):
        got = (pixel.x, pixel.y, pixel.u, pixel.v, pixel.P, pixel.N, pixel.I)
        assert got[:2] == want[:2]
        assert _bits([got[2], got[3]]) == _bits([want[2], want[3]])
        for a, b in zip(got[4:], want[4:]):
            assert type(a) is tuple and type(a[0]) is float
            assert _bits(a) == _bits(b)


def test_pure_python_scene_and_column_fallbacks(monkeypatch):
    """Without NumPy, scenes hold tuples and colour columns hold rows;
    both keep the same values and list behaviour."""
    from repro.runtime import colors as C
    from repro.shaders import scenes as S

    monkeypatch.setattr(S, "_np", None)
    monkeypatch.setattr(C, "_np", None)
    for kind, build in BUILDERS.items():
        for width, height in ((1, 1), (3, 2), (5, 7)):
            scene = build(width, height)
            oracle = per_pixel_scene(kind, width, height)
            assert len(scene) == len(oracle)
            for pixel, want in zip(scene, oracle):
                got = (pixel.x, pixel.y, pixel.u, pixel.v, pixel.P, pixel.N,
                       pixel.I)
                assert got[:2] == want[:2]
                assert _bits(got[2:4]) == _bits(want[2:4])
                assert _bits(got[4:]) == _bits(want[4:])
    rows = [(0.25, 0.5, 1.0), (-0.0, 2.0, 3.5), (1.0, 0.0, 0.125)]
    column = C.ColorColumn.from_rows(rows)
    assert len(column) == 3 and column[-1] == rows[-1]
    assert column[1:] == rows[1:] and list(column) == rows
    assert column == rows and column == C.ColorColumn.from_rows(rows)
    assert column.tolist() == [list(r) for r in rows]
    assert C.join_colors([(rows[:1], 1), (rows[1:], 2)]) == rows


def test_session_geometry_is_the_scene_columns():
    session = RenderSession(3, width=5, height=4, backend="batch")
    assert all(
        a is b for a, b in zip(session._geometry(), session.scene.columns())
    )
    assert session.scene._pixels is None  # no PixelInput on the batch path


# -- the ColorColumn contract ------------------------------------------------


def test_color_column_behaves_like_its_row_list():
    rows = [(0.25, 0.5, 1.0), (-0.0, 2.0, 3.5), (1.0, 0.0, 0.125)]
    column = ColorColumn.from_rows(rows)
    assert len(column) == 3
    assert column[-1] == rows[-1] and column[-3] == rows[0]
    assert column[1:] == rows[1:]
    with pytest.raises(IndexError):
        column[3]
    assert type(column[0]) is tuple
    assert all(type(c) is float for row in column for c in row)
    assert list(column) == rows
    assert column == rows and rows == column
    assert not (column != rows)
    assert column != rows[:2] and column != [list(r) for r in rows]
    assert column == ColorColumn.from_rows(rows)
    assert column != ColorColumn.from_rows(rows[::-1])
    assert column.tolist() == [list(r) for r in rows]
    with pytest.raises(TypeError):
        hash(column)


def test_color_column_array_is_read_only_and_zero_copy():
    column = ColorColumn.from_rows([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
    array = np.asarray(column)
    assert array.shape == (2, 3) and array.dtype == np.float64
    assert np.asarray(column) is array
    assert np.shares_memory(array, np.asarray(column))
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0] = 9.0
    copied = np.array(column)
    copied[0, 0] = 9.0
    assert column[0] == (1.0, 2.0, 3.0)


def test_color_column_adopts_fresh_results_and_copies_shared_ones():
    fresh = np.ones((4, 3))
    assert np.asarray(color_column(fresh, 4)) is fresh
    cache_column = np.ones((4, 3))
    geometry = np.ones((4, 3))
    geometry.flags.writeable = False
    backing = np.ones((8, 3))
    for values, shared in (
        (cache_column, [None, cache_column]),
        (geometry, ()),
        (backing[2:6], ()),
    ):
        adopted = np.asarray(color_column(values, 4, shared))
        assert not np.shares_memory(adopted, values)
    uniform = color_column((0.5, 0.25, 1.0), 2)
    assert uniform == [(0.5, 0.25, 1.0)] * 2


def test_every_batch_path_returns_a_color_column():
    session = RenderSession(1, width=4, height=3, backend="batch",
                            incremental=True)
    edit = session.begin_edit("kd")
    frames = [edit.load(session.controls),
              edit.adjust(session.controls_with(kd=0.5)),
              edit.load(session.controls_with(red=0.3)),
              session.render_reference()]
    assert edit._last_load_path == "delta"
    scalar = RenderSession(1, width=4, height=3, backend="scalar")
    scalar_edit = scalar.begin_edit("kd")
    frames.append(scalar_edit.load(scalar.controls))
    for frame in frames:
        assert isinstance(frame.colors, ColorColumn)
    assert frames[-1].colors == frames[0].colors


# -- no aliasing: a returned frame never changes -----------------------------


def _frozen(image):
    return _bits(np.asarray(image.colors))


def _drag_and_edit(session, param, other):
    """Load, adjust, delta-refill and adjust again on one drag; returns
    every frame with a bit snapshot taken when it was served."""
    edit = session.begin_edit(param)
    frames = []
    base = session.controls
    steps = [
        ("load", base),
        ("adjust", session.controls_with(**{param: base[param] * 1.5})),
        ("load", session.controls_with(**{other: base[other] * 0.5})),
        ("adjust", session.controls_with(
            **{param: base[param] * 0.5, other: base[other] * 0.5})),
        ("adjust", session.controls_with(**{param: base[param] * 2.0})),
    ]
    for phase, controls in steps:
        image = getattr(edit, phase)(controls)
        frames.append((image, _frozen(image)))
    return edit, frames


@pytest.mark.parametrize("workers", [None, "fork:2"])
def test_returned_frames_stay_unchanged(workers):
    if workers == "fork:2" and not P._fork_available():
        pytest.skip("fork start method unavailable")
    tile = 16 if workers is not None else None
    session = RenderSession(3, width=8, height=6, backend="batch",
                            workers=workers, tile=tile, incremental=True)
    edit, frames = _drag_and_edit(session, "veinfreq", "b1")
    try:
        assert edit._last_load_path == "delta"
        if workers == "fork:2" and B.HAVE_SHM:
            assert edit._executor.last_stats.transport == "shm"
        for image, snapshot in frames:
            assert _frozen(image) == snapshot
            assert not np.asarray(image.colors).flags.writeable
    finally:
        edit.close()


# -- the daemon's wire format ------------------------------------------------


def _old_encoding(colors):
    return [[float(c) for c in pixel] for pixel in colors]


@pytest.mark.parametrize("index", sorted(SHADERS))
def test_reply_json_bytes_match_per_component_float(index, tmp_path,
                                                    monkeypatch):
    """One frame per shader, with a NaN lane and a -0.0 lane planted,
    encodes to exactly the bytes the per-component ``float()`` encoding
    gave (the HTTP layer's ``json.dumps(sort_keys=True)``)."""
    from repro.serve import RenderService, ServiceConfig

    served = []
    real_load = R.EditSession.load

    def load(self, controls):
        image = real_load(self, controls)
        array = np.array(image.colors)
        array[0] = (float("nan"), -0.0, 0.1)
        array[-1] = (-0.0, float("-nan"), 1e-300)
        image = R.Image(image.width, image.height, ColorColumn(array),
                        image.total_cost)
        served.append(image)
        return image

    monkeypatch.setattr(R.EditSession, "load", load)
    service = RenderService(
        ServiceConfig(store_dir=str(tmp_path / "store"), recover=False),
        obs=False,
    )
    sid = service.create_session("t", index, 3, 2)["session"]
    payload = service.render(sid)
    service.close_session(sid)
    (image,) = served
    assert isinstance(payload["colors"], list)
    expected = dict(payload, colors=_old_encoding(image.colors))
    got_bytes = json.dumps(payload, sort_keys=True)
    assert got_bytes == json.dumps(expected, sort_keys=True)
    assert "NaN" in got_bytes and "-0.0" in got_bytes


# -- uniform builtins hoisted out of the lane loop ---------------------------

UNIFORM_CASES = [
    ("log", (2.5,)),
    ("log", (0.0,)),
    ("log", (-1.0,)),
    ("pow", (2.0, 0.5)),
    ("pow", (-8.0, 1.0 / 3.0)),
    ("pow", (0.0, -1.0)),
    ("pow", (10.0, 400.0)),
    ("sin", (0.7,)),
    ("sin", (float("inf"),)),
    ("fmod", (7.5, 2.0)),
    ("fmod", (1.0, 0.0)),
    ("fmod", (float("inf"), 1.0)),
    ("rotation_y", (0.3,)),
    ("rotation_y", (float("nan"),)),
]


def _scalar_lane(name, args):
    ty = REGISTRY[name].ret_type.name
    try:
        value = REGISTRY[name].fn(*args)
    except Exception:
        value = (float("nan"),) * (9 if ty == "mat3" else 1)
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name,args", UNIFORM_CASES)
def test_uniform_lanewise_builtins_match_scalar(name, args):
    from repro.runtime.vecops import VEC_BUILTINS

    n = 5
    hoisted = VEC_BUILTINS[name](n, *args)
    per_lane = VEC_BUILTINS[name](n, *[np.full(n, a) for a in args])
    assert hoisted.shape == per_lane.shape and len(hoisted) == n
    expected = [_scalar_lane(name, args)] * n
    assert _bits(hoisted.reshape(n, -1)) == _bits(expected)
    assert _bits(per_lane.reshape(n, -1)) == _bits(expected)


# -- empty frames ------------------------------------------------------------


@pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (-3, -3)])
def test_scene_builders_reject_empty_frames(width, height):
    for build in BUILDERS.values():
        with pytest.raises(SceneError):
            build(width, height)
    with pytest.raises(SceneError):
        RenderSession(1, width=width, height=height)


@pytest.mark.parametrize("size", ["0", "-3"])
def test_cli_render_rejects_empty_frames(size):
    out, err = io.StringIO(), io.StringIO()
    assert main(["render", "1", "--size", size], out=out, err=err) == 2
    assert "at least 1x1" in err.getvalue()


def test_sample_of_nothing_is_empty():
    scene = wall_scene(3, 3)
    assert scene.sample(0) == []
    assert scene.sample(-2) == []
    assert len(scene.sample(4)) == 4 and not math.isnan(scene.sample(1)[0].u)
