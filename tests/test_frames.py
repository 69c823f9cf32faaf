"""Columnar frames: scenes and colours stay NumPy columns end to end.

* column scenes match the per-pixel construction bit for bit;
* the :class:`ColorColumn` contract (list behaviour, read-only,
  zero-copy ``np.asarray``) and its ownership rule (a returned frame
  never changes, whatever the session renders next);
* the daemon's JSON reply keeps its exact bytes, and the binary wire
  form (:meth:`ColorColumn.to_wire`) round-trips every bit pattern;
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
from repro.runtime.builtins import REGISTRY
from repro.runtime.colors import ColorColumn, color_column
from repro.shaders import render as R
from repro.shaders.render import RenderSession
from repro.shaders.scenes import sphere_scene, wall_scene
from repro.shaders.sources import SHADERS
from tests.helpers import (
    SPECIAL_FLOAT_BITS,
    per_pixel_scene,
    special_float_rows,
)

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
    assert edit.last_path == "delta"
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
    """Load, adjust, delta-refill, adjust, and delta-refill again (the
    last step moves ``other`` back) on one drag, each through
    ``frame``; returns every frame with a bit snapshot taken when it
    was served."""
    edit = session.begin_edit(param)
    frames = []
    base = session.controls
    steps = [
        base,
        session.controls_with(**{param: base[param] * 1.5}),
        session.controls_with(**{other: base[other] * 0.5}),
        session.controls_with(
            **{param: base[param] * 0.5, other: base[other] * 0.5}),
        session.controls_with(**{param: base[param] * 2.0}),
    ]
    for controls in steps:
        image = edit.frame(controls)
        frames.append((image, _frozen(image)))
    return edit, frames


@pytest.mark.parametrize("tile", [None, 16])
def test_returned_frames_stay_unchanged(tile):
    session = RenderSession(3, width=8, height=6, backend="batch",
                            tile=tile, incremental=True)
    edit, frames = _drag_and_edit(session, "veinfreq", "b1")
    try:
        assert edit.last_path == "delta"
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
    encodes for the default ``Accept`` to exactly the bytes the
    per-component ``float()`` encoding gave (the HTTP layer's
    :func:`~repro.serve.http.encode_reply`)."""
    from repro.serve import RenderService, ServiceConfig
    from repro.serve.http import encode_reply

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
    assert payload["colors"] is image.colors
    expected = dict(payload, colors=_old_encoding(image.colors))
    got_bytes, content_type = encode_reply(payload)
    assert content_type == "application/json"
    assert got_bytes == (
        json.dumps(expected, sort_keys=True) + "\n"
    ).encode("utf-8")
    assert b"NaN" in got_bytes and b"-0.0" in got_bytes


#: :data:`SPECIAL_FLOAT_BITS` per pixel, the shape :func:`_bits` gives.
SPECIAL_PIXEL_BITS = [
    list(SPECIAL_FLOAT_BITS[k:k + 3])
    for k in range(0, len(SPECIAL_FLOAT_BITS), 3)
]


def test_wire_round_trip_is_bit_exact_and_zero_copy():
    rows = special_float_rows()
    column = ColorColumn.from_rows(rows)
    assert _bits(column) == SPECIAL_PIXEL_BITS
    wire = json.loads(json.dumps(column.to_wire()))
    assert wire["dtype"] == "<f8" and wire["shape"] == [len(rows), 3]
    back = ColorColumn.from_wire(wire)
    assert _bits(back) == _bits(column)
    data = np.asarray(back)
    assert np.asarray(back) is data and not data.flags.writeable
    assert np.asarray(back, dtype=np.float64) is data


def test_wire_encoding_without_numpy_gives_the_same_bytes(monkeypatch):
    """The tuple-backed column (no NumPy) encodes to the same wire
    object and decodes back to the same bit patterns."""
    from repro.runtime import colors as C

    rows = special_float_rows()
    want = ColorColumn.from_rows(rows).to_wire()
    monkeypatch.setattr(C, "_np", None)
    column = C.ColorColumn.from_rows(rows)
    assert column.to_wire() == want
    back = C.ColorColumn.from_wire(want)
    assert isinstance(back._data, tuple)
    assert _bits(list(back)) == SPECIAL_PIXEL_BITS
    assert C.ColorColumn.from_wire(C.ColorColumn([]).to_wire()) == []


@pytest.mark.parametrize("wire, match", [
    ({"dtype": "<f4", "shape": [1, 3], "b64": "AAAA"}, "dtype"),
    ({"dtype": ">f8", "shape": [0, 3], "b64": ""}, "dtype"),
    ({"shape": [0, 3], "b64": ""}, "dtype"),
    ([], "object"),
    ({"dtype": "<f8", "shape": [1, 4], "b64": ""}, "shape"),
    ({"dtype": "<f8", "shape": [-1, 3], "b64": ""}, "shape"),
    ({"dtype": "<f8", "shape": [1.0, 3], "b64": ""}, "shape"),
    ({"dtype": "<f8", "shape": [1, 3]}, "base64"),
    ({"dtype": "<f8", "shape": [1, 3], "b64": "not base64!"}, "base64"),
    ({"dtype": "<f8", "shape": [1, 3], "b64": "AAAA"}, "bytes"),
    ({"dtype": "<f8", "shape": [0, 3], "b64": "AAAA"}, "bytes"),
])
def test_malformed_wire_raises_value_error(wire, match):
    with pytest.raises(ValueError, match=match):
        ColorColumn.from_wire(wire)


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
    ("tan", (float("inf"),)),
    ("exp", (710.0,)),
    ("cos", (float("-inf"),)),
    ("atan", (float("nan"), 1.0)),
    ("rotation_x", (float("inf"),)),
    ("rotate_y", ((1.0, -2.0, 0.5), float("inf"))),
]


def _scalar_lane(name, args):
    ty = REGISTRY[name].ret_type.name
    try:
        value = REGISTRY[name].fn(*args)
    except Exception:
        value = (float("nan"),) * {"mat3": 9, "vec3": 3}.get(ty, 1)
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name,args", UNIFORM_CASES)
def test_uniform_lanewise_builtins_match_scalar(name, args):
    from repro.runtime.vecops import VEC_BUILTINS

    n = 5
    hoisted = VEC_BUILTINS[name](n, *args)
    per_lane = VEC_BUILTINS[name](
        n, *[np.full((n,) + np.shape(a), a) for a in args]
    )
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
