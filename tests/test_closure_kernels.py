"""Batch kernels are built as closures: nothing compiles on a frame.

``compile_batch_function`` builds each loader, reader, original and
delta kernel straight from the AST as a list of closures; no kernel
source text is generated and ``compile()``/``exec`` never run.  The test
here drives the batch frame path of every shader (specialize, load,
adjust, a delta refill, a guarded and a dispatch drag) with both
builtins patched to raise, and checks each frame byte for byte against
the scalar path.
"""

import builtins
import struct

import pytest

from repro.core.specializer import DataSpecializer
from repro.runtime import batch as B
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not B.HAVE_NUMPY, reason="NumPy unavailable"
)


def _bits(image):
    return b"".join(struct.pack("<3d", *row) for row in image.colors)


def _moved(session, name, step=0):
    value = session.controls[name]
    if isinstance(value, float):
        return value * (1.2 + 0.1 * step) + 0.05
    return value + 1 + step


def _frames(backend, index, **options):
    """Load, adjust, then an edit of an invariant control: the frames
    and the drag's paths.  ``options`` go to the session and to
    ``begin_edit`` (``dispatch``)."""
    dispatch = options.pop("dispatch", False)
    info = SHADERS[index]
    session = RenderSession(index, width=4, height=3, backend=backend,
                            incremental=True, **options)
    param = info.control_params[0]
    edit = session.begin_edit(param, dispatch=dispatch)
    controls = dict(session.controls)
    frames, paths = [], []
    steps = [{param: _moved(session, param)}]
    others = [name for name in info.control_params if name != param]
    if others:
        steps.append({others[0]: _moved(session, others[0], 1)})
    image = edit.frame(controls)
    frames.append((_bits(image), image.total_cost))
    paths.append(edit.last_path)
    for change in steps:
        controls = dict(controls, **change)
        image = edit.frame(controls)
        frames.append((_bits(image), image.total_cost))
        paths.append(edit.last_path)
    session.close()
    return frames, paths


def _drags():
    """(index, options) of every drag the test runs."""
    drags = [(index, {}) for index in sorted(SHADERS)]
    drags.append((3, {"guard": True}))
    drags.append((9, {"dispatch": True}))
    return drags


def _refuse(*args, **kwargs):
    raise AssertionError("compile()/exec ran on the batch frame path")


@requires_numpy
def test_batch_frame_path_compiles_nothing():
    expected = [_frames("scalar", index, **options)
                for index, options in _drags()]
    # Import everything the path touches before the builtins go.
    _frames("batch", 1, guard=True)
    _frames("batch", 9, dispatch=True)
    real = builtins.compile, builtins.exec
    builtins.compile = builtins.exec = _refuse
    try:
        got = [_frames("batch", index, **options)
               for index, options in _drags()]
    finally:
        builtins.compile, builtins.exec = real
    assert got == expected
    paths = [path for _, drag_paths in got for path in drag_paths]
    assert "delta" in paths and "adjust" in paths


@requires_numpy
def test_masked_int_return_stays_int():
    """Lanes that return early keep exact int64 values."""
    import numpy as np

    big = 2 ** 53 + 1
    spec = DataSpecializer(
        "int f(int a) { if (a > 0) { return a * 3; } return %d; }" % big
    ).specialize("f", {"a"})
    kernel = B.BatchKernel(spec.original)
    values, costs = kernel.run_lanes([np.array([0, 1], dtype=np.int64)], 2)
    assert kernel.vectorized
    want = [spec.run_original([a]) for a in (0, 1)]
    assert B.value_rows(values, 2) == [value for value, _ in want]
    assert list(costs) == [cost for _, cost in want]
