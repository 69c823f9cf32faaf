"""Backend parity and speed-ratio gates (run with ``-m benchsmoke``;
deselected by default).

Each gate first proves the frames it times are byte-identical — colours
and CostMeter totals — and only then compares best-of-``REPEATS`` wall
times.  End-to-end timings, with warm-up and spread, live in
``renderbench/``; these are coarse floors that catch a backend that
stopped paying off.
"""

import time

import pytest

from repro.runtime.batch import HAVE_NUMPY
from repro.shaders.render import RenderSession

#: Best-of-N timing to damp scheduler noise.
REPEATS = 3
#: Required batched-adjust advantage over scalar (shader 1, 64x64).
MIN_ADJUST_SPEEDUP = 3.0
#: Required vectorized-noise adjust advantage over scalar (shader 3).
MIN_NOISE_SPEEDUP = 5.0

NOISE_SHADER = 3
NOISE_PARAM = "veinfreq"
NOISE_SIZE = 48

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="speed gates need NumPy (parity still runs)"
)


def _timed(fn, repeats=1):
    """``(result, best seconds)`` over ``repeats`` calls of ``fn``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _timed_drag(session, param):
    """One load then a best-of-``REPEATS`` adjust:
    ``(loaded, load_s, adjusted, adjust_s)``."""
    edit = session.begin_edit(param)
    loaded, load_s = _timed(lambda: edit.load(session.controls))
    dragged = session.controls_with(
        **{param: session.controls[param] * 1.25}
    )
    adjusted, adjust_s = _timed(lambda: edit.adjust(dragged), REPEATS)
    edit.close()
    return loaded, load_s, adjusted, adjust_s


def _assert_identical(a, b, what):
    assert a.colors == b.colors, "%s: colors differ" % what
    assert a.total_cost == b.total_cost, (
        "%s: cost %d != %d" % (what, a.total_cost, b.total_cost)
    )


def _noise_session(**knobs):
    return RenderSession(NOISE_SHADER, width=NOISE_SIZE, height=NOISE_SIZE,
                         **knobs)


def _speedup_gate(name, base, fast, floor):
    """``base``/``fast`` are ``_timed_drag`` results; gate the adjust
    ratio once both frames are proven identical."""
    _assert_identical(base[0], fast[0], name + " load")
    _assert_identical(base[2], fast[2], name + " adjust")
    if HAVE_NUMPY:
        speedup = base[3] / fast[3]
        assert speedup >= floor, (
            "%s only %.2fx scalar (need >= %.1fx)" % (name, speedup, floor)
        )


@pytest.mark.benchsmoke
def test_batch_adjust_beats_scalar():
    """Shader 1 at 64x64: the batch backend is byte-identical to scalar
    and its adjust is at least ``MIN_ADJUST_SPEEDUP`` times faster."""
    drags = [
        _timed_drag(RenderSession(1, width=64, height=64, backend=b), "kd")
        for b in ("scalar", "batch")
    ]
    _speedup_gate("batched adjust", drags[0], drags[1], MIN_ADJUST_SPEEDUP)


@pytest.mark.benchsmoke
def test_vectorized_noise_beats_scalar():
    """The noise-heavy shader 3: the bit-exact vectorized noise family
    must beat the scalar interpreter by ``MIN_NOISE_SPEEDUP``."""
    drags = [
        _timed_drag(_noise_session(backend=b), NOISE_PARAM)
        for b in ("scalar", "batch")
    ]
    _speedup_gate("vectorized noise adjust", drags[0], drags[1],
                  MIN_NOISE_SPEEDUP)


@pytest.mark.benchsmoke
def test_session_simulator_runs_batched():
    """The bench simulator rides the session default (auto -> batch)
    and its costs match the scalar backend exactly."""
    from repro.bench.session import simulate_session

    auto = simulate_session(3, width=5, height=5)
    assert auto.frames and auto.session_speedup > 1.0
    if HAVE_NUMPY:
        assert auto.frames[0].cost > 0
        scalar = simulate_session(3, width=5, height=5, backend="scalar")
        assert auto.total_cost == scalar.total_cost
        assert auto.total_reference_cost == scalar.total_reference_cost
        tiled = simulate_session(3, width=5, height=5, tile=10)
        assert tiled.total_cost == auto.total_cost


@pytest.mark.benchsmoke
def test_apps_batch_parity():
    """The 7.3 applications run through the batch backend: one batched
    reader call per row/sweep, bit-identical to the scalar loops."""
    from repro.apps.filter import (
        blur_row, blur_row_batch, specialize_on_sigma,
    )
    from repro.apps.spline import (
        specialize_on_t, sweep_curve, sweep_curve_batch,
    )

    spec = specialize_on_sigma()
    sigma = 2.3
    _, cache, _ = spec.run_loader([0.0] * 9 + [sigma])
    row = [((i * 31) % 17) / 4.0 for i in range(64)]
    scalar_out, scalar_cost = blur_row(spec, cache, row, sigma)
    batch_out, batch_cost = blur_row_batch(spec, cache, row, sigma)
    assert scalar_out == batch_out
    assert scalar_cost == batch_cost

    sp = specialize_on_t()
    knots = [0.0, 2.0, -1.0, 0.5, 3.0]
    _, curve_cache, _ = sp.run_loader(knots + [0.0])
    ts = [i * 0.05 for i in range(-10, 90)]
    v1, c1 = sweep_curve(sp, curve_cache, knots, ts)
    v2, c2 = sweep_curve_batch(sp, curve_cache, knots, ts)
    assert v1 == v2
    assert c1 == c2
