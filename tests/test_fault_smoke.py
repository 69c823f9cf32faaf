"""Every shader under a seeded cache-corruption storm (run with
``-m faultsmoke``; deselected by default).

For every built-in shader, partition and backend, a guarded 8x8 drag
has 5% of its per-pixel cache slots corrupted between ``load()`` and
``adjust()``.  The frame always completes; every faulted pixel
bit-matches ``render_reference`` (the fallback *is* the unspecialized
shader) and every clean pixel bit-matches the unfaulted guarded adjust.
"""

import pytest

from repro.runtime.faultinject import FaultInjector
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

SIZE = 8
SEED = 1996
CACHE_RATE = 0.05


def _faulted_drag(shader, param, backend):
    """One guarded drag under corruption; returns the number of faults
    and of pixels that fell back."""
    session = RenderSession(shader, width=SIZE, height=SIZE, backend=backend,
                            guard=True)
    what = "shader %d %r (%s)" % (shader, param, backend)
    drag = session.controls_with(**{param: session.controls[param] * 1.25})

    clean_edit = session.begin_edit(param)
    clean_edit.load(session.controls)
    clean = clean_edit.adjust(drag)

    edit = session.begin_edit(param)
    edit.load(session.controls)
    assert len(edit.fault_log) == 0, what + ": faults before any injection"
    FaultInjector(seed=SEED, cache_rate=CACHE_RATE).corrupt_caches(
        edit.caches
    )
    adjusted = edit.adjust(drag)
    # Reassociation is partition-driven, so the bit-exact reference for
    # this partition's fallback is its *own* inlined original.
    reference = session.render_reference(
        drag, specialization=session.specialize(param)
    )
    pixels = len(session.scene)
    assert len(adjusted.colors) == pixels, what + ": frame did not complete"
    faulted = set(edit.fault_log.pixels)
    for i in range(pixels):
        expected = reference.colors[i] if i in faulted else clean.colors[i]
        assert adjusted.colors[i] == expected, (
            "%s: pixel %d diverged under injection" % (what, i)
        )
    return len(edit.fault_log), len(faulted)


@pytest.mark.faultsmoke
@pytest.mark.parametrize("backend", ["scalar", "batch"])
def test_guard_contains_cache_corruption(backend):
    faults = fallback = pixels = 0
    for shader in sorted(SHADERS):
        for param in SHADERS[shader].control_params:
            f, p = _faulted_drag(shader, param, backend)
            faults += f
            fallback += p
            pixels += SIZE * SIZE
    assert faults > 0, "the storm must actually fault"
    assert 0 < fallback < pixels
