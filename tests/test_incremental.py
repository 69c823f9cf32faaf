"""Incremental delta loaders: parameter-sliced cache refills.

The contract under test: an invariant-parameter edit served by the
delta path — a sliced loader refilling only the cache slots the edited
parameters dirty, in place, in the existing cache arena — must produce
frames byte-identical to a full cache reload, with exact CostMeter
parity between backends, tiled or not, under guards and
supervision; and any fault, oversized dirty set, or open breaker must
fall back to the full load transparently.
"""

import types

import pytest

from repro.runtime import batch as B
from repro.runtime.supervise import RenderSupervisor, SupervisorPolicy
from repro.shaders import render as R
from repro.shaders.render import RenderSession, ShaderInstallation
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not B.HAVE_NUMPY, reason="NumPy unavailable"
)

BACKENDS = ("scalar", "batch")


def _sessions(index, param, backend=None, size=5, **kw):
    """(full_session, full_edit, inc_session, inc_edit) over one drag."""
    full = RenderSession(index, width=size, height=size, backend=backend,
                         **kw)
    inc = RenderSession(index, width=size, height=size, backend=backend,
                        incremental=True, **kw)
    return full, full.begin_edit(param), inc, inc.begin_edit(param)


def _edit_steps(session, param, count=3):
    """A control sequence editing one invariant parameter at a time."""
    others = [
        name for name in session.spec_info.control_params if name != param
    ]
    controls = dict(session.controls)
    steps = []
    for step, name in enumerate(others[:count]):
        controls = dict(controls)
        value = controls[name]
        controls[name] = (
            value * (1.15 + 0.1 * step) + 0.01
            if isinstance(value, float) else value + 1 + step
        )
        steps.append(controls)
    return steps


def _assert_frames_equal(a, b, what):
    assert a.colors == b.colors, "%s: colors differ" % what
    assert a.total_cost == b.total_cost, (
        "%s: cost %d != %d" % (what, a.total_cost, b.total_cost)
    )


@pytest.mark.parametrize("index", sorted(SHADERS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_delta_refill_matches_full_load(index, backend):
    """Every shader, first partition, both backends: each invariant
    edit served by the delta path is byte-identical to a full reload."""
    param = SHADERS[index].control_params[0]
    full, full_edit, inc, inc_edit = _sessions(index, param, backend)
    _assert_frames_equal(
        full_edit.load(full.controls), inc_edit.load(inc.controls),
        "initial load",
    )
    took_delta = False
    for controls in _edit_steps(full, param):
        a = full_edit.load(controls)
        b = inc_edit.load(controls)
        assert inc_edit.last_path in ("delta", "noop", "full")
        took_delta = took_delta or inc_edit.last_path == "delta"
        assert a.colors == b.colors, (
            "shader %d %s: delta frame diverges" % (index, backend)
        )
        # Steady-state drags of the partition param stay byte-equal too.
        dragged = full.controls_with(
            **{param: controls[param] * 1.25}
        )
        _assert_frames_equal(
            full_edit.adjust(dict(controls, **{param: dragged[param]})),
            inc_edit.adjust(dict(controls, **{param: dragged[param]})),
            "post-edit adjust",
        )


def test_noop_path_for_varying_only_edit():
    """Editing only the partition (varying) parameter leaves no dirty
    slots: the incremental load is a reader-only noop, still
    byte-identical to a full reload."""
    full, full_edit, inc, inc_edit = _sessions(3, "veinfreq", "scalar")
    full_edit.load(full.controls)
    inc_edit.load(inc.controls)
    controls = full.controls_with(veinfreq=full.controls["veinfreq"] * 1.5)
    a = full_edit.load(controls)
    b = inc_edit.load(controls)
    assert inc_edit.last_path == "noop"
    assert a.colors == b.colors


@pytest.mark.parametrize("index", (3, 5))
def test_backend_cost_parity_on_delta_path(index):
    """The scalar and batch delta paths charge identical CostMeter
    totals for the same edit (the repo's exact-parity invariant)."""
    param = SHADERS[index].control_params[0]
    costs = {}
    for backend in BACKENDS:
        _, _, inc, edit = _sessions(index, param, backend)
        edit.load(inc.controls)
        totals = []
        for controls in _edit_steps(inc, param):
            totals.append(edit.load(controls).total_cost)
        costs[backend] = totals
    assert costs["scalar"] == costs["batch"]


@requires_numpy
@pytest.mark.parametrize("tile", (10, 5))
def test_tiled_delta_refill_parity(tile):
    """A tiled drag's delta refills give frames byte-identical to an
    untiled drag's."""
    param = SHADERS[3].control_params[0]
    serial = RenderSession(3, width=6, height=6, incremental=True)
    tiled = RenderSession(3, width=6, height=6, incremental=True,
                          tile=tile)
    serial_edit = serial.begin_edit(param)
    tiled_edit = tiled.begin_edit(param)
    serial_edit.load(serial.controls)
    tiled_edit.load(tiled.controls)
    for controls in _edit_steps(serial, param):
        a = serial_edit.load(controls)
        b = tiled_edit.load(controls)
        _assert_frames_equal(a, b, "tiled delta frame")
    tiled_edit.close()


@requires_numpy
def test_delta_refill_splices_dirty_columns_only():
    """A batch delta refill rewrites only the dirty cache columns;
    clean columns keep their existing bindings, and the frame stays
    byte-identical to a full load."""
    param = SHADERS[3].control_params[0]
    serial = RenderSession(3, width=8, height=8, backend="batch")
    inc = RenderSession(3, width=8, height=8, incremental=True,
                        backend="batch", tile=16)
    serial_edit = serial.begin_edit(param)
    inc_edit = inc.begin_edit(param)
    serial_edit.load(serial.controls)
    inc_edit.load(inc.controls)

    spec = inc_edit.specialization
    controls = _edit_steps(inc, param, count=1)[0]
    changed = [
        name for name in inc.spec_info.control_params
        if controls[name] != inc.controls[name]
    ]
    dirty = spec.dirty_slots(set(changed))
    assert dirty, "edit dirtied nothing; pick a different step"
    clean = [
        slot.index for slot in spec.layout if slot.index not in dirty
    ]
    before = {k: inc_edit.caches.columns[k] for k in clean}

    a = serial_edit.load(controls)
    b = inc_edit.load(controls)
    assert inc_edit.last_path == "delta"
    assert a.colors == b.colors, "delta frame: colors differ"
    for k in clean:
        assert inc_edit.caches.columns[k] is before[k], (
            "clean column %d was rebound by the refill" % k
        )
    inc_edit.close()


def test_guarded_delta_parity():
    """Guarded drags still take the delta path (the refill itself runs
    unguarded; the reader pass routes through the guard) and stay
    byte-identical to guarded full loads."""
    for backend in BACKENDS:
        full, full_edit, inc, inc_edit = _sessions(
            3, "veinfreq", backend, guard=True
        )
        full_edit.load(full.controls)
        inc_edit.load(inc.controls)
        for controls in _edit_steps(full, "veinfreq", count=2):
            a = full_edit.load(controls)
            b = inc_edit.load(controls)
            assert a.colors == b.colors
        assert len(inc_edit.fault_log) == 0


def test_injector_disables_delta_path():
    """A fault injector makes delta-vs-full comparison meaningless, so
    the incremental knob is ignored for injected drags."""
    from repro.runtime.faultinject import FaultInjector

    inc = RenderSession(3, width=4, height=4, backend="scalar",
                        incremental=True)
    edit = inc.begin_edit(
        "veinfreq", injector=FaultInjector(seed=7, cache_rate=0.0)
    )
    edit.load(inc.controls)
    controls = _edit_steps(inc, "veinfreq", count=1)[0]
    edit.load(controls)
    assert edit.last_path == "full"


def test_supervised_delta_parity():
    """Supervised sessions serve closed-breaker edits via the delta
    path (bypassing the ladder) with frames equal to supervised full
    loads; last_rung reports the backend that served them."""
    for backend in BACKENDS:
        full, full_edit, inc, inc_edit = _sessions(
            5, "density", backend, policy=SupervisorPolicy()
        )
        full_edit.load(full.controls)
        inc_edit.load(inc.controls)
        for controls in _edit_steps(full, "density", count=2):
            a = full_edit.load(controls)
            b = inc_edit.load(controls)
            assert a.colors == b.colors
            if inc_edit.last_path == "delta":
                assert inc_edit.last_rung == backend


def test_open_breaker_skips_delta_path():
    """An open circuit breaker marks the caches suspect: the
    incremental route refuses and the supervised full ladder runs."""
    inc = RenderSession(3, width=4, height=4, backend="scalar",
                        policy=SupervisorPolicy(), incremental=True)
    edit = inc.begin_edit("veinfreq")
    edit.load(inc.controls)
    controls = _edit_steps(inc, "veinfreq", count=1)[0]
    edit.supervisor.breakers[edit._key()] = types.SimpleNamespace(
        state="open"
    )
    assert edit._incremental_load(controls) is None


def test_delta_kernel_fault_falls_back_to_full_load():
    """A raising delta path drops the caches and reruns the edit as a
    full load — the frame is still correct and later edits recover."""
    for backend in BACKENDS:
        full, full_edit, inc, inc_edit = _sessions(3, "veinfreq", backend)
        full_edit.load(full.controls)
        inc_edit.load(inc.controls)

        def boom(*args, **kwargs):
            raise RuntimeError("injected delta fault")

        inc_edit.specialization.delta_kernel = boom
        inc_edit.specialization.run_delta = boom
        steps = _edit_steps(full, "veinfreq", count=2)
        a = full_edit.load(steps[0])
        b = inc_edit.load(steps[0])
        assert inc_edit.last_path == "full"
        _assert_frames_equal(a, b, "fallback frame")
        # The fallback rebuilt healthy caches: a plain adjust works.
        dragged = dict(
            steps[0], veinfreq=steps[0]["veinfreq"] * 1.25
        )
        _assert_frames_equal(
            full_edit.adjust(dragged), inc_edit.adjust(dragged),
            "post-fallback adjust",
        )


def test_corrupt_cache_falls_back_to_full_load():
    """A poisoned standing cache makes the delta-path reader fault;
    the session falls back to a full load and serves a correct frame."""
    full, full_edit, inc, inc_edit = _sessions(3, "veinfreq", "scalar")
    full_edit.load(full.controls)
    inc_edit.load(inc.controls)
    # Blow away every slot of every pixel cache: the refill only
    # restores the dirty ones, so the reader trips on the clean holes.
    for cache in inc_edit.caches:
        for slot in inc_edit.specialization.layout:
            cache[slot.index] = None
    controls = _edit_steps(full, "veinfreq", count=1)[0]
    a = full_edit.load(controls)
    b = inc_edit.load(controls)
    assert inc_edit.last_path == "full"
    _assert_frames_equal(a, b, "recovered frame")


def test_dirty_fraction_threshold_forces_full_load(monkeypatch):
    """When the dirty set covers more of the cache than
    MAX_DIRTY_FRACTION allows, the edit takes the full path."""
    monkeypatch.setattr(R, "MAX_DIRTY_FRACTION", 0.0)
    inc = RenderSession(3, width=4, height=4, backend="scalar",
                        incremental=True)
    edit = inc.begin_edit("veinfreq")
    edit.load(inc.controls)
    controls = _edit_steps(inc, "veinfreq", count=1)[0]
    edit.load(controls)
    assert edit.last_path == "full"


# -- dependence map / specializer API ------------------------------------


def test_delta_map_memoized_and_exposed():
    session = RenderSession(5, width=3, height=3, backend="scalar")
    spec = session.specialize("density")
    mapping = spec.delta_map()
    assert mapping is spec.delta_map(), "delta map must be memoized"
    assert set(spec.invariant_params()) == set(mapping)
    for name, slots in mapping.items():
        assert slots <= frozenset(range(len(spec.layout)))
    # Unknown parameters are conservatively all-slots.
    assert spec.dirty_slots({"nosuchparam"}) == frozenset(
        range(len(spec.layout))
    )
    assert spec.dirty_slots(()) == frozenset()
    # Empty dirty set has no delta loader (the session treats it as a
    # reader-only noop).
    assert spec.delta_loader(frozenset()) is None


def test_delta_map_equals_one_analysis_per_parameter():
    """The one-walk delta map equals one dependence analysis per
    invariant parameter, on every partition of every shader."""
    from repro.transform.split import loader_param_slots

    from .helpers import per_parameter_slots

    for index, info in sorted(SHADERS.items()):
        session = RenderSession(index, width=2, height=2, backend="scalar")
        for param in info.control_params:
            spec = session.specialize(param)
            params = spec.invariant_params()
            assert loader_param_slots(spec.loader, spec.layout, params) == (
                per_parameter_slots(spec.loader, params)
            ), (index, param)
            everything = spec.loader.param_names()
            assert loader_param_slots(spec.loader, spec.layout) == (
                per_parameter_slots(spec.loader, everything)
            ), (index, param)
        session.close()


def test_dirty_slot_profile_and_metrics():
    from repro.obs.cachestats import dirty_slot_profile
    from repro.obs.export import to_prometheus

    session = RenderSession(5, width=3, height=3, backend="scalar",
                            obs=True, incremental=True)
    spec = session.specialize("density")
    profile = dirty_slot_profile(spec)
    assert profile
    for name, entry in profile.items():
        assert entry["count"] == len(entry["slots"])
        assert 0.0 <= entry["fraction"] <= 1.0
    restricted = dirty_slot_profile(spec, params=["haze"])
    assert set(restricted) == {"haze"}

    edit = session.begin_edit("density")
    edit.load(session.controls)
    edit.load(_edit_steps(session, "density", count=1)[0])
    text = to_prometheus(session.obs.registry)
    assert "repro_cache_dirty_slots" in text
    assert "repro_incremental_loads_total" in text
    assert 'outcome="delta"' in text
    assert "repro_incremental_slots_refilled_total" in text
    assert "repro_incremental_dirty_fraction" in text


def test_installation_edit_passes_incremental():
    install = ShaderInstallation(3, width=4, height=4, compile_code=False)
    edit = install.edit("veinfreq", incremental=True)
    assert edit.incremental
    edit.load(install.session.controls)
    edit.load(_edit_steps(install.session, "veinfreq", count=1)[0])
    assert edit.last_path in ("delta", "noop")


# -- persistence ---------------------------------------------------------


def test_persisted_delta_fingerprints_roundtrip(tmp_path):
    from repro.core.persist import load_specialization, save_specialization

    session = RenderSession(3, width=3, height=3, backend="scalar")
    spec = session.specialize("veinfreq")
    directory = str(tmp_path / "artifact")
    save_specialization(spec, directory)
    reloaded = load_specialization(directory)
    assert reloaded.delta_map() == spec.delta_map()


def test_tampered_delta_meta_respecializes(tmp_path):
    import json
    import os

    from repro.core.persist import load_specialization, save_specialization
    from repro.lang.errors import ArtifactError

    session = RenderSession(3, width=3, height=3, backend="scalar")
    spec = session.specialize("veinfreq")
    directory = str(tmp_path / "artifact")
    save_specialization(spec, directory)
    meta_path = os.path.join(directory, "spec.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    victim = sorted(meta["deltas"])[0]
    meta["deltas"][victim]["slots"] = [0, 1, 2, 3, 4, 5, 6, 7]
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)
    with pytest.raises(ArtifactError):
        load_specialization(directory)
    repaired = load_specialization(directory, on_mismatch="respecialize")
    assert repaired.delta_map() == spec.delta_map()
    # The repair rewrote consistent metadata.
    assert load_specialization(directory) is not None
