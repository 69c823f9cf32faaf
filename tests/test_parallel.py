"""The ``tile=`` knob: per-tile deadline degradation over one kernel call.

Every batch frame is one whole-frame kernel call; ``tile=`` only sets
how a supervised adjust meets its step deadline.  The reader's lane
costs are split at :func:`~repro.runtime.plan.plan_tiles` spans, and
each span whose worst lane blew the cap is served by the original
shader.  A tiled drag must therefore produce byte-identical colours and
exact CostMeter totals versus the untiled drag whenever nothing blows
the cap, for every shader, partition and execution mode, and exactly
the per-span mix of reader and original when some spans do.
"""

import pickle

import pytest

from repro import cli
from repro.lang import types as T
from repro.runtime import batch as batch_mod
from repro.runtime.plan import plan_tiles
from repro.runtime.supervise import SupervisorPolicy
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

requires_numpy = pytest.mark.skipif(
    not batch_mod.HAVE_NUMPY, reason="NumPy unavailable"
)


def _params_of(index):
    params = SHADERS[index].control_params
    return sorted({params[0], params[-1]})


def _drag(session, edit, param):
    """One load + one adjust; returns both images."""
    loaded = edit.load(session.controls)
    dragged = session.controls_with(
        **{param: session.controls[param] * 1.3 + 0.05}
    )
    return loaded, edit.adjust(dragged)


def _assert_equal(a, b, what):
    assert a.colors == b.colors, "%s: colors differ" % what
    assert a.total_cost == b.total_cost, (
        "%s: cost %d != %d" % (what, a.total_cost, b.total_cost)
    )


# -- tile planning -----------------------------------------------------------


def test_plan_tiles_covers_exactly_once():
    for n, tile, width in [(0, 8, None), (1, 8, None), (100, 7, None),
                           (100, 7, 10), (256, 64, 16), (9, 100, 3),
                           (30, 4, 10)]:
        plan = plan_tiles(n, tile, width)
        lanes = [i for (s, e) in plan for i in range(s, e)]
        assert lanes == list(range(n)), (n, tile, width, plan)
        if width:
            for s, e in plan:
                assert s % width == 0
                assert e == n or e % width == 0


def test_threads_spelling_is_rejected(capsys):
    """``repro serve --workers`` is accepted and ignored, but only with
    its old spellings: ``threads[:N]`` (and any other unknown spelling)
    still exits 2 naming the accepted ones."""
    parser = cli.build_parser()
    for spec in ("threads", "threads:2", "fork:x", "fork:0", "bogus", "-1"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["serve", "--workers", spec])
        assert exc.value.code == 2
        assert "'auto', or 'fork[:N]'" in capsys.readouterr().err
    for spec in ("0", "2", "auto", "fork", "fork:3"):
        assert parser.parse_args(["serve", "--workers", spec]).workers == spec
    with pytest.raises(TypeError):
        RenderSession(3, width=4, height=4, workers=2)


def test_type_singletons_survive_pickling():
    """Every consumer compares types with ``is``, so pickling must
    re-intern."""
    for ty in T.ALL_TYPES:
        assert pickle.loads(pickle.dumps(ty)) is ty


# -- byte-identity across every shader x partition ---------------------------


def _supervised(index, tile=None, width=8, height=6):
    return RenderSession(
        index, width=width, height=height, backend="batch", tile=tile,
        policy=SupervisorPolicy(deadline_steps=10 ** 9),
    )


@requires_numpy
@pytest.mark.parametrize("index", sorted(SHADERS))
def test_tile_parity_all_shaders(index):
    """A tile smaller than the frame under a deadline no lane blows:
    every shader and partition stays byte-identical to the untiled
    run, and no tile degrades."""
    for param in _params_of(index):
        base = _supervised(index)
        tiled = _supervised(index, tile=16)
        load_a, adj_a = _drag(base, base.begin_edit(param), param)
        edit = tiled.begin_edit(param)
        assert edit.plan.tiled and edit.plan.tile == 16
        load_b, adj_b = _drag(tiled, edit, param)
        _assert_equal(load_a, load_b, "shader %d %s load" % (index, param))
        _assert_equal(adj_a, adj_b, "shader %d %s adjust" % (index, param))
        assert edit.last_rung == "batch"
        assert tiled.supervisor.health()["tile_degradations"] == 0


@requires_numpy
def test_tile_sweep_degrades_exactly_the_blown_spans():
    """Shader 9's ``brickw`` reader costs 290 or 295 steps per pixel.
    Under a 292-step cap, each tile size degrades exactly the spans
    holding a 295-step lane: those pixels (and their costs) are the
    original shader's, every other pixel is the reader's."""
    index, param, cap = 9, "brickw", 292
    probe = RenderSession(index, width=10, height=5, backend="batch")
    edit = probe.begin_edit(param)
    edit.load(probe.controls)
    controls = probe.controls_with(brickw=probe.controls[param] * 1.1)
    n = len(probe.scene)
    spec = edit.specialization
    reader = edit.adjust(controls)
    _, reader_costs = spec.batch_kernel("reader").run_lanes(
        probe.batch_args(controls), n, cache=edit.caches
    )
    reader_costs = batch_mod.cost_list(reader_costs)
    assert min(reader_costs) <= cap < max(reader_costs)
    original = [
        spec.run_original(probe.args_for(pixel, controls))
        for pixel in probe.scene
    ]
    mixed = set()
    for tile in (7, 10, 11, 20, 1000):
        session = RenderSession(
            index, width=10, height=5, backend="batch", tile=tile,
            policy=SupervisorPolicy(deadline_steps=10 ** 9),
        )
        edit = session.begin_edit(param)
        edit.load(session.controls)
        session.supervisor.policy.deadline_steps = cap
        image = edit.adjust(controls)
        colors, costs, blown = [], [], 0
        for start, stop in plan_tiles(n, tile, 10):
            if max(reader_costs[start:stop]) > cap:
                blown += 1
                colors += [tuple(c) for c, _ in original[start:stop]]
                costs += [cost for _, cost in original[start:stop]]
            else:
                colors += reader.colors[start:stop]
                costs += reader_costs[start:stop]
        assert image.colors == colors, "tile=%d" % tile
        assert image.total_cost == sum(costs), "tile=%d" % tile
        health = session.supervisor.health()
        assert health["tile_degradations"] == blown
        mixed.add(0 < blown < len(plan_tiles(n, tile, 10)))
    assert True in mixed, "no tile size mixed reader and original spans"


@requires_numpy
def test_guarded_drag_ignores_tile():
    """Guarded requests run whole-frame (the guard wraps per-pixel
    fallbacks), so the tile knob must be a byte-identical no-op."""
    session = RenderSession(4, width=6, height=6, backend="batch",
                            guard=True, tile=8)
    base = RenderSession(4, width=6, height=6, backend="batch", guard=True)
    param = _params_of(4)[0]
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    edit = session.begin_edit(param)
    assert not edit.plan.tiled and edit.plan.tile is None
    load_b, adj_b = _drag(session, edit, param)
    _assert_equal(load_a, load_b, "guarded load")
    _assert_equal(adj_a, adj_b, "guarded adjust")


@requires_numpy
def test_supervised_parity_with_tile():
    base = _supervised(10, width=8, height=4)
    tiled = _supervised(10, tile=8, width=8, height=4)
    param = _params_of(10)[0]
    load_a, adj_a = _drag(base, base.begin_edit(param), param)
    edit = tiled.begin_edit(param)
    load_b, adj_b = _drag(tiled, edit, param)
    _assert_equal(load_a, load_b, "supervised load")
    _assert_equal(adj_a, adj_b, "supervised adjust")
    assert edit.last_rung == "batch"


@requires_numpy
def test_dispatch_table_parity_with_tile():
    """Dispatch-table drags stay untiled; the tile must not change
    their output either."""
    base = RenderSession(6, width=6, height=4, backend="batch")
    tiled = RenderSession(6, width=6, height=4, backend="batch", tile=6)
    param = _params_of(6)[0]
    load_a, adj_a = _drag(base, base.begin_edit(param, dispatch=True), param)
    load_b, adj_b = _drag(tiled, tiled.begin_edit(param, dispatch=True),
                          param)
    _assert_equal(load_a, load_b, "dispatch load")
    _assert_equal(adj_a, adj_b, "dispatch adjust")


# -- per-tile deadlines ------------------------------------------------------


@requires_numpy
def test_supervised_tile_degradation_serves_original():
    """A blown adjust tile degrades alone to the original shader; the
    supervisor counts it and the frame matches the original frame."""
    # A generous deadline for the load, then one its adjust tiles blow;
    # three requests before the breaker may trip keep it closed.
    policy = SupervisorPolicy(deadline_steps=10 ** 9, breaker_min_requests=3)
    session = RenderSession(3, width=6, height=4, policy=policy,
                            backend="batch", tile=6)
    param = "veinfreq"
    edit = session.begin_edit(param)
    edit.load(session.controls)
    controls = session.controls_with(veinfreq=3.0)
    policy.deadline_steps = 5
    image = edit.frame(controls)
    original = session.render_reference(
        controls, specialization=edit.specialization
    )
    assert image.colors == original.colors
    assert image.total_cost == original.total_cost
    assert edit.last_rung == "batch"
    tiles = len(plan_tiles(len(session.scene), 6, 6))
    health = session.supervisor.health()
    assert health["tile_degradations"] == health["deadline_misses"] == tiles
    causes = {i["cause"] for i in health["incidents"]}
    assert causes == {"tile_deadline"}


@requires_numpy
def test_tile_degradation_marks_request_bad_for_breaker():
    """note_tile_degradation flags the enclosing request as bad, so
    repeated per-tile misses trip the breaker like frame misses do."""
    from repro.runtime.supervise import RenderSupervisor

    policy = SupervisorPolicy(deadline_steps=10 ** 9)
    supervisor = RenderSupervisor(policy)
    key = ("marble", "veinfreq")
    supervisor.note_tile_degradation(key, "adjust", 0, 0, 6, 999)
    assert supervisor._request_tile_misses == 1
    assert supervisor.tile_degradations == 1
    assert supervisor.deadline_misses == 1


def test_cache_container_protocol():
    session = RenderSession(2, width=3, height=3)
    param = _params_of(2)[0]
    edit = session.begin_edit(param)
    edit.load(session.controls)
    assert len(edit.caches) == 9
    rows = list(edit.caches)
    assert len(rows) == 9
