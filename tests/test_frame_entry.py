"""``EditSession.frame``: the one place that picks load or adjust.

The paper's contract (Section 2) is that a reader runs only against a
cache its loader built under the same invariant inputs; its interaction
model (Sections 1 and 5) follows: run the loader when an invariant
input changes, the reader otherwise.  ``frame`` makes that choice from
the loaded controls, and ``adjust`` refuses to break the contract: it
raises before the first load and raises
:class:`~repro.lang.errors.StaleCacheError` when an invariant differs
from the loaded controls, on every kind of drag.

The state machine at the bottom checks ``frame`` against the
unspecialized oracle after every step (Gallagher & Glück's cross-check
of a specialized run against a concrete executor).
"""

import struct

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.lang.errors import EvalError, SpecializationError, StaleCacheError
from repro.runtime.supervise import SupervisorPolicy
from repro.shaders.render import MAX_DIRTY_FRACTION, RenderSession
from repro.shaders.sources import SHADERS

#: name -> (shader, dragged param, another control, session options,
#: begin_edit options)
DRAGS = {
    "scalar": (3, "veinfreq", "b1", {"backend": "scalar"}, {}),
    "batch": (3, "veinfreq", "b1", {"backend": "batch"}, {}),
    "guarded": (3, "veinfreq", "b1", {"backend": "batch", "guard": True},
                {}),
    "supervised": (3, "veinfreq", "b1",
                   {"backend": "batch", "policy": SupervisorPolicy()}, {}),
    "dispatch": (9, "brickw", "ka", {}, {"dispatch": True}),
    "tiled": (3, "veinfreq", "b1", {"backend": "batch", "tile": 16}, {}),
}


@pytest.fixture(params=sorted(DRAGS))
def drag(request):
    shader, param, other, options, edit_options = DRAGS[request.param]
    session = RenderSession(shader, width=8, height=6, **options)
    try:
        edit = session.begin_edit(param, **edit_options)
        if request.param == "dispatch":
            assert edit.table is not None
        yield session, edit, other
    finally:
        session.close()


def test_adjust_before_load_raises(drag):
    session, edit, _ = drag
    with pytest.raises(SpecializationError,
                       match=r"adjust\(\) before load") as err:
        edit.adjust(session.controls)
    assert not isinstance(err.value, StaleCacheError)
    assert edit.last_path is None


def test_adjust_after_invariant_edit_raises_stale(drag):
    session, edit, other = drag
    edit.load(session.controls)
    moved = session.controls_with(**{other: session.controls[other] * 0.5})
    with pytest.raises(StaleCacheError, match=r"since load\(\): %s$" % other):
        edit.adjust(moved)
    assert edit.last_path == "full"
    edit.frame(moved)
    assert edit.last_path == "full"
    dragged = dict(moved, **{edit.param: moved[edit.param] * 1.5})
    edit.adjust(dragged)
    assert edit.last_path == "adjust"
    with pytest.raises(StaleCacheError):
        edit.adjust(session.controls)


def test_invariants_compare_by_float_bits():
    session = RenderSession(3, width=4, height=4, backend="batch")
    try:
        edit = session.begin_edit("veinfreq")
        edit.frame(session.controls_with(b1=float("nan")))
        assert edit._changed_invariants(
            session.controls_with(b1=float("nan"))
        ) == set()
        edit.frame(session.controls_with(b1=float("nan"), veinfreq=7.0))
        assert edit.last_path == "adjust"
        edit.frame(session.controls_with(b1=0.0))
        assert edit.last_path == "full"
        with pytest.raises(StaleCacheError):
            edit.adjust(session.controls_with(b1=-0.0))
        edit.frame(session.controls_with(b1=-0.0))
        assert edit.last_path == "full"
    finally:
        session.close()


# -- differential state machine ------------------------------------------------

SHADER = 3
PARAMS = SHADERS[SHADER].control_params
#: Control values: ordinary floats plus NaN and both zeros.
VALUES = st.one_of(
    st.sampled_from((float("nan"), 0.0, -0.0)),
    st.floats(-2.0, 12.0, allow_nan=False),
)


def _bits(colors):
    return [struct.pack("<3d", *row) for row in colors]


class FrameMachine(RuleBasedStateMachine):
    """Random drags through ``frame``: after every step the colours are
    bit-identical to the unspecialized shader, and ``last_path`` is the
    one the changed invariants call for."""

    backend = "batch"
    incremental = False

    def __init__(self):
        super().__init__()
        self.session = RenderSession(
            SHADER, width=8, height=8, backend=self.backend,
            incremental=self.incremental,
        )
        self.controls = dict(self.session.controls)
        self.param = PARAMS[0]
        self.edit = None

    @rule(value=VALUES)
    def move_dragged(self, value):
        self.controls[self.param] = value
        self._frame()

    @rule(name=st.sampled_from(PARAMS), value=VALUES)
    def move_invariant(self, name, value):
        assume(name != self.param)
        self.controls[name] = value
        self._frame()

    @rule(name=st.sampled_from(PARAMS))
    def switch_param(self, name):
        self.close()
        self.param = name
        self._frame()

    @rule()
    def close(self):
        if self.edit is not None:
            self.edit.close()
            self.edit = None

    def teardown(self):
        self.session.close()

    def _expected_path(self, edit):
        if not edit._loaded():
            return "full"
        changed = edit._changed_invariants(self.controls)
        if not changed:
            return "adjust"
        if not self.incremental:
            return "full"
        spec = edit.specialization
        dirty = spec.dirty_slots(changed)
        if not dirty:
            return "noop"
        if len(dirty) > MAX_DIRTY_FRACTION * len(spec.layout):
            return "full"
        return "delta"

    def _frame(self):
        if self.edit is None:
            self.edit = self.session.begin_edit(self.param)
        edit = self.edit
        expected = self._expected_path(edit)
        try:
            image = edit.frame(self.controls)
        except EvalError:
            # The scalar interpreter faults on some inputs (a NaN fed
            # to noise); the oracle must fault on them too.
            with pytest.raises(EvalError):
                self.session.render_reference(
                    self.controls, specialization=edit.specialization
                )
            return
        assert edit.last_path == expected
        reference = self.session.render_reference(
            self.controls, specialization=edit.specialization
        )
        assert _bits(image.colors) == _bits(reference.colors), (
            "%s frame diverges from the oracle" % edit.last_path
        )


def _machine_test(backend, incremental):
    machine = type(
        "FrameMachine_%s_%s" % (backend, incremental), (FrameMachine,),
        {"backend": backend, "incremental": incremental},
    )
    case = machine.TestCase
    case.settings = settings(
        max_examples=8, stateful_step_count=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    return case


TestScalarFrames = _machine_test("scalar", False)
TestScalarIncrementalFrames = _machine_test("scalar", True)
TestBatchFrames = _machine_test("batch", False)
TestBatchIncrementalFrames = _machine_test("batch", True)
