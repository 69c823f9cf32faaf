"""Span coverage and the cost of disabled tracing (run with
``-m tracesmoke``; deselected by default).

A full traced drag (parse -> specialize -> load -> adjusts) of shader 1
per backend, and again on a fork pool when one is available, must stay
byte-identical to an untraced drag, and its root spans must cover at
least ``MIN_COVERAGE`` of the pipeline's wall time, so a flamegraph
accounts for where the time goes.  Running with tracing disabled (the
default) must cost no more than ``MAX_DISABLED_OVERHEAD`` over a
second untraced run.
"""

import gc
import time

import pytest

from repro.obs import Observability
from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.shaders.render import RenderSession

SHADER = 1
SIZE = 32
PARAM = "kd"
ADJUSTS = 4
#: Spans must cover at least this share of pipeline wall time.
MIN_COVERAGE = 0.90
#: Loose ceiling on the disabled path's overhead vs a second untraced
#: run: the contract is <2%, but wall-clock noise at this scale makes a
#: tight gate flaky; egregious regressions still trip it.
MAX_DISABLED_OVERHEAD = 0.25


def _drag(backend, obs=None, **knobs):
    """One full pipeline run: ``(signature, obs, wall_seconds)``.

    A full collection first: otherwise a generation-2 pass (~60 ms,
    a third of a drag) lands in whichever drag the earlier tests'
    allocations happen to put it, and the timings compare GC phase
    rather than the traced and untraced paths."""
    gc.collect()
    start = time.perf_counter()
    session = RenderSession(SHADER, width=SIZE, height=SIZE,
                            backend=backend, obs=obs, **knobs)
    edit = session.begin_edit(PARAM)
    frames = [edit.load(session.controls)]
    for i in range(ADJUSTS):
        value = session.controls[PARAM] * (1.0 + 0.1 * (i + 1))
        frames.append(edit.adjust(session.controls_with(**{PARAM: value})))
    signature = [(f.colors, f.total_cost) for f in frames]
    return signature, session.obs, time.perf_counter() - start


def _assert_traced_run_covered(backend, **knobs):
    plain, _, _ = _drag(backend, **knobs)
    traced, obs, wall = _drag(backend, obs=Observability(), **knobs)
    assert plain == traced, "%s: traced run diverged" % backend
    coverage = obs.tracer.total_seconds() / wall
    assert coverage >= MIN_COVERAGE, (
        "%s: spans cover only %.1f%% of pipeline wall time (need >= %.0f%%)"
        % (backend, coverage * 100.0, MIN_COVERAGE * 100.0)
    )
    totals = obs.tracer.stage_totals()
    assert {"render.load", "render.adjust"} <= set(totals)
    return totals


@pytest.mark.tracesmoke
@pytest.mark.parametrize("backend", ["scalar", "batch"])
def test_traced_drag_is_identical_and_covered(backend):
    _assert_traced_run_covered(backend)


@pytest.mark.tracesmoke
@pytest.mark.skipif(
    not (B.HAVE_NUMPY and P._fork_available()),
    reason="needs numpy and the fork start method",
)
def test_traced_fork_drag_is_identical_and_covered():
    totals = _assert_traced_run_covered("batch", workers="fork:2", tile=256)
    assert totals.get("worker.tile", {}).get("count", 0) > 0


@pytest.mark.tracesmoke
def test_disabled_tracing_costs_nothing():
    first, _, first_s = _drag("scalar")
    second, _, second_s = _drag("scalar")
    assert first == second
    _, _, disabled_s = _drag("scalar")
    overhead = disabled_s / min(first_s, second_s) - 1.0
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        "disabled-path overhead %.1f%% exceeds %.0f%%"
        % (overhead * 100.0, MAX_DISABLED_OVERHEAD * 100.0)
    )
