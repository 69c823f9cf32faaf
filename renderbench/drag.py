"""``drag``: the paper's interaction, one user in a closed loop.

Each drag opens a fresh 64x64 ``RenderSession`` on one (shader,
partition) pair, loads once, then runs :data:`ADJUSTS` ``adjust``
frames that move only the partition parameter.  A run covers every one
of the 131 partitions in a seeded order, and repeats whole passes until
``--seconds`` have been measured, so the mix of partitions (and with it
every median and tail) is the same on every seed.  The reader does most
of the work; parse, specialize, codegen and cache fill show only in
``first_frame_ms``.  Delta loaders, tiling and the daemon are bypassed.
"""

from __future__ import annotations

import random

from . import common, layers
from .common import now
from .oracle import Frame
from .spans import NULL_RECORDER, Recorder

#: Adjust frames per drag: 131 x 4 = 524 latency samples per pass, so
#: 26 lie beyond the p95 (the tail rule's level).
ADJUSTS = 4

#: Warm-up run in a fresh interpreter to time the editor's cold start.
COLD_START = (
    "from repro.shaders.render import RenderSession\n"
    "s = RenderSession(1, width=%d, height=%d)\n"
    "e = s.begin_edit('ka')\n"
    "e.load(s.controls)\n"
    "e.adjust(s.controls_with(ka=0.3))\n"
    "print('ready')\n" % (common.SIZE, common.SIZE)
)


class Drag(object):
    __slots__ = ("shader", "param", "values")

    def __init__(self, shader, param, values):
        self.shader = shader
        self.param = param
        #: Slider positions of the adjust frames.
        self.values = values


def plan(seed):
    """The seeded pass: every partition once, with its slider walk."""
    rng = random.Random(seed)
    order = common.partitions()
    rng.shuffle(order)
    drags = []
    for shader, param in order:
        value = common.controls_of(shader)[param]
        values = []
        for _ in range(ADJUSTS):
            value = common.nudge(rng, value)
            values.append(value)
        drags.append(Drag(shader, param, values))
    return drags


def drag_once(drag, rec, obs_factory, op):
    """One timed drag; returns (session, spec, first_frame_s, frames,
    adjust latencies, wall seconds)."""
    from repro.shaders.render import RenderSession

    frames = []
    latencies = []
    start = now()
    with rec.span("drag", op=op, shader=drag.shader, param=drag.param) as root:
        with rec.span("session"):
            session = RenderSession(
                drag.shader, width=common.SIZE, height=common.SIZE,
                obs=obs_factory(),
            )
        with rec.span("specialize"):
            spec = session.specialize(drag.param)
        with rec.span("codegen"):
            spec.batch_loader.vectorized
            spec.batch_reader.vectorized
        edit = session.begin_edit(drag.param)
        base = dict(session.controls)
        with rec.span("load", path="full", pixels=common.PIXELS) as span:
            image = edit.load(base)
        if span is not None:
            span.attrs["cost"] = image.total_cost
        first = now() - start
        frames.append(Frame("load", base, image.colors, image.total_cost))
        for value in drag.values:
            controls = dict(base)
            controls[drag.param] = value
            t0 = now()
            with rec.span("adjust", pixels=common.PIXELS) as span:
                image = edit.adjust(controls)
            latencies.append(now() - t0)
            if span is not None:
                span.attrs["cost"] = image.total_cost
            frames.append(
                Frame("adjust", controls, image.colors, image.total_cost,
                      prior=base)
            )
        edit.close()
    wall = now() - start
    if root is not None:
        rec.adopt(session.obs.tracer.spans, session.obs.tracer.epoch, root)
    return session, spec, first, frames, latencies, wall


def run(seed, seconds, trace, report):
    from repro.obs import Observability

    calibration = common.Calibration()
    calibration.phase = "setup"
    setups = []
    # A burst of samples around each cold start: with one sample each,
    # the set-up factor rested on six samples and spread setup_s more
    # than it steadied it.
    for _ in range(common.SETUP_REPEATS):
        calibration.burst(common.IDLE_SAMPLES, common.IDLE_GAP_S)
        setups.append(common.cold_start_seconds(COLD_START))
    calibration.burst(common.IDLE_SAMPLES, common.IDLE_GAP_S)
    calibration.phase = "loop"
    drags = plan(seed)
    rng = random.Random(seed ^ 0x5EED)
    scalar_pick = (rng.randrange(len(drags)), rng.randrange(ADJUSTS + 1))
    # Warm this process the same way (lazy imports, first NumPy use)
    # so the first timed drag is not charged for it.
    drag_once(Drag(1, "ka", [0.3]), NULL_RECORDER, lambda: None, op=-1)
    common.freeze_heap()

    def passes(variants):
        """Whole passes until the timed wall reaches ``seconds``.  Each
        drag runs once per ``(recorder, obs factory, tally)`` variant,
        back to back, so a traced and an untraced variant see the same
        host conditions.  Returns (passes, adjust frames, adjust frames
        moving an invariant) of the last variant."""
        count = 0
        edits = [0, 0]
        last = variants[-1][2]
        while True:
            count += 1
            for op, drag in enumerate(drags):
                for rec, obs_factory, tally in variants:
                    session, spec, first, frames, lats, wall = drag_once(
                        drag, rec, obs_factory, op
                    )
                    calibration.sample()
                    tally.add_session(spec, first, wall)
                    tally.latencies.extend(lats)
                    for k, frame in enumerate(frames):
                        if frame.phase == "adjust" and tally is last:
                            edits[0] += 1
                            edits[1] += any(
                                frame.controls[name] != frame.prior[name]
                                for name in frame.controls
                                if name != drag.param
                            )
                        scalar = count == 1 and (op, k) == scalar_pick
                        tally.check(session, spec, frame,
                                    first if k == 0 else lats[k - 1],
                                    scalar and tally is last)
            if last.timed_wall >= seconds:
                return count, edits[0], edits[1]

    tally = layers.Tally(len(drags) * ADJUSTS)
    if trace:
        rec = Recorder()
        untraced = layers.Tally(len(drags) * ADJUSTS)
        variants = [(NULL_RECORDER, lambda: None, untraced),
                    (rec, Observability, tally)]
    else:
        variants = [(NULL_RECORDER, lambda: None, tally)]
    count, adjusts, invariant = passes(variants)
    tally.finish(report)
    report.note(
        "properties: invariant_edit_share=%.3f of %d adjust frames; "
        "%d pass(es) over %d partitions, %.1f s timed"
        % (invariant / float(adjusts), adjusts, count, len(drags),
           tally.timed_wall)
    )
    if trace:
        layers.in_process(report, rec, tally, untraced)
        layers.absent_daemon(report)
        report.note("trace: %s" % layers.write_trace(rec, "drag", seed))
        return
    layers.end_to_end(report, tally, setups, calibration)
