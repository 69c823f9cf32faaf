"""``animate``: incremental edits, one user in a closed loop.

After one load on each (shader, partition) pair, every frame moves one
to three *invariant* parameters: a seeded sweep of one and seeded
orbits of two and three, from the program's own animation generators
(``repro.bench.animation``).  Sessions run with
``incremental=True``, untiled, so ``EditSession.load`` serves each frame
by a delta refill, a reader-only noop, or a full-load fallback.  This
uses the cache the other way round from ``drag``: loader and
delta-loader kernels write most of it and the reader runs once per
frame; the specializer runs only in set-up.

A run covers every one of the 131 partitions in a seeded order, with
one seeded script of :data:`FRAMES` frames each, so the mix of shaders
and partitions is the same on every seed.  Each pair is set up (fresh
session, specialize, first load), animated, checked and closed before
the next; ``setup_s`` is the median, over five consecutive fifths of
the pairs, of their summed set-up time.
"""

from __future__ import annotations

import random

from . import common, layers
from .common import now
from .oracle import Frame
from .spans import NULL_RECORDER, Recorder

#: Frames per segment; three segments per pair give 131 x 6 = 786
#: samples per pass, 39 beyond the p95 (the tail rule's level).
SEGMENT = 2
FRAMES = 3 * SEGMENT


class Pair(object):
    __slots__ = ("shader", "param", "frames")

    def __init__(self, shader, param, frames):
        self.shader = shader
        self.param = param
        #: Full control dicts, one per edit frame.
        self.frames = frames


def script(rng, shader, param):
    """Seeded edit frames for one pair: a sweep of one invariant slider
    (``repro.bench.animation.sweep_script``) and orbits of two and three
    sliders (``orbit_script``), :data:`SEGMENT` frames each, in seeded
    order.  The sliders moved are the ones after the partition's in
    declaration order (one, then the next two, then the next three), so
    every seed moves the same sliders of each pair and the mix of small
    and large dirty sets is fixed; the seed sets the order, the steps
    and the orbits.  Each segment starts from the controls the previous
    one left, and each frame applies its updates on top of the last."""
    from repro.bench.animation import orbit_script, sweep_script
    from repro.shaders.sources import SHADERS

    params = SHADERS[shader].control_params
    at = params.index(param)
    following = params[at + 1:] + params[:at]
    groups = {1: following[0:1], 2: following[1:3], 3: following[3:6]}
    controls = common.controls_of(shader)
    widths = [1, 2, 3]
    rng.shuffle(widths)
    frames = []
    for width in widths:
        if width == 1:
            segments = sweep_script(rng, controls, groups[1], SEGMENT)
        else:
            segments = orbit_script(rng, controls, groups[width], SEGMENT)
        for _, _, steps in segments:
            for updates in steps:
                controls = dict(controls)
                controls.update(updates)
                frames.append(controls)
    return frames


def plan(seed):
    """Every partition once, in a seeded order, each with its script."""
    rng = random.Random(seed)
    order = common.partitions()
    rng.shuffle(order)
    return [Pair(shader, param, script(rng, shader, param))
            for shader, param in order]


def build(pair, rec, obs, op):
    """Set-up for one pair: a fresh incremental session, specialized and
    loaded once.  Returns (session, edit, first load Frame, seconds)."""
    from repro.shaders.render import RenderSession

    start = now()
    with rec.span("setup", op=op, shader=pair.shader,
                  param=pair.param) as root:
        with rec.span("session"):
            session = RenderSession(
                pair.shader, width=common.SIZE, height=common.SIZE,
                incremental=True, obs=obs,
            )
        with rec.span("specialize"):
            spec = session.specialize(pair.param)
        with rec.span("codegen"):
            spec.batch_loader.vectorized
            spec.batch_reader.vectorized
        edit = session.begin_edit(pair.param)
        controls = dict(session.controls)
        with rec.span("load", path="full", pixels=common.PIXELS) as span:
            image = edit.load(controls)
        if span is not None:
            span.attrs["cost"] = image.total_cost
    seconds = now() - start
    if root is not None:
        rec.adopt(session.obs.tracer.spans, session.obs.tracer.epoch, root)
    return session, edit, Frame("load", controls, image.colors,
                                image.total_cost), seconds


def path_for(spec, prior, controls):
    """The load path the documented routing rule predicts, from the
    public dirty-slot map: ``noop`` for no dirty slot, ``delta`` up to
    ``MAX_DIRTY_FRACTION`` of the slots, ``full`` beyond."""
    from repro.shaders.render import MAX_DIRTY_FRACTION

    changed = {
        name for name in controls
        if controls[name] != prior[name] and name not in spec.varying
    }
    dirty = spec.dirty_slots(changed)
    slots = len(spec.layout)
    fraction = len(dirty) / float(slots) if slots else 0.0
    if not dirty:
        path = "noop"
    elif fraction <= MAX_DIRTY_FRACTION:
        path = "delta"
    else:
        path = "full"
    return path, dirty, fraction


PHASE_OF_PATH = {"noop": "noop", "delta": "delta", "full": "load"}


def animate_pair(pair, session, edit, rec, op):
    """The timed frames of one pair; returns (frames, latencies, wall,
    fractions, predicted paths, actual paths)."""
    spec = edit.specialization
    prior = dict(session.controls)
    frames, latencies, fractions, predicted, actual = [], [], [], [], []
    mark = len(session.obs.tracer.spans) if rec.enabled else 0
    start = now()
    with rec.span("animate", op=op, shader=pair.shader,
                  param=pair.param) as root:
        for controls in pair.frames:
            path, dirty, fraction = path_for(spec, prior, controls)
            t0 = now()
            with rec.span("load", edit=True, pixels=common.PIXELS,
                          dirty_fraction=fraction) as span:
                image = edit.load(controls)
            latencies.append(now() - t0)
            if span is not None:
                served = session.obs.tracer.spans[-1]
                span.attrs["path"] = served.attrs.get("path")
                span.attrs["cost"] = image.total_cost
                actual.append(span.attrs["path"])
            frames.append(Frame(PHASE_OF_PATH[path], controls, image.colors,
                                image.total_cost, prior=prior, dirty=dirty))
            fractions.append(fraction)
            predicted.append(path)
            prior = controls
    wall = now() - start
    if root is not None:
        rec.adopt(session.obs.tracer.spans[mark:], session.obs.tracer.epoch,
                  root)
    return frames, latencies, wall, fractions, predicted, actual


def run_once(pairs, seed, seconds, variants, calibration):
    """Passes over all pairs until the timed wall of the last variant
    reaches ``seconds``.  Each pair is set up, animated and checked once
    per ``(recorder, obs factory, tally)`` variant, back to back, so a
    traced and an untraced variant see the same host conditions.
    Returns the set-up time of each group of pairs, the pass count and
    the property tallies of the last variant."""
    rng = random.Random(seed ^ 0x5EED)
    scalar_pick = (rng.randrange(len(pairs)), rng.randrange(FRAMES))
    groups = [0.0] * common.SETUP_REPEATS
    fractions, predicted, actual = [], [], []
    last = variants[-1][2]
    passes = 0
    while passes == 0 or last.timed_wall < seconds:
        passes += 1
        for op, pair in enumerate(pairs):
            for rec, obs_factory, tally in variants:
                session, edit, frame, took = build(
                    pair, rec, obs_factory(), op
                )
                if passes == 1 and tally is last:
                    groups[op * common.SETUP_REPEATS // len(pairs)] += took
                tally.first_frames.append(took)
                spec = edit.specialization
                tally.check(session, spec, frame, took, timed=False)
                frames, latencies, wall, fr, pred, act = animate_pair(
                    pair, session, edit, rec, op
                )
                edit.close()
                calibration.sample()
                tally.timed_wall += wall
                tally.cache_bytes.append(spec.cache_size_bytes)
                tally.cache_slots.append(len(spec.layout))
                tally.latencies.extend(latencies)
                if tally is last:
                    fractions.extend(fr)
                    predicted.extend(pred)
                    actual.extend(act)
                scalar = passes == 1 and tally is last
                for k, (frame, took) in enumerate(zip(frames, latencies)):
                    tally.check(session, spec, frame, took,
                                scalar=scalar and (op, k) == scalar_pick)
    return groups, passes, fractions, predicted, actual


def run(seed, seconds, trace, report):
    from repro.obs import Observability
    from repro.shaders.render import MAX_DIRTY_FRACTION

    pairs = plan(seed)
    # Warm lazy imports and first NumPy use outside any timing.
    build(pairs[0], NULL_RECORDER, None, -1)[1].close()
    common.freeze_heap()
    calibration = common.Calibration()
    tally = layers.Tally(len(pairs) * FRAMES)
    if trace:
        rec = Recorder()
        untraced = layers.Tally(len(pairs) * FRAMES)
        variants = [(NULL_RECORDER, lambda: None, untraced),
                    (rec, Observability, tally)]
    else:
        variants = [(NULL_RECORDER, lambda: None, tally)]
    setups, passes, fractions, predicted, actual = run_once(
        pairs, seed, seconds, variants, calibration
    )
    tally.finish(report)
    n = len(predicted)
    report.note(
        "properties: %d edit frames; dirty_fraction<=%.1f share=%.3f; "
        "predicted paths delta=%.3f noop=%.3f full=%.3f; %d pass(es), "
        "%.1f s timed"
        % (n, MAX_DIRTY_FRACTION,
           sum(1 for f in fractions if f <= MAX_DIRTY_FRACTION) / float(n),
           predicted.count("delta") / float(n),
           predicted.count("noop") / float(n),
           predicted.count("full") / float(n), passes, tally.timed_wall)
    )
    if trace:
        mismatched = sum(1 for p, a in zip(predicted, actual) if p != a)
        report.note("served paths differing from the prediction: %d of %d"
                    % (mismatched, len(actual)))
        layers.in_process(report, rec, tally, untraced)
        layers.absent_daemon(report)
        report.note("trace: %s" % layers.write_trace(rec, "animate", seed))
        return
    layers.end_to_end(report, tally, setups, calibration)
