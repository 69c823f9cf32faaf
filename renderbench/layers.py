"""Turning a run's samples into metrics: the tally every workload fills,
the end-to-end metrics of an untraced run, and the per-layer metrics of
a traced one (read from the recorded spans)."""

from __future__ import annotations

import os

from . import common, stats
from .oracle import Oracle
from .spans import self_times

#: Specializer stages reported one by one (``repro.obs`` span names).
STAGES = ("inline", "ssa", "reassoc", "dependence", "caching", "split")


class Tally(object):
    """Samples and checks of one timed loop."""

    def __init__(self, pass_samples=None):
        self.oracle = Oracle()
        self.first_frames = []
        #: Calibration phase the first frames were served in.
        self.first_frame_phase = "loop"
        self.latencies = []
        #: Latency samples one pass yields; fixes the tail level.
        self.pass_samples = pass_samples
        self.timed_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.on_time_ok = 0
        self.cost = 0
        self.pixels = 0
        self.cache_bytes = []
        self.cache_slots = []

    def add_session(self, spec, first_frame_s, wall_s):
        self.first_frames.append(first_frame_s)
        self.timed_wall += wall_s
        self.cache_bytes.append(spec.cache_size_bytes)
        self.cache_slots.append(len(spec.layout))

    def check(self, session, spec, frame, seconds, scalar=False, timed=True):
        """Count one served frame and check it; returns True when its
        output is right.  Frames outside the timed loop (``timed=False``)
        count as attempted but add no pixels or cost."""
        ok = self.oracle.batch(session, spec, frame.controls, frame.colors)
        if scalar:
            ok = self.oracle.scalar(session, spec, frame) and ok
        self.served(len(frame.colors), frame.cost, ok, seconds, timed)
        return ok

    def served(self, pixels, cost, ok, seconds, timed=True):
        self.attempted += 1
        if timed:
            self.pixels += pixels
            self.cost += cost
        if not ok:
            self.failed += 1
        elif seconds * 1000.0 <= common.SLO_MS:
            self.on_time_ok += 1

    def finish(self, report):
        report.attempted += self.attempted
        report.failed += self.failed
        report.correct = report.correct and self.failed == 0
        report.note(self.oracle.summary())


def end_to_end(report, tally, setups, calibration, peak_rss_mb=None,
               closed_loop=True):
    """The untraced run's metrics from its tally.  Times, and closed-loop
    throughput, are rescaled to the reference host by the calibration
    factor of the phase they were taken in; the raw wall values are
    noted.  Open-loop throughput is set by the arrival schedule and is
    not rescaled."""
    scale = {
        "setup_s": calibration.factor("setup"),
        "first_frame_ms.p50": calibration.factor(tally.first_frame_phase),
        "latency_ms.p50": calibration.factor("loop"),
    }
    scale["latency_ms.tail"] = scale["throughput_px_s"] = scale[
        "latency_ms.p50"
    ]
    raw = {
        "setup_s": (stats.median(setups), len(setups)),
        "first_frame_ms.p50": (stats.median(tally.first_frames) * 1000.0,
                               len(tally.first_frames)),
        "latency_ms.p50": (stats.median(tally.latencies) * 1000.0,
                           len(tally.latencies)),
    }
    level, tail = stats.tail([s * 1000.0 for s in tally.latencies],
                             level_n=tally.pass_samples)
    raw["latency_ms.tail"] = (tail, len(tally.latencies))
    for name, (value, count) in raw.items():
        report.put(name, value * scale[name], count)
    throughput = tally.pixels / tally.timed_wall
    report.put("throughput_px_s",
               throughput / scale["throughput_px_s"] if closed_loop
               else throughput,
               tally.pixels // common.PIXELS)
    report.note("latency_ms.tail is the %s of %d samples"
                % (stats.level_label(level), len(tally.latencies)))
    report.note(
        "host calibration: factors setup %.3f, loop %.3f from %d samples; "
        "raw wall: %s, throughput_px_s=%.6g"
        % (scale["setup_s"], scale["latency_ms.p50"],
           len(calibration.samples), ", ".join(
               "%s=%.6g" % (name, value) for name, (value, _) in raw.items()
           ), throughput)
    )
    frames = tally.pixels // common.PIXELS
    report.put("cost_steps_per_px", tally.cost / float(tally.pixels), frames)
    report.put("slo_attainment", tally.on_time_ok / float(tally.attempted),
               tally.attempted)
    report.put("ok_share", 1.0 - tally.failed / float(tally.attempted),
               tally.attempted)
    if peak_rss_mb is None:
        peak_rss_mb = common.peak_rss_mb_self()
    report.put("peak_rss_mb", peak_rss_mb)


def _median_ms(spans):
    if not spans:
        return 0.0
    return stats.median([s.duration for s in spans]) * 1000.0


def _rate(spans):
    """(pixels per second, steps per pixel) over spans that carry
    ``pixels`` and ``cost`` attributes."""
    pixels = sum(s.attrs.get("pixels", 0) for s in spans)
    seconds = sum(s.duration for s in spans)
    cost = sum(s.attrs.get("cost", 0) for s in spans)
    if not pixels or seconds <= 0.0:
        return 0.0, 0.0
    return pixels / seconds, cost / float(pixels)


def _share(part, whole):
    return part / float(whole) if whole else 0.0


def front_end(report, rec):
    """Frontend, specializer and codegen metrics from the spans around
    ``RenderSession(...)``, ``specialize`` and the first kernel access."""
    parses = rec.named("frontend.parse", "program")
    report.put("frontend.parse_ms", _median_ms(parses), len(parses))
    specs = rec.named("specialize", "bench")
    report.put("specialize.ms", _median_ms(specs), len(specs))
    for stage in STAGES:
        report.put("specialize.%s_ms" % stage,
                   _median_ms(rec.named("specialize." + stage, "program")))
    codegen = rec.named("codegen", "bench")
    report.put("codegen.ms", _median_ms(codegen), len(codegen))


def in_process(report, rec, tally, untraced):
    """Per-layer metrics of a workload that runs the program in this
    process, from the benchmark's spans and the adopted program spans."""
    front_end(report, rec)

    loads = rec.named("load", "bench")
    full = [s for s in loads if s.attrs.get("path") == "full"]
    reads = rec.named("adjust", "bench") + [
        s for s in loads if s.attrs.get("path") == "noop"
    ]
    deltas = [s for s in loads if s.attrs.get("path") == "delta"]
    for prefix, spans in (("loader", full), ("reader", reads)):
        px_s, steps = _rate(spans)
        report.put(prefix + ".ms", _median_ms(spans), len(spans))
        report.put(prefix + ".px_s", px_s, len(spans))
        report.put(prefix + ".cost_steps_per_px", steps, len(spans))
    report.put("cache.bytes_per_px", stats.mean(tally.cache_bytes),
               len(tally.cache_bytes))
    report.put("cache.slots", stats.mean(tally.cache_slots),
               len(tally.cache_slots))

    edits = [s for s in loads if s.attrs.get("edit")]
    report.put("delta.ms", _median_ms(deltas), len(deltas))
    for name, path in (("delta.share", "delta"),
                       ("delta.noop_share", "noop"),
                       ("delta.fallback_share", "full")):
        hits = sum(1 for s in edits if s.attrs.get("path") == path)
        report.put(name, _share(hits, len(edits)), len(edits))
    fractions = [s.attrs["dirty_fraction"] for s in edits]
    report.put("delta.dirty_fraction.mean",
               stats.mean(fractions) if fractions else 0.0, len(fractions))

    frames = rec.named("render.load", "program") + rec.named(
        "render.adjust", "program"
    )
    degraded = sum(1 for s in frames if s.attrs.get("rung") != "batch")
    report.put("supervise.degraded_share", _share(degraded, len(frames)),
               len(frames))
    # The traced and untraced runs of each operation ran back to back,
    # so their walls compare without host calibration.
    report.put("obs.trace_overhead",
               tally.timed_wall / untraced.timed_wall - 1.0)
    _self_time_notes(report, rec)


def absent_daemon(report):
    """Layers an in-process workload bypasses read 0: no tiles, no
    daemon, no load generator."""
    for name in ("pool.tile_ms", "pool.chunks_per_frame",
                 "pool.warm_hit_share", "pool.redispatched_tiles",
                 "serve.handler_ms.mean", "serve.wire_ms.mean",
                 "serve.shed_share", "serve.specializations",
                 "gen.late_ms.tail"):
        report.put(name, 0.0)


def _self_time_notes(report, rec):
    """Total self time per span name, largest first (top ten)."""
    own = self_times(rec.spans)
    totals = {}
    for span in rec.spans:
        if span.sid in own:
            key = "%s:%s" % (span.source, span.name)
            totals[key] = totals.get(key, 0.0) + own[span.sid]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:10]
    report.note("self time (s): " + ", ".join(
        "%s=%.3f" % (name, seconds) for name, seconds in ranked
    ))


def write_trace(rec, workload, seed):
    path = os.path.join(common.work_dir("traces"),
                        "%s-seed%s.jsonl" % (workload, seed))
    rec.write(path)
    return os.path.relpath(path, common.ROOT)
