"""The benchmark's metric schema and its result line.

Every metric has a name made of ``[A-Za-z0-9_.-]``, a unit and a type
(all values are floats).  End-to-end metrics come from untraced runs
(``--trace 0``), per-layer metrics from traced runs (``--trace 1``).
``BENCHMARK.json`` at the repository root lists the same names; the
schema tests keep the two in step.
"""

from __future__ import annotations

import json
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Metric(object):
    __slots__ = ("name", "unit", "better", "doc")

    def __init__(self, name, unit, better, doc):
        self.name = name
        self.unit = unit
        #: ``"lower"`` or ``"higher"``.
        self.better = better
        self.doc = doc


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median over repeated set-ups of the work before the first "
           "timed operation"),
    Metric("first_frame_ms.p50", "ms", "lower",
           "fresh session to its first frame (parse, specialize, codegen, "
           "cache fill)"),
    Metric("latency_ms.p50", "ms", "lower", "median per-operation latency"),
    Metric("latency_ms.tail", "ms", "lower",
           "highest percentile with >= 10 samples beyond it (level printed)"),
    Metric("throughput_px_s", "px/s", "higher",
           "pixels served over the wall time of the timed loop"),
    Metric("cost_steps_per_px", "steps/px", "lower",
           "abstract CostMeter steps over pixels served"),
    Metric("slo_attainment", "fraction", "higher",
           "operations answered correctly within 250 ms over attempted"),
    Metric("ok_share", "fraction", "higher",
           "operations without exception, HTTP error or wrong output over "
           "attempted (1 - failed share)"),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the processes running the program"),
)

PER_LAYER = (
    Metric("frontend.parse_ms", "ms", "lower",
           "repro.lang parse per session"),
    Metric("specialize.ms", "ms", "lower",
           "RenderSession.specialize per partition"),
    Metric("specialize.inline_ms", "ms", "lower",
           "specialize.inline stage"),
    Metric("specialize.ssa_ms", "ms", "lower",
           "specialize.ssa stage"),
    Metric("specialize.reassoc_ms", "ms", "lower",
           "specialize.reassoc stage"),
    Metric("specialize.dependence_ms", "ms", "lower",
           "specialize.dependence stage"),
    Metric("specialize.caching_ms", "ms", "lower",
           "specialize.caching stage"),
    Metric("specialize.split_ms", "ms", "lower",
           "specialize.split stage"),
    Metric("codegen.ms", "ms", "lower",
           "batch loader + reader kernel compile"),
    Metric("loader.ms", "ms", "lower",
           "full-path load frame"),
    Metric("loader.px_s", "px/s", "higher",
           "full-path load pixels per second"),
    Metric("loader.cost_steps_per_px", "steps/px", "lower",
           "full-path load cost"),
    Metric("reader.ms", "ms", "lower",
           "reader-only frame"),
    Metric("reader.px_s", "px/s", "higher",
           "reader-only pixels per second"),
    Metric("reader.cost_steps_per_px", "steps/px", "lower",
           "reader-only cost"),
    Metric("cache.bytes_per_px", "B/px", "lower",
           "declared cache bytes per pixel"),
    Metric("cache.slots", "count", "lower",
           "cache slots per layout"),
    Metric("delta.ms", "ms", "lower",
           "delta-refill edit frame"),
    Metric("delta.share", "fraction", "higher",
           "edit frames served by delta refill"),
    Metric("delta.noop_share", "fraction", "higher",
           "edit frames served reader-only"),
    Metric("delta.fallback_share", "fraction", "lower",
           "edit frames that fell back to a full load"),
    Metric("delta.dirty_fraction.mean", "fraction", "lower",
           "mean dirty-slot fraction of edit frames"),
    Metric("pool.tile_ms", "ms", "lower",
           "tiled-frame wall time per tile"),
    Metric("pool.chunks_per_frame", "count", "lower",
           "worker chunks dispatched per tiled frame"),
    Metric("pool.warm_hit_share", "fraction", "higher",
           "worker chunks that reused an installed kernel"),
    Metric("pool.redispatched_tiles", "count", "lower",
           "tiles re-served after a worker loss"),
    Metric("supervise.degraded_share", "fraction", "lower",
           "frames served by a rung other than batch"),
    Metric("serve.handler_ms.mean", "ms", "lower",
           "daemon handler time per request"),
    Metric("serve.wire_ms.mean", "ms", "lower",
           "client round trip minus daemon handler time"),
    Metric("serve.shed_share", "fraction", "lower",
           "requests refused with 429"),
    Metric("serve.specializations", "count", "lower",
           "specializer pipeline runs"),
    Metric("gen.late_ms.tail", "ms", "lower",
           "load generator send lag at the tail rule's level"),
    Metric("obs.trace_overhead", "fraction", "lower",
           "traced timed wall over untraced timed wall, minus 1"),
)

ALL = {m.name: m for m in END_TO_END + PER_LAYER}


def metrics_for(trace):
    return PER_LAYER if trace else END_TO_END


class Report(object):
    """Collects one run's metrics, validates them against the schema,
    and renders the human-readable table plus the final JSON line."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = bool(trace)
        self.values = {}
        self.samples = {}
        self.notes = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def put(self, name, value, samples=None):
        if name not in ALL:
            raise KeyError("unknown metric %r" % name)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite: %r" % (name, value))
        self.values[name] = value
        self.samples[name] = samples

    def note(self, text):
        self.notes.append(text)

    def missing(self):
        return [m.name for m in metrics_for(self.trace)
                if m.name not in self.values]

    def payload(self):
        missing = self.missing()
        if missing:
            raise ValueError("metrics not measured: %s" % ", ".join(missing))
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                m.name: {"value": self.values[m.name], "unit": m.unit}
                for m in metrics_for(self.trace)
            },
        }

    def render(self):
        lines = [
            "renderbench %s seed=%s trace=%d: %d attempted, %d failed, "
            "correct=%s" % (self.workload, self.seed, int(self.trace),
                            self.attempted, self.failed, self.correct)
        ]
        for metric in metrics_for(self.trace):
            n = self.samples.get(metric.name)
            lines.append(
                "  %-28s %14.6g %-9s %s" % (
                    metric.name, self.values[metric.name], metric.unit,
                    "(n=%d)" % n if n is not None else "",
                )
            )
        lines.extend("  " + note for note in self.notes)
        lines.append(json.dumps(self.payload(), sort_keys=True))
        return "\n".join(lines)
