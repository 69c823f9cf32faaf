"""Metrics registry: counters, gauges, and histograms with labels.

One :class:`MetricsRegistry` unifies the measurement silos that grew up
around the pipeline — :class:`~repro.runtime.interp.CostMeter` totals,
:class:`~repro.runtime.guard.FaultLog` tallies, supervisor
rung/breaker/incident counts, and the cache-slot analytics of
:mod:`repro.obs.cachestats` — under Prometheus-style metric families:

* a *family* is created once with a name, help text, and label names
  (``registry.counter("repro_frames_total", "...", ("shader",))``);
* ``family.labels(shader="matte")`` returns the memoized child for one
  label combination; children carry the actual values;
* exporters (:mod:`repro.obs.export`) walk ``registry.collect()`` and
  render the whole registry in Prometheus text format or JSON lines.

Metric names follow Prometheus conventions (``repro_`` prefix,
``_total`` suffix on counters, base units in the name); the full name
table lives in ``docs/observability.md``.  Like the tracer, the
registry observes the *abstract* cost scale — it never perturbs it.
"""

from __future__ import annotations

import re

try:
    import numpy as _np
except ImportError:  # pragma: no cover - NumPy-less installs
    _np = None

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for per-pixel abstract step costs
#: (tens to tens of thousands of steps).
DEFAULT_BUCKETS = (
    5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
)

#: Millisecond-latency buckets for wall-clock histograms (worker
#: respawn latency, chunk round-trips): sub-ms to tens of seconds.
MS_BUCKETS = (
    0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)


def _check_name(name):
    if not _NAME_RE.match(name):
        raise ValueError("invalid metric name %r" % name)
    return name


def percentile_from_cumulative(cumulative, q):
    """Bucket-interpolated percentile over ``[(upper_bound,
    cumulative_count), ...]`` pairs (the :meth:`HistogramChild.
    cumulative` shape, ending at +Inf).

    Linear interpolation inside the bucket holding the target rank —
    the same estimate ``histogram_quantile`` makes in PromQL.  The
    lowest bucket interpolates from 0; a rank landing in the +Inf
    bucket returns the highest finite bound (the histogram cannot say
    more).  Returns None for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("percentile q must be in [0, 1], got %r" % (q,))
    if not cumulative:
        return None
    total = cumulative[-1][1]
    if total <= 0:
        return None
    target = q * total
    prev_bound = 0.0
    prev_running = 0
    for bound, running in cumulative:
        if running >= target and running > prev_running:
            if bound == float("inf"):
                return float(prev_bound)
            share = (target - prev_running) / (running - prev_running)
            return prev_bound + (bound - prev_bound) * share
        if bound != float("inf"):
            prev_bound = bound
        prev_running = running
    return float(prev_bound)


def fraction_at_or_below(cumulative, threshold):
    """Interpolated fraction of observations ``<= threshold`` from
    cumulative bucket pairs; None for an empty histogram.  The SLO
    engine's attainment primitive."""
    if not cumulative:
        return None
    total = cumulative[-1][1]
    if total <= 0:
        return None
    prev_bound = 0.0
    prev_running = 0
    for bound, running in cumulative:
        if threshold <= bound:
            if bound == float("inf"):
                # Past the last finite bound: everything still counted
                # there is indistinguishable; credit only prior buckets.
                return prev_running / total
            if bound == prev_bound:
                return running / total
            share = (threshold - prev_bound) / (bound - prev_bound)
            share = min(max(share, 0.0), 1.0)
            return (prev_running + (running - prev_running) * share) / total
        prev_bound = bound
        prev_running = running
    return 1.0


class _Child(object):
    """Base for one labeled instance of a family."""

    __slots__ = ("label_values",)

    def __init__(self, label_values):
        self.label_values = label_values


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, label_values):
        super().__init__(label_values)
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        self.value += amount


class GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, label_values):
        super().__init__(label_values)
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount


class HistogramChild(_Child):
    __slots__ = ("buckets", "counts", "sum", "count", "_bounds")

    def __init__(self, label_values, buckets):
        super().__init__(label_values)
        self.buckets = buckets
        self._bounds = (
            _np.asarray(buckets, dtype=float) if _np is not None else None
        )
        #: Cumulative-style on export; stored per-bucket here.
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0
        self.count = 0

    def observe(self, value):
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def observe_many(self, values):
        """``observe`` every value of a sequence or array at once, with
        the same bucket counts and the same sum (exact for integers,
        added in order for floats)."""
        array = _np.asarray(values).reshape(-1) if _np is not None else None
        if array is None or array.dtype.kind not in "iuf":
            for value in values:
                self.observe(value)
            return
        if array.size == 0:
            return
        # side="left" finds the first bound with value <= bound, as
        # observe does; NaN sorts past every bound, into +Inf.
        slots = _np.searchsorted(self._bounds, array, side="left")
        counts = _np.bincount(slots, minlength=len(self.counts)).tolist()
        for i, count in enumerate(counts):
            self.counts[i] += count
        self.count += array.size
        if array.dtype.kind == "f":
            total = self.sum
            for value in array.tolist():
                total += value
            self.sum = total
        else:
            self.sum += sum(array.tolist())

    def cumulative(self):
        """``[(upper_bound, cumulative_count), ...]`` ending at +Inf."""
        out = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def percentile(self, q):
        """Bucket-interpolated percentile (``q`` in [0, 1]); None when
        the histogram is empty.  ``percentile(0.5)`` is the median
        estimate :class:`~repro.runtime.supervise.HealthSnapshot` and
        the SLO engine report."""
        return percentile_from_cumulative(self.cumulative(), q)


class Family(object):
    """One metric family: a name, help text, label names, children."""

    kind = None

    def __init__(self, name, help, labelnames=()):
        self.name = _check_name(name)
        self.help = help
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError("invalid label name %r" % label)
        self.labelnames = tuple(labelnames)
        self._children = {}

    def labels(self, **labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                "%s expects labels %r, got %r"
                % (self.name, self.labelnames, tuple(sorted(labels)))
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child(key)
            self._children[key] = child
        return child

    def children(self):
        """Children sorted by label values (deterministic export)."""
        return [self._children[key] for key in sorted(self._children)]

    def _new_child(self, key):
        raise NotImplementedError


class CounterFamily(Family):
    kind = "counter"

    def _new_child(self, key):
        return CounterChild(key)

    def inc(self, amount=1, **labels):
        self.labels(**labels).inc(amount)


class GaugeFamily(Family):
    kind = "gauge"

    def _new_child(self, key):
        return GaugeChild(key)

    def set(self, value, **labels):
        self.labels(**labels).set(value)

    def inc(self, amount=1, **labels):
        self.labels(**labels).inc(amount)

    def dec(self, amount=1, **labels):
        self.labels(**labels).dec(amount)


class HistogramFamily(Family):
    kind = "histogram"

    def __init__(self, name, help, labelnames=(), buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))

    def _new_child(self, key):
        return HistogramChild(key, self.buckets)

    def observe(self, value, **labels):
        self.labels(**labels).observe(value)


class MetricsRegistry(object):
    """Holds every metric family; the exporters' single source."""

    def __init__(self):
        self._families = {}

    # -- family constructors (idempotent) ------------------------------------

    def _family(self, cls, name, help, labelnames, **kwargs):
        family = self._families.get(name)
        if family is not None:
            if family.kind != cls.kind:
                raise ValueError(
                    "metric %s already registered as a %s"
                    % (name, family.kind)
                )
            if family.labelnames != tuple(labelnames):
                raise ValueError(
                    "metric %s already registered with labels %r"
                    % (name, family.labelnames)
                )
            return family
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name, help="", labelnames=()):
        return self._family(CounterFamily, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()):
        return self._family(GaugeFamily, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        return self._family(
            HistogramFamily, name, help, labelnames, buckets=buckets
        )

    # -- inspection / export -------------------------------------------------

    def __contains__(self, name):
        return name in self._families

    def get(self, name):
        return self._families.get(name)

    def collect(self):
        """Families sorted by name (deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def value(self, name, **labels):
        """Convenience reader for tests/CLI: the child's value (counter/
        gauge) or ``(sum, count)`` (histogram); 0/None when absent."""
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple(str(labels[n]) for n in family.labelnames)
        child = family._children.get(key)
        if child is None:
            return None
        if family.kind == "histogram":
            return (child.sum, child.count)
        return child.value

    def as_dict(self):
        """JSON-ready dump of every family and child."""
        out = {}
        for family in self.collect():
            children = []
            for child in family.children():
                labels = dict(zip(family.labelnames, child.label_values))
                if family.kind == "histogram":
                    children.append({
                        "labels": labels,
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": [
                            {"le": le, "count": count}
                            for le, count in child.cumulative()
                        ],
                    })
                else:
                    children.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": children,
            }
        return out


class _NullInstrument(object):
    """Absorbs every family/child call when metrics are disabled."""

    __slots__ = ()

    def labels(self, **labels):
        return self

    def inc(self, amount=1, **labels):
        pass

    def dec(self, amount=1, **labels):
        pass

    def set(self, value, **labels):
        pass

    def observe(self, value, **labels):
        pass

    def observe_many(self, values):
        pass

    def percentile(self, q):
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(object):
    """The disabled registry: family constructors return one shared
    no-op instrument; collection is empty."""

    __slots__ = ()

    def counter(self, name, help="", labelnames=()):
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labelnames=()):
        return _NULL_INSTRUMENT

    def histogram(self, name, help="", labelnames=(), buckets=()):
        return _NULL_INSTRUMENT

    def __contains__(self, name):
        return False

    def get(self, name):
        return None

    def collect(self):
        return []

    def value(self, name, **labels):
        return None

    def as_dict(self):
        return {}


#: Module-level singleton used wherever metrics are disabled.
NULL_REGISTRY = NullRegistry()
