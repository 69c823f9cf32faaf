"""Shared export schema: one spelling for every name that crosses an
exporter boundary.

``repro health --json``, ``repro render --json``, the Prometheus /
JSON-lines exporters, and the supervisor's own counters historically
each spelled rung and breaker-state names on their own; this module is
the single authority so exported streams can be joined without
per-consumer case fixups (see ``docs/observability.md``).
"""

from __future__ import annotations

#: Degradation-ladder rungs, fastest first — canonical lower_snake form.
RUNGS = ("batch", "scalar", "original", "lkg")

#: Circuit-breaker states, canonical lower_snake form.
BREAKER_STATES = ("closed", "open", "half_open")

#: Numeric encoding of breaker states for the
#: ``repro_breaker_state`` gauge (higher = less healthy).
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}

#: Request phases.
PHASES = ("load", "adjust")

#: Process-level worker-loss kinds the self-healing pool reports
#: (``WorkerPool.health()["lost_workers"]``, ``worker_<kind>`` incidents).
POOL_FAULT_KINDS = ("crash", "hang", "garbled", "pipe")

#: Non-ladder incident scopes ``canonical_rung`` accepts alongside the
#: ladder rungs: breaker transitions, ladder exhaustion, and
#: self-healing worker-pool events.
INCIDENT_SCOPES = ("breaker", "ladder", "pool")


def canonical_rung(name):
    """Normalize a rung name to the canonical schema spelling.

    Accepts historical variants (``"Batch"``, ``"half-open"``-style
    dashes, surrounding whitespace); raises on names outside the
    schema so a typo cannot silently mint a new rung.
    """
    if name is None:
        return None
    canonical = str(name).strip().lower().replace("-", "_")
    if canonical not in RUNGS and canonical not in INCIDENT_SCOPES:
        raise ValueError("unknown rung name %r" % name)
    return canonical


def canonical_breaker_state(name):
    """Normalize a breaker-state name (same rules as rungs)."""
    canonical = str(name).strip().lower().replace("-", "_")
    if canonical not in BREAKER_STATES:
        raise ValueError("unknown breaker state %r" % name)
    return canonical


#: HTTP endpoints the ``repro serve`` daemon labels its request
#: counters/latency histograms with; unknown paths collapse to
#: ``"other"`` so a scanner cannot mint unbounded label values.
SERVE_ENDPOINTS = (
    "create", "render", "edit", "close", "list", "health", "metrics",
    "flight", "other",
)

#: Load-shedding scopes the admission controller reports
#: (``repro_serve_shed_total{scope=...}``): the global in-flight bound,
#: a tenant's in-flight quota, the global session cap, a tenant's
#: session quota, and requests refused during drain.
SHED_SCOPES = (
    "inflight", "tenant_inflight", "sessions", "tenant_sessions",
    "draining",
)


def canonical_endpoint(name):
    """Normalize a serve-endpoint label; anything outside the schema
    collapses to ``"other"`` (unlike rungs, unknown endpoints are
    expected — scanners probe arbitrary paths)."""
    canonical = str(name).strip().lower().replace("-", "_")
    return canonical if canonical in SERVE_ENDPOINTS else "other"
