"""SLO accounting over a burst of service renders (run with
``-m slosmoke``; deselected by default).

An in-process :class:`~repro.serve.service.RenderService` (fork workers
when NumPy and the fork start method are available) serves a burst of
renders through the same request-id / span-mark / observe plumbing the
HTTP layer uses.  Every request succeeds, the SLO tracker counts every
one with a finite burn rate and populated p50/p99, nothing is shed,
and with fork workers the merged trace carries worker-side spans.
"""

import time

import pytest

from repro.obs.trace import request_context
from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.serve import RenderService, ServiceConfig
from repro.serve.service import ServiceError

SHADER = 1
SIZE = 16
REQUESTS = 12


def _drive(service):
    """The HTTP layer's per-request plumbing, without sockets."""
    sid = service.create_session("slo-smoke", SHADER, SIZE, SIZE)["session"]
    statuses = []
    for _ in range(REQUESTS):
        rid = service.mint_request_id()
        mark = service.span_mark()
        started = time.monotonic()
        status, body = 200, {}
        with request_context(rid):
            with service.obs.span(
                "serve.request", method="POST",
                path="/sessions/%s/render" % sid,
            ) as span:
                try:
                    body = service.render(sid)
                except ServiceError as err:
                    status = err.status
                span.set(endpoint="render", status=status)
            service.observe(
                "render", status, (time.monotonic() - started) * 1000.0,
                request_id=rid, tenant="slo-smoke", span_mark=mark,
                session=sid, rung=body.get("rung"),
                phase=body.get("phase"),
            )
        statuses.append(status)
    return statuses


@pytest.mark.slosmoke
def test_slo_tracker_counts_every_render(tmp_path):
    fork = B.HAVE_NUMPY and P._fork_available()
    knobs = {"flight_slow_ms": 0.0}
    if fork:
        knobs.update(backend="batch", workers="fork:2", tile=64)
    P._discard_pool()
    P.reset_pool_state()
    service = RenderService(ServiceConfig(store_dir=str(tmp_path), **knobs))
    try:
        assert _drive(service) == [200] * REQUESTS
        report = service.slo.report(service.obs.registry)
        totals = service.obs.tracer.stage_totals()
    finally:
        service.drain()
        P._discard_pool()
        P.reset_pool_state()

    objectives = {o["name"]: o["lifetime"] for o in report["objectives"]}
    render = objectives["render_latency"]
    assert render["count"] == REQUESTS
    assert render["burn_rate"] is not None
    assert render["p50_ms"] is not None and render["p99_ms"] is not None
    assert render["p99_ms"] >= render["p50_ms"]
    assert objectives["shed_rate"]["ratio"] == 0.0
    if fork:
        assert totals.get("worker.tile", {}).get("count", 0) > 0, (
            "fork workers configured but no worker-side spans merged"
        )
