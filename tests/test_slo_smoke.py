"""SLO accounting over a burst of service renders (run with
``-m slosmoke``; deselected by default).

An in-process :class:`~repro.serve.service.RenderService` (fork workers
when NumPy and the fork start method are available) serves a burst of
renders through the HTTP layer's own request path
(:func:`repro.serve.http.serve_request`).  Every request succeeds, the
SLO tracker counts every one with a finite burn rate and populated
p50/p99, nothing is shed, and with fork workers the merged trace
carries worker-side spans.
"""

import pytest

from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.serve import RenderService, ServiceConfig
from repro.serve.http import serve_request

SHADER = 1
SIZE = 16
REQUESTS = 12


def _drive(service):
    """The HTTP layer's request path (:func:`serve_request`), without
    sockets."""
    sid = service.create_session("slo-smoke", SHADER, SIZE, SIZE)["session"]
    return [
        serve_request(
            service, "POST", "/sessions/%s/render" % sid,
            lambda: ("render", 200, service.render(sid), {}),
            tenant="slo-smoke",
        )[0]
        for _ in range(REQUESTS)
    ]


@pytest.mark.slosmoke
def test_slo_tracker_counts_every_render(tmp_path):
    fork = B.HAVE_NUMPY and P._fork_available()
    knobs = {"flight_slow_ms": 0.0}
    if fork:
        knobs.update(backend="batch", workers="fork:2", tile=64)
    service = RenderService(ServiceConfig(store_dir=str(tmp_path), **knobs))
    try:
        assert _drive(service) == [200] * REQUESTS
        report = service.slo.report(service.obs.registry)
        totals = service.obs.tracer.stage_totals()
    finally:
        service.drain()

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
