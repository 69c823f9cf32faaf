"""Stdlib-HTTP transport for :class:`~repro.serve.service.RenderService`.

One :class:`ServiceServer` (a ``ThreadingHTTPServer``) fronts one
service; the handler is a thin adapter — parse, dispatch, serialize —
so every robustness decision (admission, quotas, drain) lives in the
transport-independent service and is testable without sockets.

Routes::

    GET    /health                     service + per-tenant health + SLOs
    GET    /metrics                    Prometheus text exposition
    GET    /debug/flight               flight-recorder dump
    GET    /sessions                   list hosted sessions
    POST   /sessions                   create  {tenant?, shader, width?, height?}
    POST   /sessions/<id>/render       render  {param?, controls?}
    POST   /sessions/<id>/edit         begin/switch drag  {param}
    DELETE /sessions/<id>              close

The tenant comes from the request body (``tenant``) or the
``X-Repro-Tenant`` header, defaulting to ``"anon"``.  Errors are JSON
(``{"error", "detail"}``); 429/503 responses additionally carry the
seeded-jitter ``Retry-After`` header and ``retry_after_s`` field.

A render reply's ``colors`` are encoded by ``Accept`` negotiation
(:func:`encode_reply`): a client that ranks :data:`FRAME_MEDIA_TYPE`
above ``application/json`` gets them as base64 little-endian float64
bytes (:meth:`~repro.runtime.colors.ColorColumn.to_wire`), bit exact
and without a decimal float per component; any other ``Accept`` gets
per-pixel ``[r, g, b]`` lists in ``application/json``.  Replies
without colours, errors included, are ``application/json`` either way.

Connections are HTTP/1.1 and kept alive between requests (one per
:class:`~repro.serve.client.ServiceClient` thread); a connection idle
for :data:`IDLE_TIMEOUT_S` is closed so its handler thread exits.

Every request, over HTTP or driven in-process (``repro slo`` and
``repro trace --flight`` without ``--url``), takes one path,
:func:`serve_request`: the body is encoded inside the ``serve.request``
span, so the recorded request time includes it.

Every response — errors and sheds included — carries an
``X-Repro-Request-Id`` header: the inbound header's value when the
client sent one, a freshly minted id otherwise.  The id is bound to
the handler thread for the whole request
(:class:`repro.obs.trace.request_context`), so every span the render
pipeline opens, every worker-recorded span merged back over the
result pipe, and every ``FaultLog``/``SupervisorIncident`` ring entry
carries the same id as the response header.

:func:`run_daemon` is the ``repro serve`` entry point: it binds (port
0 picks an ephemeral port, printed on the announce line so harnesses
can parse it), installs the SIGTERM/SIGINT drain callback via
:mod:`repro.runtime.lifecycle`, runs an idle-session reaper thread,
and on shutdown drains before exiting 0.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..lang.errors import SpecializationError
from ..obs.trace import request_context
from ..runtime.colors import ColorColumn
from .service import RenderService, ServiceError

#: The ``Accept`` media type for replies whose ``colors`` are one
#: :meth:`~repro.runtime.colors.ColorColumn.to_wire` object.
FRAME_MEDIA_TYPE = "application/vnd.repro.frame+json"
JSON_MEDIA_TYPE = "application/json"
TEXT_MEDIA_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def prefers_frame(accept):
    """True when an ``Accept`` header value ranks
    :data:`FRAME_MEDIA_TYPE` strictly above ``application/json``; each
    type takes the quality of its most specific matching range."""
    quality = {}
    for item in (accept or "").split(","):
        media, *params = item.split(";")
        value = 1.0
        for param in params:
            name, _, text = param.partition("=")
            if name.strip().lower() == "q":
                try:
                    value = float(text)
                except ValueError:
                    value = 0.0
        quality[media.strip().lower()] = value

    def rank(media_type):
        for media in (media_type, "application/*", "*/*"):
            if media in quality:
                return quality[media]
        return 0.0

    return rank(FRAME_MEDIA_TYPE) > rank(JSON_MEDIA_TYPE)


def encode_reply(payload, frame=False):
    """``(body, content_type)`` for one reply payload: text as is, a
    dict as sorted-key JSON.  A :class:`ColorColumn` under ``colors``
    becomes its wire object when ``frame`` (and the reply is
    :data:`FRAME_MEDIA_TYPE`), per-pixel lists otherwise."""
    if isinstance(payload, str):
        return payload.encode("utf-8"), TEXT_MEDIA_TYPE
    content_type = JSON_MEDIA_TYPE
    colors = payload.get("colors")
    if isinstance(colors, ColorColumn):
        if frame:
            payload = dict(payload, colors=colors.to_wire())
            content_type = FRAME_MEDIA_TYPE
        else:
            # The same bytes as a per-component float() encoding:
            # tolist() gives Python floats with identical reprs.
            payload = dict(payload, colors=colors.tolist())
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return body, content_type


def _error_reply(err):
    """``(payload, headers)`` for a :class:`ServiceError`; sheds and
    drains carry the seeded-jitter ``Retry-After``."""
    payload = {"error": err.code, "detail": str(err)}
    headers = {}
    retry_after = getattr(err, "retry_after_s", None)
    if retry_after is not None:
        payload["retry_after_s"] = retry_after
        payload["scope"] = getattr(err, "scope", None)
        # The header is integer seconds (RFC 9110); the payload keeps
        # the exact jittered float.
        headers["Retry-After"] = str(max(1, int(math.ceil(retry_after))))
    return payload, headers


def serve_request(service, method, path, route, frame=False,
                  request_id=None, tenant=None):
    """Serve one request the way every transport does: mint the id,
    take the span mark, open the ``serve.request`` span, run ``route()``
    (``(endpoint, status, payload, headers)``), encode the reply inside
    the span, then :meth:`~repro.serve.service.RenderService.observe`.
    Returns ``(status, body, content_type, headers)``; the headers carry
    ``X-Repro-Request-Id``."""
    started = time.monotonic()
    endpoint, status = "other", 500
    rid = request_id or service.mint_request_id()
    mark = service.span_mark()
    with request_context(rid):
        with service.obs.span(
            "serve.request", method=method, path=path
        ) as span:
            try:
                endpoint, status, payload, headers = route()
            except ServiceError as err:
                status = err.status
                payload, headers = _error_reply(err)
            except SpecializationError as err:
                # The render pipeline failed in a way supervision could
                # not absorb: a server-side error, but never a hang.
                status = 500
                payload = {"error": "render_failed", "detail": str(err)}
                headers = {}
            except Exception as err:  # pragma: no cover - must answer
                status = 500
                payload = {"error": "internal", "detail": str(err)}
                headers = {}
            body, content_type = encode_reply(payload, frame)
            span.set(endpoint=endpoint, status=status)
        extra = {}
        if isinstance(payload, dict):
            for key in ("session", "rung", "phase"):
                if key in payload:
                    extra[key] = payload[key]
        service.observe(
            endpoint, status, (time.monotonic() - started) * 1000.0,
            request_id=rid, tenant=tenant, span_mark=mark, **extra,
        )
    headers = dict(headers or {})
    headers["X-Repro-Request-Id"] = rid
    return status, body, content_type, headers


#: Seconds a kept-alive connection may sit idle between requests before
#: its handler thread closes it (clients reconnect on their next request).
IDLE_TIMEOUT_S = 5.0


class ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body leave in two writes; with Nagle on, a keep-alive
    # client waits a delayed ACK (~40 ms) for the body of every reply.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service's own metrics are the access log

    # -- dispatch ------------------------------------------------------------

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")

    def _dispatch(self, method):
        service = self.server.service
        # A body no route reads would be parsed as the next request on
        # this kept-alive connection; _send closes it instead.
        self._unread = (
            self.headers.get("Content-Length") or "0"
        ).strip() != "0"
        status, body, content_type, headers = serve_request(
            service, method, self.path.split("?", 1)[0],
            lambda: self._route(method, service),
            frame=prefers_frame(self.headers.get("Accept")),
            request_id=(
                self.headers.get("X-Repro-Request-Id") or ""
            ).strip(),
            tenant=self.headers.get("X-Repro-Tenant"),
        )
        self._send(status, body, content_type, headers)

    def _route(self, method, service):
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["health"]:
            return "health", 200, service.health(), {}
        if method == "GET" and parts == ["metrics"]:
            return "metrics", 200, service.metrics_text(), {}
        if method == "GET" and parts == ["debug", "flight"]:
            return "flight", 200, service.flight_dump(), {}
        if method == "GET" and parts == ["sessions"]:
            return "list", 200, service.list_sessions(), {}
        if method == "POST" and parts == ["sessions"]:
            body = self._body()
            return "create", 201, service.create_session(
                self._tenant(body),
                body.get("shader", 0),
                body.get("width", 16),
                body.get("height", 16),
            ), {}
        if len(parts) == 3 and parts[0] == "sessions" and method == "POST":
            body = self._body()
            if parts[2] == "render":
                return "render", 200, service.render(
                    parts[1], body.get("param"), body.get("controls"),
                ), {}
            if parts[2] == "edit":
                return "edit", 200, service.edit_session(
                    parts[1], body.get("param"),
                ), {}
        if len(parts) == 2 and parts[0] == "sessions" and method == "DELETE":
            return "close", 200, service.close_session(parts[1]), {}
        raise _NotFound("no route %s %s" % (method, self.path))

    # -- plumbing ------------------------------------------------------------

    def _tenant(self, body):
        tenant = body.get("tenant") or self.headers.get("X-Repro-Tenant")
        return str(tenant) if tenant else "anon"

    def _body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        self._unread = False
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServiceError("request body is not valid JSON")
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    def _send(self, status, body, content_type, headers):
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self._unread:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; nothing left to answer


class _NotFound(ServiceError):
    status = 404
    code = "not_found"


def start_server(service, host="127.0.0.1", port=0):
    """Bind and start serving on a background thread; returns
    ``(server, thread)``.  ``server.server_address`` has the actual
    port when ``port=0``."""
    server = ServiceServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve-http",
        daemon=True,
    )
    thread.start()
    return server, thread


def run_daemon(service, host="127.0.0.1", port=0, out=None,
               reap_interval_s=None):
    """The ``repro serve`` main loop; returns the process exit code.

    Serves until SIGTERM/SIGINT, then drains gracefully: in-flight
    frames finish (bounded by ``drain_timeout_s``), sessions close,
    pools and shm arenas are swept — and the process exits 0, because
    a drained stop is the *intended* behavior, not a failure.
    """
    import sys

    from ..runtime.lifecycle import (
        cleanup_now,
        install_signal_cleanup,
        uninstall_signal_cleanup,
    )

    out = out if out is not None else sys.stdout
    # Handlers go in before the announce line: a supervisor that
    # signals the instant it sees the port must still get a drain.
    stop = threading.Event()
    install_signal_cleanup(callback=lambda signum: stop.set())
    server, thread = start_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    out.write(
        "repro serve: listening on http://%s:%d (store %s)\n"
        % (bound_host, bound_port, service.store.root)
    )
    out.flush()
    if reap_interval_s is None:
        reap_interval_s = max(
            0.25, min(service.config.idle_timeout_s / 4.0, 5.0)
        )

    def _reap_loop():
        while not stop.wait(reap_interval_s):
            try:
                service.reap_idle()
            except Exception:  # pragma: no cover - reaping is best-effort
                pass

    reaper = threading.Thread(
        target=_reap_loop, name="repro-serve-reaper", daemon=True
    )
    reaper.start()
    try:
        stop.wait()
        out.write("repro serve: draining\n")
        out.flush()
        summary = service.drain()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        out.write(
            "repro serve: drained (%d sessions closed, %d in-flight "
            "abandoned)\n"
            % (summary["closed_sessions"], summary["abandoned_inflight"])
        )
        out.flush()
    finally:
        cleanup_now()
        uninstall_signal_cleanup()
    return 0


def build_service(config, obs=True):
    """Convenience used by the CLI and tests."""
    return RenderService(config, obs=obs)
