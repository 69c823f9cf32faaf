"""Minimal stdlib client for a running ``repro serve`` daemon.

Used by ``repro health --url``, ``renderbench/serve.py`` and the tests;
kept dependency-free (``http.client``) and symmetrical with the HTTP
routes in :mod:`repro.serve.http`.  Responses with status >= 400 raise
:class:`ClientError` carrying the decoded error payload and, for 429
and 503, the service's ``retry_after_s`` hint — callers implementing
backoff use the hint instead of inventing their own schedule.

Each thread that uses a :class:`ServiceClient` keeps one kept-alive
HTTP/1.1 connection to the daemon, so a request costs one round trip,
not a TCP connect as well.  Every reply body, error replies included,
is read in full, which leaves the connection ready for the next
request.  A reused connection that the daemon has since closed (its
idle timeout, :data:`~repro.serve.http.IDLE_TIMEOUT_S`) is reopened
once and the request sent again; every other transport failure is a
:class:`ClientError` with status 0.

Every request asks for :data:`~repro.serve.http.FRAME_MEDIA_TYPE`, so a
render reply's ``colors`` arrive as float64 bytes and decode into a
read-only :class:`~repro.runtime.colors.ColorColumn`, bit for bit the
daemon's frame; a malformed one raises :class:`ClientError`.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse

from ..runtime.colors import ColorColumn
from .http import FRAME_MEDIA_TYPE


class ClientError(Exception):
    """An HTTP-level failure, with the service's JSON error payload."""

    def __init__(self, status, payload, detail=None, headers=None):
        payload = payload if isinstance(payload, dict) else {}
        super().__init__(
            detail
            or payload.get("detail")
            or payload.get("error")
            or ("HTTP %d" % status)
        )
        self.status = status
        self.payload = payload
        self.code = payload.get("error")
        self.scope = payload.get("scope")
        self.retry_after_s = payload.get("retry_after_s")
        #: Response headers (``X-Repro-Request-Id`` correlates the
        #: failure with the daemon's flight recorder and incident rings).
        self.headers = dict(headers or {})


class ServiceClient(object):
    def __init__(self, base_url, timeout_s=30.0, tenant=None):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        #: Default tenant sent as ``X-Repro-Tenant`` on every request.
        self.tenant = tenant
        url = urllib.parse.urlsplit(self.base_url)
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        #: This thread's kept-alive connection (``connection``), if any.
        self._local = threading.local()
        #: Every thread's open connection, for :meth:`disconnect`.
        self._open = set()
        self._open_lock = threading.Lock()

    # -- transport -----------------------------------------------------------

    def request(self, method, path, body=None, headers=None):
        """One round-trip; returns ``(status, payload, headers)``.
        ``payload`` is the decoded JSON object, with a render reply's
        ``colors`` as a :class:`ColorColumn` (or raw text for non-JSON
        responses like ``/metrics``).  Extra ``headers``
        (e.g. ``X-Repro-Request-Id`` for trace correlation) merge over
        the defaults.  Raises :class:`ClientError` on status >= 400."""
        data = None
        extra_headers = dict(headers or {})
        headers = {"Accept": FRAME_MEDIA_TYPE}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.tenant:
            headers["X-Repro-Tenant"] = str(self.tenant)
        headers.update(extra_headers)
        response, raw = self._round_trip(
            method, self._prefix + path, data, headers
        )
        payload = self._decode(response.status, raw, response.headers)
        if response.status >= 400:
            raise ClientError(response.status, payload,
                              headers=response.headers)
        return response.status, payload, dict(response.headers)

    def _round_trip(self, method, target, data, headers):
        """Send on this thread's connection and read the whole reply.
        A reused connection found closed is reopened once."""
        for attempt in (1, 2):
            connection, reused = self._connection()
            try:
                connection.request(method, target, body=data,
                                   headers=headers)
                response = connection.getresponse()
                return response, response.read()
            except (http.client.RemoteDisconnected, BrokenPipeError,
                    ConnectionResetError) as err:
                self._drop(connection)
                if reused and attempt == 1:
                    continue
                raise ClientError(0, {}, "connection to %s lost: %s"
                                  % (self.base_url, err))
            except (OSError, http.client.HTTPException) as err:
                self._drop(connection)
                raise ClientError(0, {}, "request to %s failed: %s"
                                  % (self.base_url, err))

    def _connection(self):
        """``(connection, reused)``: this thread's open connection, or a
        new one when it has none (or its socket was closed)."""
        stale = getattr(self._local, "connection", None)
        if stale is not None and stale.sock is not None:
            return stale, True
        connection = http.client.HTTPConnection(
            *self._address, timeout=self.timeout_s
        )
        try:
            connection.connect()
        except OSError as err:
            raise ClientError(0, {}, "cannot reach %s: %s"
                              % (self.base_url, err))
        self._local.connection = connection
        with self._open_lock:
            self._open.discard(stale)
            self._open.add(connection)
        return connection, False

    def _drop(self, connection):
        connection.close()
        with self._open_lock:
            self._open.discard(connection)

    def disconnect(self):
        """Close the kept-alive connection of every thread that used this
        client; each opens a fresh one on its next request.  Call it
        when none of them has a request in flight."""
        with self._open_lock:
            connections, self._open = self._open, set()
        for connection in connections:
            connection.close()

    @staticmethod
    def _decode(status, raw, headers):
        text = raw.decode("utf-8", "replace")
        content_type = headers.get("Content-Type") or ""
        if content_type.split(";")[0].strip() == FRAME_MEDIA_TYPE:
            try:
                payload = json.loads(text)
                payload["colors"] = ColorColumn.from_wire(payload["colors"])
            except (ValueError, TypeError, KeyError) as err:
                raise ClientError(
                    status, {"error": "malformed_frame"},
                    "malformed frame reply: %s" % err,
                    headers=headers,
                )
            return payload
        if "json" in content_type:
            try:
                return json.loads(text)
            except ValueError:
                pass
        return text

    # -- routes --------------------------------------------------------------

    def create_session(self, shader, width=16, height=16, tenant=None):
        body = {"shader": shader, "width": width, "height": height}
        if tenant or self.tenant:
            body["tenant"] = tenant or self.tenant
        _, payload, _ = self.request("POST", "/sessions", body)
        return payload

    def render(self, session_id, param=None, controls=None):
        body = {}
        if param is not None:
            body["param"] = param
        if controls is not None:
            body["controls"] = controls
        _, payload, _ = self.request(
            "POST", "/sessions/%s/render" % session_id, body
        )
        return payload

    def edit(self, session_id, param):
        _, payload, _ = self.request(
            "POST", "/sessions/%s/edit" % session_id, {"param": param}
        )
        return payload

    def close(self, session_id):
        _, payload, _ = self.request(
            "DELETE", "/sessions/%s" % session_id
        )
        return payload

    def sessions(self):
        _, payload, _ = self.request("GET", "/sessions")
        return payload

    def health(self):
        _, payload, _ = self.request("GET", "/health")
        return payload

    def metrics(self):
        _, payload, _ = self.request("GET", "/metrics")
        return payload

    def flight(self):
        _, payload, _ = self.request("GET", "/debug/flight")
        return payload


def fetch_health(url, timeout_s=5.0):
    """GET ``<url>/health`` and return the decoded payload (``repro
    health --url``)."""
    client = ServiceClient(url, timeout_s=timeout_s)
    try:
        return client.health()
    finally:
        client.disconnect()
