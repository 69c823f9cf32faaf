"""Minimal stdlib client for a running ``repro serve`` daemon.

Used by ``repro health --url``, ``renderbench/serve.py`` and the tests;
kept dependency-free (``urllib``) and symmetrical with the HTTP routes
in :mod:`repro.serve.http`.  Responses with status >= 400 raise
:class:`ClientError` carrying the decoded error payload and, for 429
and 503, the service's ``retry_after_s`` hint — callers implementing
backoff use the hint instead of inventing their own schedule.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request


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

    # -- transport -----------------------------------------------------------

    def request(self, method, path, body=None, headers=None):
        """One round-trip; returns ``(status, payload, headers)``.
        ``payload`` is the decoded JSON object (or raw text for
        non-JSON responses like ``/metrics``).  Extra ``headers``
        (e.g. ``X-Repro-Request-Id`` for trace correlation) merge over
        the defaults.  Raises :class:`ClientError` on status >= 400."""
        data = None
        extra_headers = dict(headers or {})
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.tenant:
            headers["X-Repro-Tenant"] = str(self.tenant)
        headers.update(extra_headers)
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return (
                    response.status,
                    self._decode(response.read(),
                                 response.headers.get("Content-Type")),
                    dict(response.headers),
                )
        except urllib.error.HTTPError as err:
            payload = self._decode(
                err.read(), err.headers.get("Content-Type")
            )
            raise ClientError(err.code, payload, headers=dict(err.headers))
        except urllib.error.URLError as err:
            raise ClientError(0, {}, "cannot reach %s: %s"
                              % (self.base_url, err.reason))

    @staticmethod
    def _decode(raw, content_type):
        text = raw.decode("utf-8", "replace")
        if content_type and "json" in content_type:
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
    return ServiceClient(url, timeout_s=timeout_s).health()
