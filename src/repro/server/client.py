"""HTTP client for the SSRWR service.

A thin wrapper over :mod:`http.client` used by the tests, the
benchmark driver and the examples.  It encodes and decodes bodies with
``orjson``, the server's codec (:func:`repro.server.protocol.json_body`
out, ``orjson.loads`` in).  One :class:`ServerClient` owns one
keep-alive connection and is **not** thread-safe -- the bench harness
gives each worker thread its own client, which is also the honest way
to model independent network clients.

Non-2xx responses raise :class:`ServerError` carrying the status code,
the decoded error payload and any ``Retry-After`` hint, so callers can
distinguish shed (503) / rate-limited (429) / deadline (504) outcomes
structurally.
"""

from __future__ import annotations

import http.client

import orjson

from repro.errors import ReproError
from repro.server.protocol import json_body


class ServerError(ReproError):
    """A non-2xx response from the SSRWR service."""

    def __init__(self, status, payload, *, retry_after=None):
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload!r}")
        self.status = int(status)
        self.payload = payload
        self.retry_after = retry_after


class ServerClient:
    """Synchronous client for one :class:`repro.server.SSRWRServer`.

    Parameters
    ----------
    host / port:
        Server address.  ``base_url`` (``http://host:port``) may be
        passed instead of the pair.
    client_id:
        Sent as ``X-Client-Id`` on every request (the rate-limiter key).
    deadline_ms:
        Default per-request deadline header; ``None`` uses the server
        default.  Individual calls may override it.
    timeout:
        Socket timeout in seconds.
    """

    def __init__(self, host=None, port=None, *, base_url=None,
                 client_id=None, deadline_ms=None, timeout=30.0):
        if base_url is not None:
            trimmed = base_url.split("//", 1)[-1].rstrip("/")
            host, _, port = trimmed.partition(":")
            port = int(port or 80)
        if host is None or port is None:
            raise ReproError("ServerClient needs host+port or base_url")
        self._host = host
        self._port = int(port)
        self._timeout = timeout
        self._client_id = client_id
        self._deadline_ms = deadline_ms
        self._conn = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._conn

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def request(self, method, path, payload=None, *, deadline_ms=None,
                raw=False):
        """One round-trip; returns the decoded 2xx body.

        Retries once on a dropped keep-alive connection (the server may
        close between requests, e.g. across its drain).  ``raw=True``
        returns the body text undecoded (the ``/metrics`` page).
        """
        body = None
        headers = {}
        if payload is not None:
            body = json_body(payload)
            headers["Content-Type"] = "application/json"
        if self._client_id is not None:
            headers["X-Client-Id"] = str(self._client_id)
        effective_deadline = (deadline_ms if deadline_ms is not None
                              else self._deadline_ms)
        if effective_deadline is not None:
            headers["X-Deadline-Ms"] = f"{float(effective_deadline):g}"

        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        status = response.status
        if raw and 200 <= status < 300:
            return data.decode("utf-8")
        try:
            decoded = orjson.loads(data) if data else {}
        except orjson.JSONDecodeError:
            decoded = {"error": data.decode("utf-8", "replace")}
        if not 200 <= status < 300:
            raise ServerError(
                status, decoded,
                retry_after=response.getheader("Retry-After"),
            )
        return decoded

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def query(self, source, *, accuracy=None, top_k=None, deadline_ms=None):
        payload = {"source": int(source)}
        if accuracy is not None:
            payload["accuracy"] = _accuracy_payload(accuracy)
        if top_k is not None:
            payload["top_k"] = int(top_k)
        return self.request("POST", "/query", payload,
                            deadline_ms=deadline_ms)

    def query_batch(self, sources, *, accuracy=None, deadline_ms=None):
        payload = {"sources": [int(s) for s in sources]}
        if accuracy is not None:
            payload["accuracy"] = _accuracy_payload(accuracy)
        return self.request("POST", "/query_batch", payload,
                            deadline_ms=deadline_ms)

    def top_k(self, source, k, *, accuracy=None, deadline_ms=None,
              mode=None):
        """``mode`` picks the solver path: ``"auto"`` (the default) the
        PowerPush envelope, ``"full"`` the server's configured solver.
        The response's ``path`` field names the one that answered and
        ``separated`` whether the set is certified (see docs/topk.md)."""
        payload = {"source": int(source), "k": int(k)}
        if accuracy is not None:
            payload["accuracy"] = _accuracy_payload(accuracy)
        if mode is not None:
            payload["mode"] = str(mode)
        return self.request("POST", "/top_k", payload,
                            deadline_ms=deadline_ms)

    def top_k_batch(self, sources, k, *, accuracy=None, deadline_ms=None,
                    mode=None):
        """One ranked answer per source (``results`` aligns with
        ``sources``; invalid sources land in ``errors``)."""
        payload = {"sources": [int(s) for s in sources], "k": int(k)}
        if accuracy is not None:
            payload["accuracy"] = _accuracy_payload(accuracy)
        if mode is not None:
            payload["mode"] = str(mode)
        return self.request("POST", "/top_k_batch", payload,
                            deadline_ms=deadline_ms)

    def add_edge(self, u, v, *, undirected=False):
        return self.request("POST", "/mutate", {
            "op": "add_edge", "u": int(u), "v": int(v),
            "undirected": bool(undirected),
        })

    def remove_edge(self, u, v):
        return self.request("POST", "/mutate", {
            "op": "remove_edge", "u": int(u), "v": int(v),
        })

    def remove_node(self, u):
        return self.request("POST", "/mutate",
                            {"op": "remove_node", "u": int(u)})

    def healthz(self):
        return self.request("GET", "/healthz")

    def readyz(self):
        return self.request("GET", "/readyz")

    def metrics(self):
        """The raw Prometheus text page."""
        return self.request("GET", "/metrics", raw=True)


def _accuracy_payload(accuracy):
    """JSON shape of an accuracy override (object or AccuracyParams)."""
    if isinstance(accuracy, dict):
        return accuracy
    return {"eps": accuracy.eps, "delta": accuracy.delta,
            "p_f": accuracy.p_f}
