"""Minimal HTTP/1.1 wire protocol over asyncio streams.

The server is hand-rolled on ``asyncio.start_server``:
:func:`read_request` parses one request from a stream (request line,
headers, ``Content-Length`` body) and :func:`render_response`
serializes one response.  Only the subset the service needs is
implemented -- no chunked bodies, no multipart, no
``Expect: 100-continue`` -- and everything outside that subset is
rejected loudly with the right status code rather than guessed at.

Limits are enforced during parsing (request-line/header size, header
count, body size) so a misbehaving client is rejected before it can make
the server buffer unbounded input.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

import orjson

#: Exceptions meaning "the stream ended mid-read".
_READ_ERRORS = (asyncio.IncompleteReadError, asyncio.LimitOverrunError)

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Parser limits (overridable per call).
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 16384
MAX_HEADERS = 64


class ProtocolError(Exception):
    """Malformed or unsupported HTTP input; carries the status to send."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)


@dataclass
class Request:
    """One parsed HTTP request.

    ``headers`` keys are lower-cased; ``query`` holds the decoded query
    string (last value wins for repeated keys).
    """

    method: str
    target: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def header(self, name, default=None):
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self):
        return self.header("connection", "keep-alive").lower() != "close"

    def json(self):
        """Decode the body as a JSON object (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            payload = orjson.loads(self.body)
        except orjson.JSONDecodeError as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ProtocolError(400, "JSON body must be an object")
        return payload


async def read_request(reader, *, max_body=1_048_576):
    """Parse one request from an asyncio stream.

    Returns ``None`` on clean EOF (the client closed a keep-alive
    connection between requests); raises :class:`ProtocolError` on
    malformed or over-limit input.
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except _READ_ERRORS as exc:
        leftover = getattr(exc, "partial", b"")
        if not leftover:
            return None
        raise ProtocolError(400, "truncated request line") from None
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError(400, "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol {version}")

    headers = {}
    total = 0
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except _READ_ERRORS:
            raise ProtocolError(400, "truncated headers") from None
        if raw in (b"\r\n", b"\n"):
            break
        total += len(raw)
        if total > MAX_HEADER_BYTES or len(headers) >= MAX_HEADERS:
            raise ProtocolError(400, "headers too large")
        text = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise ProtocolError(501, "chunked request bodies are not supported")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            length = int(length)
        except ValueError:
            raise ProtocolError(400,
                                f"bad Content-Length {length!r}") from None
        if length < 0:
            raise ProtocolError(400, "negative Content-Length")
        if length > max_body:
            raise ProtocolError(
                413, f"body of {length} bytes exceeds limit {max_body}"
            )
        try:
            body = await reader.readexactly(length)
        except _READ_ERRORS:
            raise ProtocolError(400, "truncated body") from None

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(method=method.upper(), target=target,
                   path=split.path or "/", query=query, headers=headers,
                   body=body)


def render_response(status, body=b"", *, content_type="application/json",
                    extra_headers=None, keep_alive=True):
    """Serialize one HTTP/1.1 response as bytes."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(payload):
    """Encode a JSON response body with ``orjson``.

    Floats are written as the shortest text that parses back to the
    same float64 (so ``1e-05`` reads ``0.00001``), which is what keeps
    the HTTP query path value-identical to the in-process engine
    (pinned by the serving equivalence suite).  NaN and +-inf become
    ``null``.  Numpy arrays are encoded in place without building
    lists; they must be C-contiguous, and float arrays must be float64
    -- a float32 array would be written as float32 text.
    """
    return orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY)
