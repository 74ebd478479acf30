"""Network-facing SSRWR service (HTTP/JSON over asyncio and orjson).

The package turns :class:`repro.serving.ConcurrentQueryEngine` into a
real front door:

* :mod:`repro.server.protocol` -- minimal HTTP/1.1 parsing and
  rendering over asyncio streams;
* :mod:`repro.server.limits` -- admission control (bounded in-flight
  queue with 503 load shedding) and a per-client token-bucket rate
  limiter (429);
* :mod:`repro.server.metrics` -- request counters and latency quantiles
  rendered as Prometheus text (``GET /metrics``);
* :mod:`repro.server.app` -- :class:`SSRWRServer` (endpoints, deadline
  propagation, graceful SIGTERM drain) and the ``repro-serve`` console
  entry point;
* :mod:`repro.server.client` -- the ``http.client`` wrapper used by
  tests, the benchmark and the examples.

See ``docs/server.md`` for the endpoint reference and semantics.
"""

from repro.server.app import (
    ServerConfig,
    ServerHandle,
    SSRWRServer,
    start_in_thread,
)
from repro.server.client import ServerClient, ServerError
from repro.server.limits import AdmissionController, TokenBucket
from repro.server.metrics import ServerMetrics

__all__ = [
    "AdmissionController",
    "SSRWRServer",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerHandle",
    "ServerMetrics",
    "TokenBucket",
    "start_in_thread",
]
