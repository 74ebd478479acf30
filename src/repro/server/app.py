"""The network-facing SSRWR service.

:class:`SSRWRServer` wraps a
:class:`repro.serving.ConcurrentQueryEngine` behind a hand-rolled
HTTP/1.1 front door built on ``asyncio.start_server``, with ``orjson``
as its JSON codec and no web framework.  It is designed as a real front
door, not a demo:

* **admission control** -- at most ``max_inflight`` requests are
  admitted at once; excess load is shed with ``503 + Retry-After``
  before it touches the engine, and an optional per-client token bucket
  (keyed on the ``X-Client-Id`` header) answers ``429``;
* **deadline propagation** -- every request carries a deadline
  (``X-Deadline-Ms`` header or ``deadline_ms`` query param, with a
  server default).  The deadline is threaded into the engine, which
  cancels cooperatively at solver phase boundaries, so a query that
  cannot finish in time frees its worker and answers ``504``;
* **graceful drain** -- SIGTERM stops accepting, drains in-flight
  requests up to ``drain_timeout`` seconds, then retires worker pools and
  push caches through the engine's existing close path.

With ``--degraded-tier`` the server stops shedding ``/query`` under
overload or an expiring deadline and instead answers from the cheap
cumulative-power-iteration tier, labelling every response with
``tier`` and ``accuracy_achieved`` (see ``docs/scale.md``).

Endpoints: ``POST /query``, ``POST /query_batch``, ``POST /top_k``,
``POST /top_k_batch``, ``POST /mutate``, ``GET /healthz``,
``GET /readyz``, ``GET /metrics``.  See ``docs/server.md`` for the
wire reference.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.params import AccuracyParams
from repro.core.solvers import SOLVERS
from repro.errors import (
    DeadlineExceededError,
    GraphFormatError,
    ParameterError,
)
from repro.server import protocol
from repro.server.limits import (
    AdmissionController,
    TokenBucket,
    deadline_from_ms,
    parse_deadline_ms,
)
from repro.server.metrics import ServerMetrics
from repro.server.protocol import ProtocolError, json_body, render_response

#: Endpoints that bypass admission control and rate limiting.
CONTROL_ENDPOINTS = frozenset({"/healthz", "/readyz", "/metrics"})


@dataclass
class ServerConfig:
    """Tunables of :class:`SSRWRServer` (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral (tests/bench)
    max_inflight: int = 64              # admission bound (queued + running)
    dispatch_workers: int = 8           # threads running engine calls
    rate_limit: float | None = None     # per-client requests/second
    rate_burst: float | None = None     # bucket size (default: rate)
    default_deadline_ms: float = 30_000.0
    max_deadline_ms: float = 300_000.0
    drain_timeout: float = 10.0         # seconds to wait on SIGTERM
    max_body_bytes: int = 1_048_576
    retry_after_seconds: int = 1        # hint sent with 503 sheds
    client_header: str = "x-client-id"
    # Degraded serving tier (opt-in; docs/scale.md).  When enabled, a
    # /query that would be shed (queue full) or miss its deadline is
    # answered by the cheap CPI tier with truthful tier/accuracy fields
    # instead of a 503/504.
    degraded_tier: bool = False
    degraded_rounds: int = 8
    degraded_headroom_ms: float = 50.0
    degraded_inflight: int = 8

    def __post_init__(self):
        if self.dispatch_workers < 1:
            raise ParameterError(
                f"dispatch_workers must be >= 1, got {self.dispatch_workers}"
            )
        if self.default_deadline_ms <= 0:
            raise ParameterError(
                f"default_deadline_ms must be positive, "
                f"got {self.default_deadline_ms}"
            )

    def tier_policy(self):
        """The :class:`repro.serving.tiers.TierPolicy` these settings
        describe (validates the degraded_* fields)."""
        from repro.serving.tiers import TierPolicy

        return TierPolicy(
            enabled=bool(self.degraded_tier),
            rounds=int(self.degraded_rounds),
            headroom_ms=float(self.degraded_headroom_ms),
            max_inflight=int(self.degraded_inflight),
        )


class SSRWRServer:
    """Asyncio HTTP/JSON service over a :class:`ConcurrentQueryEngine`.

    Parameters
    ----------
    engine:
        The serving engine to expose.  With ``own_engine=True`` (the
        default) the drain path closes it -- retiring its thread pool,
        any solver process pool and push caches; pass ``own_engine=False``
        when the caller keeps using the engine after the server stops.
    config:
        :class:`ServerConfig`; ``None`` uses the defaults.
    """

    def __init__(self, engine, config=None, *, own_engine=True):
        self._engine = engine
        self._config = config or ServerConfig()
        self._own_engine = bool(own_engine)
        self._admission = AdmissionController(self._config.max_inflight)
        self._tier_policy = self._config.tier_policy()
        # Downgrades get their own small admission queue: escaping
        # overload through the queue that is overloaded would be no
        # escape at all.
        self._degraded_admission = AdmissionController(
            self._tier_policy.max_inflight
        )
        self._limiter = None
        if self._config.rate_limit is not None:
            self._limiter = TokenBucket(self._config.rate_limit,
                                        self._config.rate_burst)
        self.metrics = ServerMetrics()
        self._pool = ThreadPoolExecutor(
            max_workers=self._config.dispatch_workers,
            thread_name_prefix="ssrwr-http",
        )
        self._server = None
        self._loop = None
        self._stop_event = None
        self._draining = False
        self._closed = False
        self._connections = set()
        self._routes = {
            ("POST", "/query"): self._handle_query,
            ("POST", "/query_batch"): self._handle_query_batch,
            ("POST", "/top_k"): self._handle_top_k,
            ("POST", "/top_k_batch"): self._handle_top_k_batch,
            ("POST", "/mutate"): self._handle_mutate,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/readyz"): self._handle_readyz,
            ("GET", "/metrics"): self._handle_metrics,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self._engine

    @property
    def config(self):
        return self._config

    @property
    def port(self):
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None:
            return None
        sockets = self._server.sockets or []
        return sockets[0].getsockname()[1] if sockets else None

    @property
    def url(self):
        return f"http://{self._config.host}:{self.port}"

    @property
    def draining(self):
        return self._draining

    @property
    def ready(self):
        """Serving and not paused behind a mutation drain."""
        return (not self._draining and not self._closed
                and not self._engine.mutating)

    async def start(self):
        """Bind the listener; returns once accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, host=self._config.host,
            port=self._config.port,
        )
        return self

    def install_signal_handlers(self):
        """SIGTERM/SIGINT trigger a graceful drain (CLI path).

        No-op where signal handlers are unavailable (non-main thread).
        """
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                return False
        return True

    def request_shutdown(self):
        """Begin a graceful drain; safe from any thread or signal."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    async def run_until_shutdown(self):
        """Serve until :meth:`request_shutdown`, then drain and close."""
        await self._stop_event.wait()
        await self.shutdown()

    async def shutdown(self):
        """Graceful drain: stop accepting, finish in-flight, close.

        Readiness flips immediately (load balancers stop routing); the
        listener closes so no new connection lands; admitted requests
        get up to ``drain_timeout`` seconds to finish; whatever remains
        is cancelled; finally the engine's close path retires its worker
        pools and push caches.
        """
        if self._closed:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self._config.drain_timeout
        while self._admission.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        pending = [task for task in self._connections if not task.done()]
        if pending:
            await asyncio.wait(
                pending, timeout=max(0.0, deadline - time.monotonic())
            )
        for task in self._connections:
            if not task.done():
                task.cancel()
        self._closed = True
        self._pool.shutdown(wait=True)
        if self._own_engine:
            self._engine.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._draining:
                try:
                    request = await protocol.read_request(
                        reader, max_body=self._config.max_body_bytes
                    )
                except ProtocolError as exc:
                    writer.write(render_response(
                        exc.status, json_body({"error": exc.message}),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                except (ConnectionError, OSError):
                    break
                if request is None:
                    break
                response = await self._respond(request)
                keep_alive = request.keep_alive and not self._draining
                try:
                    writer.write(response)
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                if not keep_alive:
                    break
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request):
        """Route one request; always returns rendered response bytes."""
        tic = time.perf_counter()
        status, body, headers, ctype = await self._route(request)
        self.metrics.observe_request(request.path, status,
                                     time.perf_counter() - tic)
        return render_response(status, body, content_type=ctype,
                               extra_headers=headers,
                               keep_alive=not self._draining)

    async def _route(self, request):
        """``(status, body, headers, content_type)`` for one request."""
        endpoint = request.path
        handler = self._routes.get((request.method, endpoint))
        if handler is None:
            known_paths = {path for _, path in self._routes}
            status = 405 if endpoint in known_paths else 404
            return (status,
                    json_body({"error": f"{request.method} {endpoint}"}),
                    None, "application/json")
        if endpoint in CONTROL_ENDPOINTS:
            return await handler(request)

        # Admission control for the work-carrying endpoints.
        retry_after = {"Retry-After": str(self._config.retry_after_seconds)}
        if self._draining:
            return (503, json_body({"error": "server is draining"}),
                    retry_after, "application/json")
        client = request.header(self._config.client_header, "anonymous")
        if self._limiter is not None and not self._limiter.allow(client):
            retry = max(1, int(self._limiter.retry_after(client) + 0.999))
            return (429,
                    json_body({"error": f"client {client!r} is rate-limited"}),
                    {"Retry-After": str(retry)}, "application/json")
        admission = self._admission
        if not admission.try_acquire():
            # Overload.  With the degraded tier enabled, /query escapes
            # through a separate small admission queue and is answered
            # by the cheap CPI tier (200 with truthful tier/accuracy
            # fields); everything else -- and /query once the degraded
            # slots are also full -- sheds with 503 as before.
            admission = self._degraded_admission
            if not (self._tier_policy.enabled and endpoint == "/query"
                    and admission.try_acquire()):
                return (503,
                        json_body({"error": "pending-request queue is full"}),
                        retry_after, "application/json")
            handler = functools.partial(self._handle_query,
                                        degraded="overload")
        try:
            return await self._dispatch(handler, request)
        finally:
            admission.release()

    async def _dispatch(self, handler, request):
        """Run one work handler, mapping domain errors to status codes."""
        try:
            return await handler(request)
        except ProtocolError as exc:
            return (exc.status, json_body({"error": exc.message}), None,
                    "application/json")
        except DeadlineExceededError as exc:
            return (504, json_body({"error": str(exc)}), None,
                    "application/json")
        except (ParameterError, GraphFormatError) as exc:
            return (400, json_body({"error": str(exc)}), None,
                    "application/json")
        except Exception as exc:   # noqa: BLE001 -- last-resort 500
            return (
                500,
                json_body({"error": f"{type(exc).__name__}: {exc}"}),
                None, "application/json",
            )

    # ------------------------------------------------------------------
    # Request helpers
    # ------------------------------------------------------------------
    def _deadline_for(self, request):
        """Absolute monotonic deadline for a request (header wins)."""
        raw = request.header("x-deadline-ms")
        if raw is None:
            raw = request.query.get("deadline_ms")
        try:
            ms = parse_deadline_ms(
                raw, default_ms=self._config.default_deadline_ms,
                max_ms=self._config.max_deadline_ms,
            )
        except ValueError:
            raise ProtocolError(
                400, f"deadline must be numeric milliseconds, got {raw!r}"
            ) from None
        return deadline_from_ms(ms)

    @staticmethod
    def _accuracy_from(payload):
        spec = payload.get("accuracy")
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise ProtocolError(400, "accuracy must be an object")
        try:
            return AccuracyParams(
                eps=float(spec["eps"]), delta=float(spec["delta"]),
                p_f=float(spec["p_f"]),
            )
        except KeyError as exc:
            raise ProtocolError(
                400, f"accuracy is missing {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ProtocolError(400, f"bad accuracy value: {exc}") from None

    @staticmethod
    def _int_field(payload, name):
        if name not in payload:
            raise ProtocolError(400, f"missing required field {name!r}")
        value = payload[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(400, f"{name!r} must be an integer")
        return int(value)

    async def _in_pool(self, fn):
        return await self._loop.run_in_executor(self._pool, fn)

    async def _batch_outcome(self, request, payload, answer):
        """Run one batch endpoint's engine call; returns its
        :class:`repro.serving.BatchOutcome` and the parsed accuracy.

        ``answer(sources, accuracy=, deadline=, on_error=)`` is the
        engine's ``query_batch`` or ``top_k_batch``, run with
        ``on_error="collect"`` so a bad source yields an entry in
        ``errors`` instead of failing the whole batch.
        """
        sources = payload.get("sources")
        if not isinstance(sources, list) or not sources:
            raise ProtocolError(400, "'sources' must be a non-empty list")
        for value in sources:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(400, "'sources' must hold integers")
        accuracy = self._accuracy_from(payload)
        deadline = self._deadline_for(request)
        outcome = await self._in_pool(
            lambda: answer(sources, accuracy=accuracy, deadline=deadline,
                           on_error="collect")
        )
        if (outcome.errors
                and any(result is None for result in outcome.results)
                and time.monotonic() >= deadline):
            # The batch as a whole ran out of budget; per-item errors
            # would just repeat the deadline message.
            raise DeadlineExceededError(
                "batch deadline expired before every source was answered"
            )
        return outcome, accuracy

    def _top_k_doc(self, answer):
        """One top-k answer on the wire, counted by solver path."""
        self.metrics.observe_top_k(answer.path)
        # bound_gap / bound_width are None on the full path and +inf
        # when k covers every node; json_body writes both as null.
        return {
            "source": int(answer.source),
            "nodes": answer.nodes,
            "values": answer.values,
            #: which solver produced the scores: "topk" means the
            #: PowerPush envelope (``separated`` says whether it
            #: certified the set), "full" means the full solve answered
            #: (``mode="full"``).
            "path": answer.path,
            "separated": bool(answer.separated),
            "bound_gap": answer.bound_gap,
            "bound_width": answer.bound_width,
            "walks_used": int(answer.walks_used),
            "pushes": int(answer.pushes),
            "tier": "exact",
        }

    # ------------------------------------------------------------------
    # Endpoint handlers (each returns status, body, headers, ctype)
    # ------------------------------------------------------------------
    def _query_contract(self, accuracy):
        """The accuracy contract a query is answered under (``None``
        only on degenerate graphs where paper defaults are undefined)."""
        if accuracy is not None:
            return accuracy
        n = self._engine.graph.n
        return AccuracyParams.paper_defaults(n) if n >= 2 else None

    async def _handle_query(self, request, degraded=None):
        """Answer ``POST /query``.

        ``degraded`` is the downgrade reason when :meth:`_respond`
        already decided this request cannot have an exact answer
        (``"overload"``); the handler itself adds ``"deadline"``
        downgrades -- both up front when the remaining budget is below
        the policy headroom, and on a mid-solve
        :class:`DeadlineExceededError`.  Every response carries
        ``tier`` + ``accuracy_achieved``; degraded ones add
        ``degraded_reason`` and the CPI ``error_bound``.
        """
        from repro.serving.tiers import TIER_CPI, achieved_eps, tier_of

        payload = request.json()
        source = self._int_field(payload, "source")
        accuracy = self._accuracy_from(payload)
        deadline = self._deadline_for(request)
        top_k = None
        if payload.get("top_k") is not None:
            top_k = self._int_field(payload, "top_k")
            if top_k < 1:
                raise ProtocolError(400, f"'top_k' must be >= 1, got {top_k}")
        policy = self._tier_policy
        reason = degraded
        if reason is None and policy.enabled:
            remaining_ms = (deadline - time.monotonic()) * 1000.0
            if policy.wants_downgrade(remaining_ms):
                reason = "deadline"
        result = None
        if reason is None:
            try:
                result = await self._in_pool(
                    lambda: self._engine.query(source, accuracy=accuracy,
                                               deadline=deadline)
                )
            except DeadlineExceededError:
                if not policy.enabled:
                    raise
                reason = "deadline"
        if result is None:
            # The cheap tier ignores the (already blown or nearly blown)
            # deadline: a few frontier sweeps always complete.
            result = await self._in_pool(
                lambda: self._engine.query_cheap(source, accuracy=accuracy,
                                                 rounds=policy.rounds)
            )
        tier = tier_of(result)
        doc = {
            "source": result.source,
            "epoch": self._engine.epoch,
            "algorithm": result.algorithm,
            "walks_used": int(result.walks_used),
            "pushes": int(result.pushes),
            "tier": tier,
            "accuracy_achieved": achieved_eps(
                result, self._query_contract(accuracy)
            ),
        }
        if tier == TIER_CPI:
            doc["degraded_reason"] = reason
            doc["error_bound"] = result.extras.get("error_bound")
            self.metrics.observe_degraded(tier)
        if top_k is not None:
            doc["nodes"], doc["values"] = result.top_k(top_k)
        else:
            doc["estimates"] = result.estimates
        return 200, json_body(doc), None, "application/json"

    async def _handle_query_batch(self, request):
        outcome, accuracy = await self._batch_outcome(
            request, request.json(), self._engine.query_batch,
        )
        from repro.serving.tiers import achieved_eps

        contract = self._query_contract(accuracy)
        results = []
        for result in outcome.results:
            if result is None:
                results.append(None)
            else:
                results.append({
                    "source": result.source,
                    "estimates": result.estimates,
                    "tier": "exact",
                    "accuracy_achieved": achieved_eps(result, contract),
                })
        doc = {
            "epoch": self._engine.epoch,
            "results": results,
            "errors": {str(source): message
                       for source, message in outcome.errors.items()},
        }
        return 200, json_body(doc), None, "application/json"

    async def _handle_top_k(self, request):
        payload = request.json()
        source = self._int_field(payload, "source")
        k = self._int_field(payload, "k")
        mode = payload.get("mode", "auto")
        accuracy = self._accuracy_from(payload)
        deadline = self._deadline_for(request)
        answer = await self._in_pool(
            lambda: self._engine.top_k(source, k, accuracy=accuracy,
                                       deadline=deadline, mode=mode)
        )
        doc = {"k": k, "epoch": self._engine.epoch,
               **self._top_k_doc(answer)}
        return 200, json_body(doc), None, "application/json"

    async def _handle_top_k_batch(self, request):
        """Answer ``POST /top_k_batch``: one ranked answer per source."""
        payload = request.json()
        k = self._int_field(payload, "k")
        outcome, _ = await self._batch_outcome(
            request, payload,
            functools.partial(self._engine.top_k_batch, k=k,
                              mode=payload.get("mode", "auto")),
        )
        doc = {
            "epoch": self._engine.epoch,
            "k": k,
            "results": [None if answer is None else self._top_k_doc(answer)
                        for answer in outcome.results],
            "errors": {str(source): message
                       for source, message in outcome.errors.items()},
        }
        return 200, json_body(doc), None, "application/json"

    async def _handle_mutate(self, request):
        payload = request.json()
        op = payload.get("op")
        if op == "add_edge":
            u = self._int_field(payload, "u")
            v = self._int_field(payload, "v")
            undirected = payload.get("undirected", False)
            if not isinstance(undirected, bool):
                raise ProtocolError(400, "'undirected' must be a boolean")
            changed = await self._in_pool(
                lambda: self._engine.add_edge(u, v, undirected=undirected)
            )
        elif op == "remove_edge":
            u = self._int_field(payload, "u")
            v = self._int_field(payload, "v")
            changed = await self._in_pool(
                lambda: self._engine.remove_edge(u, v)
            )
        elif op == "remove_node":
            u = self._int_field(payload, "u")
            changed = bool(await self._in_pool(
                lambda: self._engine.remove_node(u)
            ))
        else:
            raise ProtocolError(
                400,
                f"op must be add_edge | remove_edge | remove_node, "
                f"got {op!r}",
            )
        if changed:
            self.metrics.observe_mutation()
        doc = {"op": op, "changed": bool(changed),
               "epoch": self._engine.epoch}
        # Incremental engines report how the cache fared (docs/dynamic.md).
        last = self._engine.stats.extras.get("last_mutation")
        if changed and last is not None:
            doc["cache"] = {"incremental": last.get("incremental", False),
                            "retained": last.get("retained", 0),
                            "evicted": last.get("evicted", 0)}
        return 200, json_body(doc), None, "application/json"

    async def _handle_healthz(self, request):
        del request
        return 200, json_body({"status": "ok"}), None, "application/json"

    async def _handle_readyz(self, request):
        del request
        if self.ready:
            doc = {"ready": True, "epoch": self._engine.epoch}
            return 200, json_body(doc), None, "application/json"
        reason = "draining" if self._draining else "mutating"
        doc = {"ready": False, "reason": reason}
        return (503, json_body(doc),
                {"Retry-After": str(self._config.retry_after_seconds)},
                "application/json")

    async def _handle_metrics(self, request):
        del request
        page = self.metrics.render(
            engine=self._engine, inflight=self._admission.inflight,
            ready=self.ready,
        )
        return (200, page, None,
                "text/plain; version=0.0.4; charset=utf-8")


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on a background thread (tests, bench, examples).

    Created by :func:`start_in_thread`; ``stop()`` performs the same
    graceful drain as SIGTERM and joins the thread.
    """

    def __init__(self, server, thread, started, failure):
        self.server = server
        self._thread = thread
        self._started = started
        self._failure = failure

    @property
    def url(self):
        return self.server.url

    @property
    def port(self):
        return self.server.port

    def stop(self, timeout=30.0):
        """Drain, close and join; idempotent."""
        self.server.request_shutdown()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise TimeoutError("server thread did not stop in time")
        if self._failure:
            raise self._failure[0]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


def start_in_thread(engine, config=None, *, own_engine=True):
    """Run an :class:`SSRWRServer` on a daemon thread; returns a handle.

    Blocks until the listener is bound (so ``handle.url`` is valid) and
    raises whatever the server thread raised during startup.
    """
    server = SSRWRServer(engine, config, own_engine=own_engine)
    started = threading.Event()
    failure = []

    async def _amain():
        try:
            await server.start()
        finally:
            started.set()
        await server.run_until_shutdown()

    def _thread_main():
        try:
            asyncio.run(_amain())
        except BaseException as exc:  # noqa: BLE001 -- re-raised in stop()
            failure.append(exc)
            started.set()

    thread = threading.Thread(target=_thread_main, name="repro-serve",
                              daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if failure:
        raise failure[0]
    if server.port is None:
        thread.join(timeout=1.0)
        raise RuntimeError("server failed to bind a listener")
    return ServerHandle(server, thread, started, failure)


# ----------------------------------------------------------------------
# Console entry point (`repro-serve`)
# ----------------------------------------------------------------------
def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve SSRWR queries over HTTP (see docs/server.md).",
    )
    parser.add_argument("dataset", help="dataset name from the catalog")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port; 0 binds an ephemeral port and "
                             "prints the bound one on stdout")
    parser.add_argument("--engine", choices=("threads", "multiproc"),
                        default="threads",
                        help="serving engine: 'threads' shares one "
                             "in-process engine, 'multiproc' dispatches "
                             "to solver worker processes over a "
                             "shared-memory graph (docs/multiprocess.md)")
    parser.add_argument("--solver", choices=SOLVERS,
                        default=None,
                        help="SSRWR solver backend; default resolves via "
                             "the REPRO_SOLVER env var ('auto' = ResAcc). "
                             "'powerpush' answers cold /query_batch "
                             "misses as one blocked multi-source sweep "
                             "(docs/powerpush.md)")
    parser.add_argument("--workers", type=int, default=4,
                        help="engine thread-pool width (dispatch threads "
                             "for --engine multiproc)")
    parser.add_argument("--solver-workers", type=int, default=4,
                        help="solver worker processes "
                             "(--engine multiproc only)")
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="admission bound before 503 load shedding")
    parser.add_argument("--rate-limit", type=float, default=None,
                        help="per-client requests/second (default: off)")
    parser.add_argument("--rate-burst", type=float, default=None)
    parser.add_argument("--default-deadline-ms", type=float,
                        default=30_000.0)
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds to finish in-flight work on SIGTERM")
    parser.add_argument("--trace", action="store_true",
                        help="per-phase trace aggregation in /metrics "
                             "(bounded retention)")
    parser.add_argument("--incremental", action="store_true",
                        help="offset-bound cache retention across "
                             "mutations instead of full invalidation "
                             "(docs/dynamic.md)")
    parser.add_argument("--solve-margin", type=float, default=None,
                        help="fraction of the contract eps the solver "
                             "targets on cache misses, in (0, 1]; "
                             "default 0.5 with --incremental else 1.0")
    parser.add_argument("--mmap", action="store_true",
                        help="serve the dataset from a file-backed mmap "
                             "CSR instead of resident arrays "
                             "(docs/scale.md)")
    parser.add_argument("--degraded-tier", action="store_true",
                        help="answer overloaded or deadline-starved "
                             "/query requests from the cheap CPI tier "
                             "(200 with tier/accuracy_achieved fields) "
                             "instead of 503/504 (docs/scale.md)")
    parser.add_argument("--degraded-rounds", type=int, default=8,
                        help="CPI truncation rounds for degraded answers")
    parser.add_argument("--degraded-headroom-ms", type=float, default=50.0,
                        help="downgrade up front when less than this "
                             "budget remains")
    return parser


def main(argv=None):
    from repro.datasets import catalog
    from repro.serving import ConcurrentQueryEngine, MultiProcessQueryEngine

    args = build_parser().parse_args(argv)
    try:
        graph = catalog.load(args.dataset, scale=args.scale,
                             mmap=args.mmap)
    except ParameterError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.engine == "multiproc":
        engine = MultiProcessQueryEngine(
            graph, solver=args.solver,
            solver_workers=args.solver_workers,
            dispatch_workers=args.workers, cache_size=args.cache_size,
            seed=args.seed, trace=args.trace,
            trace_capacity=512 if args.trace else None,
            incremental=args.incremental, solve_margin=args.solve_margin,
        )
        # Spawn + import the solver stack now so the first request does
        # not pay pool startup.
        engine.warm_up()
    else:
        engine = ConcurrentQueryEngine(
            graph, solver=args.solver, max_workers=args.workers,
            cache_size=args.cache_size,
            seed=args.seed, trace=args.trace,
            trace_capacity=512 if args.trace else None,
            incremental=args.incremental, solve_margin=args.solve_margin,
        )
    config = ServerConfig(
        host=args.host, port=args.port, max_inflight=args.max_inflight,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout=args.drain_timeout,
        degraded_tier=args.degraded_tier,
        degraded_rounds=args.degraded_rounds,
        degraded_headroom_ms=args.degraded_headroom_ms,
    )
    server = SSRWRServer(engine, config)

    async def _amain():
        await server.start()
        server.install_signal_handlers()
        # Machine-parseable bind line: with --port 0 the kernel picks
        # the port, so scripts read it from here (see the CI smoke step).
        print(f"repro-serve: listening on {server.url} "
              f"port={server.port} engine={args.engine} "
              f"(dataset={args.dataset}, n={graph.n}, m={graph.m})",
              flush=True)
        await server.run_until_shutdown()
        print("repro-serve: drained cleanly", flush=True)

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
