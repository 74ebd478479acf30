"""End-to-end tests for the HTTP service (``repro.server``).

Every test boots a real :class:`SSRWRServer` on a loopback ephemeral
port via :func:`start_in_thread` and drives it with
:class:`ServerClient` -- the same path production traffic takes.  The
contracts under test:

* HTTP answers are **value-identical** (as float64) to a sequential
  ``QueryEngine.query`` loop after the JSON round-trip, and every float
  of every answering endpoint carries the engine's float64 bits, with
  NaN and infinities written as ``null``;
* failures are structured: 504 on deadline expiry (with the worker
  freed), 503 on queue-full load shedding, 429 on per-client rate
  limits, 503 from ``/readyz`` while a mutation drains;
* graceful drain finishes admitted requests and retires the engine;
* ``/metrics`` renders well-formed Prometheus text;
* a stress mix of shed / timeout / success leaves the engine serving
  correct answers with no leaked workers.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core import AccuracyParams
from repro.graph import generators
from repro.server import ServerClient, ServerConfig, ServerError, start_in_thread
from repro.service import QueryEngine
from repro.serving import ConcurrentQueryEngine

SEED = 9

# Loose accuracy keeps individual queries at a few milliseconds so the
# whole module stays quick; determinism does not depend on it.
def _accuracy(n):
    return AccuracyParams(eps=0.5, delta=10.0 / n, p_f=1.0 / n)


def _graph():
    return generators.preferential_attachment(300, 3, seed=7)


def _engine(graph, **kwargs):
    kwargs.setdefault("accuracy", _accuracy(graph.n))
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("max_workers", 4)
    return ConcurrentQueryEngine(graph, **kwargs)


@pytest.fixture(scope="module")
def served():
    """One shared (graph, handle, client) for the read-only tests."""
    graph = _graph()
    handle = start_in_thread(_engine(graph), ServerConfig(port=0))
    client = ServerClient(base_url=handle.url, client_id="pytest")
    yield graph, handle, client
    client.close()
    handle.stop()


# ----------------------------------------------------------------------
# Equivalence over the wire
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_query_matches_sequential_float64(self, served):
        graph, _, client = served
        sources = [0, 3, 17, 42, 99]
        sequential = QueryEngine(graph, accuracy=_accuracy(graph.n),
                                 cache_size=0, seed=SEED)
        for source in sources:
            want = sequential.query(source).estimates
            doc = client.query(source)
            got = np.asarray(doc["estimates"], dtype=np.float64)
            assert doc["source"] == source
            assert want.tobytes() == got.tobytes(), (
                f"HTTP estimates for source {source} diverge from the "
                f"sequential loop after the JSON round-trip"
            )

    def test_query_batch_matches_sequential_float64(self, served):
        graph, _, client = served
        sources = [5, 80, 5, 33, 0, 80]   # duplicates on purpose
        sequential = QueryEngine(graph, accuracy=_accuracy(graph.n),
                                 cache_size=0, seed=SEED)
        expected = [sequential.query(s).estimates for s in sources]
        doc = client.query_batch(sources)
        assert doc["errors"] == {}
        assert len(doc["results"]) == len(sources)
        for source, want, item in zip(sources, expected, doc["results"]):
            assert item["source"] == source
            got = np.asarray(item["estimates"], dtype=np.float64)
            assert want.tobytes() == got.tobytes()

    def test_batch_partial_errors_are_structured(self, served):
        graph, _, client = served
        doc = client.query_batch([1, graph.n + 7, 2])
        assert set(doc["errors"]) == {str(graph.n + 7)}
        assert doc["results"][1] is None
        assert doc["results"][0]["source"] == 1
        assert doc["results"][2]["source"] == 2

    def test_top_k_full_mode_matches_result_top_k(self, served):
        graph, _, client = served
        sequential = QueryEngine(graph, accuracy=_accuracy(graph.n),
                                 cache_size=0, seed=SEED)
        nodes, values = sequential.query(17).top_k(5)
        doc = client.top_k(17, 5, mode="full")
        assert doc["nodes"] == [int(v) for v in nodes]
        assert doc["values"] == [float(v) for v in values]
        assert doc["path"] == "full"
        assert doc["separated"] is False

    def test_top_k_reports_answering_path(self, served, monkeypatch):
        """Every /top_k response says which solver path answered."""
        graph, handle, client = served
        doc = client.top_k(17, 5)
        assert doc["path"] in ("topk", "full")
        assert isinstance(doc["separated"], bool)
        assert doc["k"] == 5
        assert doc["walks_used"] >= 0
        assert doc["pushes"] >= 0
        # k = n: the envelope certifies trivially (bound_gap would be
        # +inf, which JSON cannot carry -- the field must be null).
        doc = client.top_k(5, graph.n)
        assert doc["path"] == "topk"
        assert doc["separated"] is True
        assert doc["bound_gap"] is None
        # NaN bounds (numpy or Python floats) are null on the wire too.
        engine = handle.server.engine
        top_k = engine.top_k

        def nan_bounds(*args, **kwargs):
            return dataclasses.replace(top_k(*args, **kwargs),
                                       bound_gap=np.float64("nan"),
                                       bound_width=float("nan"))

        monkeypatch.setattr(engine, "top_k", nan_bounds)
        doc = client.top_k(5, 3)
        assert doc["bound_gap"] is None
        assert doc["bound_width"] is None

    def test_top_k_invalid_mode_is_400(self, served):
        _, _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.top_k(17, 5, mode="warp")
        assert excinfo.value.status == 400

    def test_top_k_cached_repeat_is_byte_identical(self, served):
        """A repeated (source, k) request hits the answer cache and the
        raw response body is identical down to the last byte."""
        _, handle, client = served
        payload = {"source": 23, "k": 7}
        first = client.request("POST", "/top_k", payload, raw=True)
        hits_before = handle.server.engine.stats.cache_hits
        second = client.request("POST", "/top_k", payload, raw=True)
        assert first == second
        assert handle.server.engine.stats.cache_hits > hits_before

    def test_accuracy_override_over_http(self, served):
        graph, _, client = served
        tight = AccuracyParams(eps=0.25, delta=5.0 / graph.n,
                               p_f=1.0 / graph.n)
        sequential = QueryEngine(graph, cache_size=0, seed=SEED)
        want = sequential.query(12, accuracy=tight).estimates
        doc = client.query(12, accuracy=tight)
        got = np.asarray(doc["estimates"], dtype=np.float64)
        assert want.tobytes() == got.tobytes()

    def test_healthz_and_readyz(self, served):
        _, _, client = served
        assert client.healthz() == {"status": "ok"}
        doc = client.readyz()
        assert doc["ready"] is True
        assert "epoch" in doc


# ----------------------------------------------------------------------
# Wire contract: every float in a body is the engine's float64
# ----------------------------------------------------------------------
#: ``(path, payload, deadline_ms)`` per case; each case uses sources no
#: earlier case touched, so its answer is solved cold (the blocked
#: ``power_block_loop`` sweep for ``query_batch`` on PowerPush).
WIRE_CASES = {
    "query": ("/query", {"source": 17}, None),
    "query_top_k": ("/query", {"source": 18, "top_k": 7}, None),
    "query_batch": ("/query_batch", {"sources": [40, 41, 40]}, None),
    "top_k": ("/top_k", {"source": 17, "k": 7}, None),
    "top_k_batch": ("/top_k_batch", {"sources": [40, 41], "k": 7}, None),
    "query_cpi": ("/query", {"source": 19}, 1.0),
}
DEGRADED_ROUNDS = 6


@pytest.fixture(scope="class", params=["resacc", "powerpush"])
def wire_served(request):
    """A degraded-tier server per solver for the wire-contract cases."""
    handle = start_in_thread(
        _engine(_graph(), solver=request.param),
        ServerConfig(port=0, degraded_tier=True,
                     degraded_rounds=DEGRADED_ROUNDS),
    )
    client = ServerClient(base_url=handle.url, client_id="wire")
    yield handle, client
    client.close()
    handle.stop()


def _engine_floats(case, engine, payload):
    """``(body field path, engine float64 value)`` pairs for one case."""
    if case == "query":
        result = engine.query(payload["source"])
        return [(("estimates",), result.estimates)]
    if case == "query_top_k":
        _, values = engine.query(payload["source"]).top_k(payload["top_k"])
        return [(("values",), values)]
    if case == "query_cpi":
        result = engine.query_cheap(payload["source"],
                                    rounds=DEGRADED_ROUNDS)
        return [(("estimates",), result.estimates),
                (("error_bound",), result.extras["error_bound"]),
                (("accuracy_achieved",), result.extras["eps_achieved"])]
    if case == "query_batch":
        return [(("results", i, "estimates"), engine.query(s).estimates)
                for i, s in enumerate(payload["sources"])]
    sources = payload.get("sources", [payload.get("source")])
    pairs = []
    for i, s in enumerate(sources):
        answer = engine.top_k(s, payload["k"])
        prefix = ("results", i) if "sources" in payload else ()
        pairs += [(prefix + ("values",), answer.values),
                  (prefix + ("bound_gap",), answer.bound_gap),
                  (prefix + ("bound_width",), answer.bound_width)]
    return pairs


class TestWireContract:
    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_body_floats_equal_engine_bits(self, wire_served, case):
        """Each float parsed from a body (by the stdlib parser, not the
        server's codec) has the engine's float64 bits."""
        handle, client = wire_served
        path, payload, deadline_ms = WIRE_CASES[case]
        doc = json.loads(client.request("POST", path, payload,
                                        deadline_ms=deadline_ms, raw=True))
        assert doc.get("tier", "exact") == (
            "cpi" if case == "query_cpi" else "exact")
        for keys, want in _engine_floats(case, handle.server.engine,
                                         payload):
            wire = doc
            for key in keys:
                wire = wire[key]
            want = np.asarray(want, dtype=np.float64)
            got = np.asarray(wire, dtype=np.float64)
            assert got.shape == want.shape, keys
            assert got.tobytes() == want.tobytes(), (
                f"{case}: {keys} differs from the engine's float64 bits")

    def test_non_finite_cpi_fields_are_null(self, wire_served, monkeypatch):
        """A NaN error bound and an infinite achieved eps are JSON null
        (JSON has no NaN or Infinity)."""
        handle, client = wire_served
        engine = handle.server.engine
        query_cheap = engine.query_cheap

        def non_finite(*args, **kwargs):
            result = query_cheap(*args, **kwargs)
            extras = {**result.extras, "error_bound": float("nan"),
                      "eps_achieved": np.float64("inf")}
            return dataclasses.replace(result, extras=extras)

        monkeypatch.setattr(engine, "query_cheap", non_finite)
        doc = json.loads(client.request("POST", "/query", {"source": 23},
                                        deadline_ms=1.0, raw=True))
        assert doc["tier"] == "cpi"
        assert doc["error_bound"] is None
        assert doc["accuracy_achieved"] is None


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_answers_504(self, served):
        _, handle, client = served
        with pytest.raises(ServerError) as excinfo:
            client.query(203, deadline_ms=0)
        assert excinfo.value.status == 504
        assert handle.server.metrics.deadline_exceeded_total >= 1

    def test_worker_freed_after_deadline(self, served):
        """A 504 must not wedge a dispatch slot: next query succeeds."""
        graph, _, client = served
        for _ in range(3):
            with pytest.raises(ServerError) as excinfo:
                client.query(204, deadline_ms=0)
            assert excinfo.value.status == 504
        doc = client.query(204)
        assert doc["source"] == 204
        assert len(doc["estimates"]) == graph.n

    def test_top_k_deadline_expiry_is_504_and_worker_freed(self, served):
        """Deadline expiry mid-separation surfaces as a clean 504 (not a
        half-built answer) and the dispatch slot is released."""
        graph, handle, client = served
        before = handle.server.metrics.deadline_exceeded_total
        for _ in range(3):
            with pytest.raises(ServerError) as excinfo:
                client.top_k(203, 5, deadline_ms=0)
            assert excinfo.value.status == 504
        assert handle.server.metrics.deadline_exceeded_total >= before + 3
        doc = client.top_k(203, 5)
        assert doc["source"] == 203
        assert len(doc["nodes"]) == 5

    def test_non_numeric_deadline_is_400(self, served):
        _, _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/query?deadline_ms=soon", {"source": 0})
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Admission control and rate limiting
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_sheds_503_with_retry_after(self):
        """One admitted request blocked on the gate; the next is shed."""
        graph = _graph()
        engine = _engine(graph)
        handle = start_in_thread(engine, ServerConfig(port=0,
                                                      max_inflight=1))
        release = threading.Event()
        results = {}

        def hold_writer():
            # Holding the write gate stalls every reader, pinning the
            # admitted query inside its admission slot.
            with engine._gate.write():
                release.wait(timeout=30.0)

        def blocked_query():
            with ServerClient(base_url=handle.url) as c:
                results["blocked"] = c.query(5)

        writer = threading.Thread(target=hold_writer)
        writer.start()
        while not engine.mutating:
            time.sleep(0.001)
        reader = threading.Thread(target=blocked_query)
        reader.start()
        while handle.server._admission.inflight < 1:
            time.sleep(0.001)
        try:
            with ServerClient(base_url=handle.url) as c:
                with pytest.raises(ServerError) as excinfo:
                    c.query(6)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert handle.server.metrics.shed_total >= 1
        finally:
            release.set()
            writer.join(timeout=30.0)
            reader.join(timeout=30.0)
        # The blocked request finished normally once the gate opened.
        assert results["blocked"]["source"] == 5
        handle.stop()

    def test_readyz_flips_while_mutation_drains(self):
        graph = _graph()
        engine = _engine(graph)
        handle = start_in_thread(engine, ServerConfig(port=0))
        release = threading.Event()

        def hold_writer():
            with engine._gate.write():
                release.wait(timeout=30.0)

        writer = threading.Thread(target=hold_writer)
        writer.start()
        while not engine.mutating:
            time.sleep(0.001)
        try:
            with ServerClient(base_url=handle.url) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.readyz()
                assert excinfo.value.status == 503
                assert excinfo.value.payload == {"ready": False,
                                                 "reason": "mutating"}
        finally:
            release.set()
            writer.join(timeout=30.0)
        with ServerClient(base_url=handle.url) as client:
            assert client.readyz()["ready"] is True
        handle.stop()

    def test_rate_limit_answers_429(self):
        graph = _graph()
        handle = start_in_thread(
            _engine(graph),
            ServerConfig(port=0, rate_limit=0.25, rate_burst=2.0),
        )
        try:
            with ServerClient(base_url=handle.url,
                              client_id="greedy") as client:
                client.query(1)
                client.query(2)
                with pytest.raises(ServerError) as excinfo:
                    client.query(3)
                assert excinfo.value.status == 429
                assert float(excinfo.value.retry_after) >= 1
            # A different client has its own bucket.
            with ServerClient(base_url=handle.url,
                              client_id="patient") as client:
                assert client.query(1)["source"] == 1
            assert handle.server.metrics.rate_limited_total >= 1
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Mutations over HTTP
# ----------------------------------------------------------------------
class TestMutation:
    def test_mutation_bumps_epoch_and_answers_change(self):
        graph = _graph()
        handle = start_in_thread(_engine(graph), ServerConfig(port=0))
        try:
            with ServerClient(base_url=handle.url) as client:
                before = client.query(0)
                assert before["epoch"] == 0
                doc = client.add_edge(0, 299, undirected=True)
                assert doc["op"] == "add_edge"
                assert doc["changed"] is True
                assert doc["epoch"] == 1
                # Non-incremental engine: the mutation cleared the cache.
                assert doc["cache"]["incremental"] is False
                assert doc["cache"]["retained"] == 0
                after = client.query(0)
                assert after["epoch"] == 1
                assert after["estimates"] != before["estimates"]
                # Removing it again restores the original answer bytes.
                assert client.remove_edge(0, 299)["changed"] is True
                assert client.remove_edge(299, 0)["changed"] is True
                restored = client.query(0)
                want = np.asarray(before["estimates"], dtype=np.float64)
                got = np.asarray(restored["estimates"], dtype=np.float64)
                assert want.tobytes() == got.tobytes()
        finally:
            handle.stop()

    def test_bad_edge_is_400_and_changes_nothing(self):
        graph = _graph()
        handle = start_in_thread(_engine(graph), ServerConfig(port=0))
        try:
            with ServerClient(base_url=handle.url) as client:
                for u, v, message in [(5, 5, "self-loop"),
                                      (-1, 5, "negative node id"),
                                      (5, -2, "negative node id")]:
                    with pytest.raises(ServerError) as excinfo:
                        client.add_edge(u, v, undirected=True)
                    assert excinfo.value.status == 400
                    assert message in str(excinfo.value)
                    assert client.readyz()["epoch"] == 0
                # Out-of-range removals are no-ops, not errors.
                assert client.remove_edge(-1, 5)["changed"] is False
                assert client.remove_node(-1)["changed"] is False
                assert client.add_edge(0, 299)["epoch"] == 1
        finally:
            handle.stop()

    def test_mutated_answers_match_fresh_sequential_engine(self):
        graph = _graph()
        handle = start_in_thread(_engine(graph), ServerConfig(port=0))
        try:
            with ServerClient(base_url=handle.url) as client:
                client.add_edge(7, 250, undirected=True)
                doc = client.query(7)
            mutated = handle.server.engine.graph
            sequential = QueryEngine(mutated, accuracy=_accuracy(mutated.n),
                                     cache_size=0, seed=SEED)
            want = sequential.query(7).estimates
            got = np.asarray(doc["estimates"], dtype=np.float64)
            assert want.tobytes() == got.tobytes()
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_inflight_then_refuses(self):
        graph = _graph()
        engine = _engine(graph)
        handle = start_in_thread(engine, ServerConfig(port=0,
                                                      drain_timeout=10.0))
        release = threading.Event()
        results = {}

        def hold_writer():
            with engine._gate.write():
                release.wait(timeout=30.0)

        def slow_query():
            with ServerClient(base_url=handle.url) as c:
                results["slow"] = c.query(11)

        writer = threading.Thread(target=hold_writer)
        writer.start()
        while not engine.mutating:
            time.sleep(0.001)
        query_thread = threading.Thread(target=slow_query)
        query_thread.start()
        while handle.server._admission.inflight < 1:
            time.sleep(0.001)

        url = handle.url    # the port evaporates once the listener closes
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        while not handle.server.draining:
            time.sleep(0.001)
        release.set()          # let the admitted request finish
        writer.join(timeout=30.0)
        query_thread.join(timeout=30.0)
        stopper.join(timeout=30.0)
        assert results["slow"]["source"] == 11
        # The listener is gone: a fresh connection is refused.
        with pytest.raises(OSError):
            urllib.request.urlopen(f"{url}/healthz", timeout=2)

    def test_stop_is_idempotent_and_closes_engine(self):
        graph = _graph()
        engine = _engine(graph)
        handle = start_in_thread(engine, ServerConfig(port=0))
        with ServerClient(base_url=handle.url) as client:
            client.query(0)
        handle.stop()
        handle.stop()
        # own_engine=True: the drain retired the engine's worker pool.
        assert engine._executor._shutdown


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?(\d+\.?\d*([eE][+-]?\d+)?|[+-]?Inf|NaN)$"
)


def parse_prometheus(text):
    """Tiny Prometheus text parser: {metric_name: {labels_str: value}}."""
    families = {}
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            _, kind, name, rest = line.split(" ", 3)
            families.setdefault(name, {})[kind] = rest
            continue
        assert PROM_SAMPLE.match(line), f"malformed sample line: {line!r}"
        name_and_labels, value = line.rsplit(" ", 1)
        samples[name_and_labels] = float(value)
    return families, samples


class TestMetrics:
    def test_metrics_page_is_well_formed(self, served):
        graph, handle, client = served
        client.query(42)
        with pytest.raises(ServerError):
            client.query(42, deadline_ms=0)
        text = client.metrics()
        families, samples = parse_prometheus(text)
        for name in (
            "repro_http_requests_total",
            "repro_http_query_latency_seconds",
            "repro_http_shed_total",
            "repro_http_rate_limited_total",
            "repro_http_deadline_exceeded_total",
            "repro_http_mutations_total",
            "repro_http_inflight",
            "repro_http_ready",
            "repro_graph_epoch",
            "repro_engine_queries_total",
            "repro_engine_coalesced_total",
            "repro_engine_deadline_exceeded_total",
        ):
            assert "TYPE" in families[name], f"missing TYPE for {name}"
            assert "HELP" in families[name], f"missing HELP for {name}"
        assert samples["repro_http_deadline_exceeded_total"] >= 1
        assert samples["repro_http_ready"] == 1
        assert samples["repro_graph_epoch"] == handle.server.engine.epoch
        # Latency summary carries the quantiles the bench gates on.
        assert 'repro_http_query_latency_seconds{quantile="0.5"}' in samples
        assert 'repro_http_query_latency_seconds{quantile="0.95"}' in samples
        assert samples["repro_http_query_latency_seconds_count"] >= 1
        hits = [key for key in samples
                if key.startswith('repro_http_requests_total{')]
        assert any('endpoint="/query"' in key and 'status="200"' in key
                   for key in hits)

    def test_top_k_metrics_count_paths(self, served):
        _, handle, client = served
        doc = client.top_k(31, 3)
        snapshot = handle.server.metrics.snapshot()
        key = ("topk_fast_total" if doc["path"] == "topk"
               else "topk_full_total")
        assert snapshot[key] >= 1
        _, samples = parse_prometheus(client.metrics())
        total = (samples['repro_http_top_k_answers_total{path="topk"}']
                 + samples['repro_http_top_k_answers_total{path="full"}'])
        assert total >= 1
        assert samples["repro_engine_topk_queries_total"] >= 1

    def test_metrics_counts_match_observed_traffic(self, served):
        _, handle, client = served
        before = handle.server.metrics.snapshot()
        client.query(77)
        client.healthz()
        after = handle.server.metrics.snapshot()
        assert (after["requests"]["/query 200"]
                > before["requests"].get("/query 200", 0))
        assert (after["query_latency"]["count"]
                == before["query_latency"]["count"] + 1)


# ----------------------------------------------------------------------
# Stress: shed + timeout + success under concurrency
# ----------------------------------------------------------------------
class TestStress:
    def test_mixed_outcomes_leave_engine_consistent(self):
        graph = _graph()
        engine = _engine(graph, cache_size=32)
        handle = start_in_thread(
            engine, ServerConfig(port=0, max_inflight=2,
                                 dispatch_workers=2),
        )
        sources = list(range(0, 24))
        outcomes = {"ok": 0, 503: 0, 504: 0}
        lock = threading.Lock()

        def worker(worker_id):
            with ServerClient(base_url=handle.url,
                              client_id=f"w{worker_id}") as client:
                for i, source in enumerate(sources):
                    deadline = 0 if (i + worker_id) % 5 == 0 else None
                    try:
                        doc = client.query(source, deadline_ms=deadline)
                        with lock:
                            outcomes["ok"] += 1
                        assert doc["source"] == source
                    except ServerError as exc:
                        assert exc.status in (503, 504), exc
                        with lock:
                            outcomes[exc.status] += 1

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert outcomes["ok"] > 0
        assert outcomes[504] > 0        # forced by the zero deadlines

        worker_threads = [t for t in threading.enumerate()
                          if t.name.startswith("ssrwr-worker")]
        assert len(worker_threads) <= engine._max_workers

        # After the storm the engine still answers correct bytes.
        sequential = QueryEngine(graph, accuracy=_accuracy(graph.n),
                                 cache_size=0, seed=SEED)
        engine.flush_cache()
        with ServerClient(base_url=handle.url) as client:
            for source in (0, 7, 23):
                want = sequential.query(source).estimates
                got = np.asarray(client.query(source)["estimates"],
                                 dtype=np.float64)
                assert want.tobytes() == got.tobytes()
        handle.stop()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_repro_serve_parser_defaults(self):
        from repro.server.app import build_parser

        args = build_parser().parse_args(["dblp"])
        assert args.dataset == "dblp"
        assert args.port == 8080
        assert args.max_inflight == 64
        assert args.rate_limit is None

    def test_unknown_dataset_exits_2(self, capsys):
        from repro.server.app import main

        assert main(["no-such-dataset"]) == 2
        assert "no-such-dataset" in capsys.readouterr().err
