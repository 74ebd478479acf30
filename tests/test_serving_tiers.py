"""Degraded-accuracy serving: the CPI tier and its truthful bounds.

Covers the billion-scale tier's serving layer (see docs/scale.md):

* :func:`repro.core.cpi` is a uniform *underestimate* whose reported
  ``error_bound`` really bounds the gap to the exact answer;
* :meth:`ConcurrentQueryEngine.query_cheap` serves, caches and counts
  CPI answers;
* :meth:`ConcurrentQueryEngine.top_k_batch` equals a sequential
  ``top_k`` loop and collects invalid sources;
* the HTTP server downgrades to a 200 CPI answer -- with honest
  ``tier`` / ``accuracy_achieved`` / ``degraded_reason`` fields -- on
  both overload and expiring deadlines, instead of answering 503/504,
  and only when the tier is enabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.power import power_iteration
from repro.core import DEFAULT_CPI_ROUNDS, cpi, cpi_error_bound
from repro.errors import ParameterError
from repro.server.app import ServerConfig, start_in_thread
from repro.server.client import ServerClient, ServerError
from repro.serving import ConcurrentQueryEngine
from repro.serving.tiers import TIER_CPI, TIER_EXACT, TierPolicy, tier_of


# ----------------------------------------------------------------------
# The CPI solver and its bound
# ----------------------------------------------------------------------
class TestCPIBound:
    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    def test_underestimate_within_reported_bound(self, ba_graph, web_graph,
                                                 dangling):
        from repro.graph import CSRGraph

        for base in (ba_graph, web_graph):
            graph = CSRGraph(base.n, base.indptr, base.indices,
                             dangling=dangling)
            exact = power_iteration(graph, 3, tol=1e-14).estimates
            result = cpi(graph, 3, rounds=8)
            bound = result.extras["error_bound"]
            diff = exact - result.estimates
            assert diff.min() >= -1e-12          # never overestimates
            assert diff.max() <= bound + 1e-12   # bound is honest
            assert bound <= cpi_error_bound(0.2, 8) + 1e-12

    def test_bound_monotone_in_rounds(self, ba_graph):
        bounds = [cpi(ba_graph, 0, rounds=r).extras["error_bound"]
                  for r in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_result_is_labelled(self, tiny_graph):
        result = cpi(tiny_graph, 0, rounds=4)
        assert result.algorithm == "cpi"
        assert tier_of(result) == TIER_CPI
        assert result.walks_used == 0

    def test_traced_solve_records_one_phase(self, ba_graph):
        from repro.obs.trace import QueryTrace

        trace = QueryTrace()
        result = cpi(ba_graph, 0, rounds=4, trace=trace)
        (phase,) = trace.phases
        assert phase.name == "cpi"
        assert phase.residue_before == 1.0
        assert phase.residue_after == result.extras["error_bound"]

    def test_validation(self, tiny_graph):
        with pytest.raises(ParameterError):
            cpi(tiny_graph, 0, rounds=-1)
        with pytest.raises(ParameterError):
            cpi_error_bound(1.5, 4)


def _cpi_graph(request, name, dangling):
    """A contract-test graph: ``ba``, ``web`` (dangling nodes) or
    ``path3`` (``0 -> 1 -> 2``, node 2 dangling)."""
    from repro.graph import CSRGraph, generators

    if name == "path3":
        return generators.path(3, dangling=dangling)
    base = request.getfixturevalue(f"{name}_graph")
    return CSRGraph(base.n, base.indptr, base.indices, dangling=dangling)


class TestCPIContract:
    """The CPI tier's advertised contract against an exact oracle:
    a uniform underestimate within ``error_bound``, which is the
    leftover mass and never more than ``(1 - alpha)^rounds``."""

    @pytest.mark.parametrize("rounds", [0, 1, 2, 8, 32])
    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    @pytest.mark.parametrize("name", ["ba", "web", "path3"])
    def test_underestimate_within_bound(self, request, name, dangling,
                                        rounds):
        from repro.baselines.inverse import ExactSolver

        graph = _cpi_graph(request, name, dangling)
        source = 0
        if dangling == "absorb":
            exact = ExactSolver(graph, alpha=0.2).query(source).estimates
        else:
            exact = power_iteration(graph, source, tol=1e-14).estimates
        result = cpi(graph, source, alpha=0.2, rounds=rounds)
        bound = result.extras["error_bound"]
        diff = exact - result.estimates
        assert diff.min() >= -1e-12
        assert diff.max() <= bound + 1e-12
        assert abs(result.estimates.sum() + bound - 1.0) <= 1e-12
        assert result.extras["rounds"] <= rounds
        assert bound <= cpi_error_bound(0.2, rounds)

    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    def test_zero_rounds_places_nothing(self, ba_graph, dangling):
        from repro.graph import CSRGraph

        graph = CSRGraph(ba_graph.n, ba_graph.indptr, ba_graph.indices,
                         dangling=dangling)
        result = cpi(graph, 0, rounds=0)
        assert not result.estimates.any()
        assert result.extras["error_bound"] == 1.0
        assert result.extras["rounds"] == 0

    def test_absorbed_path_stops_when_mass_runs_out(self):
        from repro.graph import generators

        result = cpi(generators.path(3), 0, rounds=8)
        assert result.extras["rounds"] == 3
        assert result.extras["error_bound"] == 0.0
        assert result.estimates.sum() == pytest.approx(1.0, abs=1e-15)


class TestTierPolicy:
    def test_defaults_off(self):
        policy = TierPolicy()
        assert not policy.enabled
        assert not policy.wants_downgrade(1.0)

    def test_wants_downgrade_below_headroom(self):
        policy = TierPolicy(enabled=True, headroom_ms=50.0)
        assert policy.wants_downgrade(10.0)
        assert not policy.wants_downgrade(500.0)
        assert not policy.wants_downgrade(None)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TierPolicy(rounds=-1)
        with pytest.raises(ParameterError):
            TierPolicy(headroom_ms=-5.0)


# ----------------------------------------------------------------------
# Engine surface
# ----------------------------------------------------------------------
class TestQueryCheap:
    def test_serves_and_counts(self, ba_graph):
        with ConcurrentQueryEngine(ba_graph, seed=0) as engine:
            result = engine.query_cheap(4)
            assert tier_of(result) == TIER_CPI
            assert result.extras["rounds"] == DEFAULT_CPI_ROUNDS
            assert result.extras["eps_achieved"] is not None
            assert engine.stats.tier_downgrades == 1
            again = engine.query_cheap(4)    # cache hit, still counted
            assert again.estimates.tobytes() == result.estimates.tobytes()
            assert engine.stats.tier_downgrades == 2

    def test_exact_queries_unaffected(self, ba_graph):
        with ConcurrentQueryEngine(ba_graph, seed=0) as engine:
            engine.query_cheap(0)
            exact = engine.query(0)
            assert tier_of(exact) == TIER_EXACT
            assert exact.extras.get("tier") is None


class TestTopKBatch:
    def test_matches_sequential_loop(self, ba_graph):
        sources = [0, 5, 9, 5]
        with ConcurrentQueryEngine(ba_graph, seed=0) as engine:
            answers = engine.top_k_batch(sources, 4)
            for source, answer in zip(sources, answers):
                single = engine.top_k(source, 4)
                assert np.array_equal(answer.nodes, single.nodes)
                assert (np.asarray(answer.values).tobytes()
                        == np.asarray(single.values).tobytes())

    def test_collects_invalid_sources(self, ba_graph):
        with ConcurrentQueryEngine(ba_graph, seed=0) as engine:
            outcome = engine.top_k_batch([0, 10**9], 3, on_error="collect")
            assert outcome.results[0] is not None
            assert outcome.results[1] is None
            assert 10**9 in outcome.errors

    def test_raise_mode_rejects_up_front(self, ba_graph):
        with ConcurrentQueryEngine(ba_graph, seed=0) as engine:
            with pytest.raises(ParameterError, match="invalid source"):
                engine.top_k_batch([0, -3], 3)


# ----------------------------------------------------------------------
# HTTP downgrade behaviour
# ----------------------------------------------------------------------
@pytest.fixture
def degraded_server(ba_graph):
    engine = ConcurrentQueryEngine(ba_graph, max_workers=2, seed=0)
    config = ServerConfig(degraded_tier=True, degraded_rounds=6,
                          degraded_headroom_ms=50.0)
    with start_in_thread(engine, config) as handle:
        with ServerClient(base_url=handle.url) as client:
            yield handle, client


class TestServerDowngrade:
    def test_deadline_downgrade_is_200_cpi(self, degraded_server):
        _, client = degraded_server
        doc = client.query(7, deadline_ms=1.0)
        assert doc["tier"] == "cpi"
        assert doc["algorithm"] == "cpi"
        assert doc["degraded_reason"] == "deadline"
        assert doc["error_bound"] > 0
        assert doc["accuracy_achieved"] is not None

    def test_degraded_estimates_within_bound(self, degraded_server,
                                             ba_graph):
        _, client = degraded_server
        doc = client.query(2, deadline_ms=1.0)
        exact = power_iteration(ba_graph, 2, tol=1e-14).estimates
        got = np.asarray(doc["estimates"])
        diff = exact - got
        assert diff.min() >= -1e-12
        assert diff.max() <= doc["error_bound"] + 1e-12

    def test_normal_queries_stay_exact(self, degraded_server):
        _, client = degraded_server
        doc = client.query(7)
        assert doc["tier"] == "exact"
        assert "degraded_reason" not in doc
        assert doc["accuracy_achieved"] is not None

    def test_overload_downgrade(self, degraded_server):
        handle, client = degraded_server
        admission = handle.server._admission
        acquired = 0
        while admission.try_acquire():
            acquired += 1
        try:
            doc = client.query(9)
            assert doc["tier"] == "cpi"
            assert doc["degraded_reason"] == "overload"
        finally:
            for _ in range(acquired):
                admission.release()

    def test_non_query_endpoints_still_shed(self, degraded_server):
        handle, client = degraded_server
        admission = handle.server._admission
        acquired = 0
        while admission.try_acquire():
            acquired += 1
        try:
            with pytest.raises(ServerError) as excinfo:
                client.top_k(0, 3)
            assert excinfo.value.status == 503
        finally:
            for _ in range(acquired):
                admission.release()

    def test_metrics_visibility(self, degraded_server):
        handle, client = degraded_server
        client.query(11, deadline_ms=1.0)
        page = client.metrics()
        assert 'repro_http_degraded_answers_total{tier="cpi"}' in page
        assert "repro_engine_tier_downgrades_total" in page
        snapshot = handle.server.metrics.snapshot()
        assert snapshot["degraded_total"].get("cpi", 0) >= 1

    def test_disabled_tier_still_504s(self, ba_graph):
        engine = ConcurrentQueryEngine(ba_graph, max_workers=2, seed=0)
        with start_in_thread(engine, ServerConfig()) as handle:
            with ServerClient(base_url=handle.url) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(5, deadline_ms=0.01)
                assert excinfo.value.status == 504


class TestHTTPTopKBatch:
    def test_matches_looped_top_k(self, ba_graph):
        engine = ConcurrentQueryEngine(ba_graph, max_workers=2, seed=0)
        with start_in_thread(engine, ServerConfig()) as handle:
            with ServerClient(base_url=handle.url) as client:
                batch = client.top_k_batch([0, 1, 2], 5)
                assert batch["k"] == 5 and not batch["errors"]
                for source, entry in zip([0, 1, 2], batch["results"]):
                    single = client.top_k(source, 5)
                    assert entry["source"] == source
                    assert entry["nodes"] == single["nodes"]
                    assert entry["values"] == single["values"]

    def test_invalid_source_collected(self, ba_graph):
        engine = ConcurrentQueryEngine(ba_graph, max_workers=2, seed=0)
        with start_in_thread(engine, ServerConfig()) as handle:
            with ServerClient(base_url=handle.url) as client:
                batch = client.top_k_batch([0, 10**9], 3)
                assert batch["results"][0] is not None
                assert batch["results"][1] is None
                assert "1000000000" in batch["errors"]

    def test_batch_fields_carry_tier(self, ba_graph):
        engine = ConcurrentQueryEngine(ba_graph, max_workers=2, seed=0)
        with start_in_thread(engine, ServerConfig()) as handle:
            with ServerClient(base_url=handle.url) as client:
                doc = client.query_batch([0, 1])
                for entry in doc["results"]:
                    assert entry["tier"] == "exact"
                    assert entry["accuracy_achieved"] is not None
                single = client.top_k(0, 3)
                assert single["tier"] == "exact"
