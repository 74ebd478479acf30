"""Incremental dynamic-graph serving: retention, repair, and the bound.

The engineered graph separates the two regimes the offset bound
distinguishes:

* a *broadcaster* node with a large out-degree and no score mass from
  the query sources -- editing its out-row changes each transition row
  by only ``2/d`` and touches no probability the cached answers care
  about, so entries survive;
* a *community* cycle holding the sources -- editing a cycle node's
  out-row (degree 1 -> 2, L1 change 1) under heavy score mass blows
  every entry's budget, so everything is evicted and repaired in the
  background.

Retained answers are property-tested against a fresh exact solve on the
post-edit graph: the offset bound is only trusted after Definition 1 is
re-verified the hard way.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.power import power_iteration
from repro.core.params import AccuracyParams
from repro.errors import GraphFormatError
from repro.graph import GraphBuilder, dynamic, from_edges, generators
from repro.obs.trace import DeadlineTrace, QueryTrace
from repro.serving import (
    ConcurrentQueryEngine,
    MultiProcessQueryEngine,
    SingleFlightCache,
)
from repro.serving import retention

JOIN_TIMEOUT = 30.0

BROADCASTER = 0
BROADCAST_DEGREE = 100
CYCLE = list(range(101, 120))
SOURCES = [101, 107, 113]


def broadcaster_graph():
    """120 nodes: broadcaster 0 <-> leaves 1..100, plus a directed
    cycle 101 -> ... -> 119 -> 101 (disconnected from the broadcaster,
    so cycle sources put zero mass on node 0)."""
    edges = []
    for leaf in range(1, BROADCAST_DEGREE + 1):
        edges.append((BROADCASTER, leaf))
        edges.append((leaf, BROADCASTER))
    for a, b in zip(CYCLE, CYCLE[1:] + CYCLE[:1]):
        edges.append((a, b))
    return from_edges(120, edges)


def make_engine(graph, **kwargs):
    kwargs.setdefault("accuracy", AccuracyParams.paper_defaults(graph.n))
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("seed", 0)
    return ConcurrentQueryEngine(graph, incremental=True, **kwargs)


def assert_contract(result, exact, accuracy):
    """Definition 1: relative error <= eps wherever exact > delta."""
    heavy = exact > accuracy.delta
    errors = np.abs(result.estimates[heavy] - exact[heavy])
    assert np.all(errors <= accuracy.eps * exact[heavy])


def wait_for_repairs(svc, count, *, timeout=JOIN_TIMEOUT):
    deadline = time.monotonic() + timeout
    while svc.stats.entries_repaired < count:
        assert time.monotonic() < deadline, (
            f"only {svc.stats.entries_repaired}/{count} repairs landed"
        )
        time.sleep(0.01)


class TestRetention:
    def test_low_impact_edit_retains_cached_entries(self):
        with make_engine(broadcaster_graph()) as svc:
            svc.query_batch(SOURCES)
            assert svc.add_edge(BROADCASTER, CYCLE[-1])
            last = svc.stats.extras["last_mutation"]
            assert last["incremental"] is True
            assert last["retained"] == len(SOURCES)
            assert last["evicted"] == 0
            assert sorted(last["retained_sources"]) == SOURCES
            assert svc.stats.entries_retained == len(SOURCES)

    def test_retained_answers_meet_contract_vs_exact_solve(self):
        accuracy = AccuracyParams.paper_defaults(120)
        with make_engine(broadcaster_graph(), accuracy=accuracy) as svc:
            svc.query_batch(SOURCES)
            svc.add_edge(BROADCASTER, CYCLE[-1])
            assert svc.stats.extras["last_mutation"]["retained"] > 0
            for source in SOURCES:
                hits = svc.stats.cache_hits
                result = svc.query(source)
                assert svc.stats.cache_hits == hits + 1  # served stale-but-bounded
                exact = power_iteration(svc.graph, source,
                                        tol=1e-12).estimates
                assert_contract(result, exact, accuracy)

    def test_retention_meta_drifts_and_entries_eventually_evict(self):
        with make_engine(broadcaster_graph()) as svc:
            svc.query_batch(SOURCES)
            key = (SOURCES[0], svc._accuracy)
            before = svc._cache.get_meta(key)
            svc.add_edge(BROADCASTER, CYCLE[-1])
            after = svc._cache.get_meta(key)
            assert after.eps_bound > before.eps_bound
            assert after.eps_bound <= after.eps_contract
            # Keep toggling the broadcaster edge; the drift bound is
            # monotone, so the entry must be evicted within the budget.
            edits = 0
            while svc._cache.get_meta(key) is not None:
                present = edits % 2 == 0
                if present:
                    svc.remove_edge(BROADCASTER, CYCLE[-1])
                else:
                    svc.add_edge(BROADCASTER, CYCLE[-1])
                edits += 1
                assert edits < 100, "entry never evicted"

    def test_high_impact_edit_evicts_and_repairs_in_background(self):
        with make_engine(broadcaster_graph()) as svc:
            svc.query_batch(SOURCES)
            # Degree 1 -> 2 on a cycle node: L1 row change 1.0 under
            # real score mass -- every cached entry's budget blows.
            assert svc.add_edge(CYCLE[2], BROADCASTER)
            last = svc.stats.extras["last_mutation"]
            assert last["incremental"] is True
            assert last["retained"] == 0
            assert last["evicted"] == len(SOURCES)
            wait_for_repairs(svc, len(SOURCES))
            # Repairs landed in the cache: reads hit without solving.
            misses = svc.stats.cache_misses
            for source in SOURCES:
                svc.query(source)
            assert svc.stats.cache_misses == misses

    def test_repaired_entries_match_fresh_engine_exactly(self):
        with make_engine(broadcaster_graph()) as svc:
            svc.query_batch(SOURCES)
            svc.add_edge(CYCLE[2], BROADCASTER)
            wait_for_repairs(svc, len(SOURCES))
            with make_engine(svc.graph) as fresh:
                for source in SOURCES:
                    repaired = svc.query(source)
                    expected = fresh.query(source)
                    np.testing.assert_array_equal(repaired.estimates,
                                                  expected.estimates)

    def test_node_growth_falls_back_to_full_invalidation(self):
        graph = broadcaster_graph()
        with make_engine(graph) as svc:
            svc.query_batch(SOURCES)
            assert svc.add_edge(CYCLE[0], graph.n)  # new node id
            last = svc.stats.extras["last_mutation"]
            assert last["incremental"] is False
            assert last["retained"] == 0
            assert svc.graph.n == graph.n + 1
            grown = svc.query(graph.n)  # the new node is queryable
            assert grown.estimates.shape == (graph.n + 1,)

    def test_remove_node_falls_back_to_full_invalidation(self):
        with make_engine(broadcaster_graph()) as svc:
            svc.query_batch(SOURCES)
            assert svc.remove_node(BROADCASTER)
            last = svc.stats.extras["last_mutation"]
            assert last["incremental"] is False
            assert svc.stats.entries_retained == 0

    def test_non_incremental_engine_retains_nothing(self):
        graph = broadcaster_graph()
        accuracy = AccuracyParams.paper_defaults(graph.n)
        with ConcurrentQueryEngine(graph, accuracy=accuracy,
                                   max_workers=2) as svc:
            svc.query_batch(SOURCES)
            svc.add_edge(BROADCASTER, CYCLE[-1])
            last = svc.stats.extras["last_mutation"]
            assert last["incremental"] is False
            assert svc.stats.entries_retained == 0
            assert svc.stats.invalidations == len(SOURCES)

    def test_topk_entries_never_retained(self):
        with make_engine(broadcaster_graph()) as svc:
            svc.top_k(SOURCES[0], 3)
            svc.query(SOURCES[1])
            svc.add_edge(BROADCASTER, CYCLE[-1])
            last = svc.stats.extras["last_mutation"]
            # The full query survives; the top-k answer (no estimate
            # vector to bound) is evicted and repaired.
            assert last["retained"] == 1
            assert last["retained_sources"] == [SOURCES[1]]
            wait_for_repairs(svc, 1)


class TestSolveMargin:
    def test_margin_resolution_and_validation(self):
        graph = generators.preferential_attachment(60, 2, seed=3)
        with ConcurrentQueryEngine(graph) as svc:
            assert svc._solve_margin == 1.0
        with ConcurrentQueryEngine(graph, incremental=True) as svc:
            assert svc._solve_margin == 0.5
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            ConcurrentQueryEngine(graph, solve_margin=0.0)
        with pytest.raises(ParameterError):
            ConcurrentQueryEngine(graph, solve_margin=1.5)

    def test_margin_one_is_byte_identical_to_plain_engine(self):
        graph = generators.preferential_attachment(60, 2, seed=3)
        accuracy = AccuracyParams.paper_defaults(graph.n)
        with ConcurrentQueryEngine(graph, accuracy=accuracy,
                                   seed=0) as plain, \
                ConcurrentQueryEngine(graph, accuracy=accuracy, seed=0,
                                      incremental=True,
                                      solve_margin=1.0) as inc:
            for source in (0, 7, 19):
                np.testing.assert_array_equal(
                    plain.query(source).estimates,
                    inc.query(source).estimates,
                )

    def test_tightened_solve_meets_tighter_eps(self):
        graph = broadcaster_graph()
        accuracy = AccuracyParams.paper_defaults(graph.n)
        with make_engine(graph, accuracy=accuracy,
                         solve_margin=0.5) as svc:
            result = svc.query(SOURCES[0])
            exact = power_iteration(graph, SOURCES[0], tol=1e-12).estimates
            assert_contract(result, exact,
                            accuracy.with_eps(accuracy.eps * 0.5))


class TestRetentionMath:
    def test_row_change_norm(self):
        assert retention.row_change_norm(5, 5, "absorb") == 0.0
        assert retention.row_change_norm(1, 2, "absorb") == 1.0
        assert retention.row_change_norm(99, 100, "absorb") == (
            pytest.approx(2.0 / 100.0))
        assert retention.row_change_norm(0, 1, "absorb") == 1.0
        assert retention.row_change_norm(1, 0, "restart") == 2.0

    def test_row_deltas_compose_stepwise(self):
        graph = from_edges(4, [(0, 1), (0, 2), (3, 0)])
        deltas = retention.row_deltas(
            graph, [("add", 0, 3), ("remove", 0, 1), ("add", 3, 1)])
        assert deltas == [(0, 2, 3), (0, 3, 2), (3, 1, 2)]

    def test_drifted_eps_unbounded_returns_none(self):
        meta = retention.RetentionMeta(eps_bound=0.9, eps_contract=0.95,
                                       delta=0.01, alpha=0.2)
        estimates = np.full(4, 0.25)
        assert retention.drifted_eps(meta, estimates, [(0, 1, 2)],
                                     "absorb") is None

    def test_survives_respects_contract_boundary(self):
        meta = retention.RetentionMeta(eps_bound=0.25, eps_contract=0.5,
                                       delta=0.01, alpha=0.2)
        estimates = np.zeros(4)  # pi_upper collapses to delta
        small = [(0, 100, 101)]  # rho ~ 0.02 -> drift ~ 0.1
        kept = retention.survives(meta, estimates, small, "absorb")
        assert kept is not None
        assert kept.eps_bound > meta.eps_bound
        assert kept.slack < meta.slack
        big = [(0, 1, 2)]  # rho = 1 -> drift ~ 5, way past the contract
        assert retention.survives(meta, estimates, big, "absorb") is None


class TestCachePerEntryInvalidation:
    def test_invalidate_where_partial_retention(self):
        cache = SingleFlightCache(max_size=8)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda k=key: k.upper(),
                                 meta=lambda value: {"tag": value})
        retained, evicted = cache.invalidate_where(
            lambda key, value, meta: ({"tag": value, "bumped": True}
                                      if key != "b" else None))
        assert retained == ["a", "c"]
        assert evicted == ["b"]
        assert len(cache) == 2
        assert cache.get_meta("a") == {"tag": "A", "bumped": True}
        assert cache.get_meta("b") is None
        assert cache.get_or_compute("a", lambda: "recomputed")[1] == "hit"

    def test_invalidate_where_hands_none_meta_through(self):
        cache = SingleFlightCache(max_size=8)
        cache.get_or_compute("bare", lambda: 1)  # stored without meta
        seen = {}
        cache.invalidate_where(
            lambda key, value, meta: seen.setdefault(key, meta))
        assert seen == {"bare": None}

    def test_invalidate_where_fences_in_flight_stores(self):
        cache = SingleFlightCache(max_size=8)
        computing = threading.Event()
        release = threading.Event()

        def slow():
            computing.set()
            assert release.wait(JOIN_TIMEOUT)
            return "stale"

        thread = threading.Thread(
            target=lambda: cache.get_or_compute("k", slow), daemon=True)
        thread.start()
        assert computing.wait(JOIN_TIMEOUT)
        generation = cache.generation
        cache.invalidate_where(lambda key, value, meta: meta)
        assert cache.generation == generation + 1
        release.set()
        thread.join(JOIN_TIMEOUT)
        assert "k" not in cache  # pre-mutation flight never published

    def test_meta_callback_failure_leaves_entry_unretainable(self):
        cache = SingleFlightCache(max_size=8)

        def broken_meta(value):
            raise ValueError("no meta for you")

        value, outcome = cache.get_or_compute("k", lambda: 42,
                                              meta=broken_meta)
        assert (value, outcome) == (42, "miss")
        assert cache.get_meta("k") is None  # cached, but cannot be retained


class TestDeadlineTraceStrip:
    def test_custom_solver_deadline_proxy_is_stripped(self):
        graph = generators.preferential_attachment(60, 2, seed=3)
        inner = QueryTrace()

        def solver(graph, source, accuracy, seed):
            return SimpleNamespace(
                estimates=np.zeros(graph.n),
                trace=DeadlineTrace(time.monotonic() + 60.0, inner),
            )

        with ConcurrentQueryEngine(graph, solver=solver) as svc:
            result = svc.query(5, deadline=time.monotonic() + 60.0)
            assert result.trace is inner  # unwrapped, not the proxy
            cached = svc.query(5)
            assert cached.trace is inner

    def test_custom_solver_null_proxy_strips_to_none(self):
        graph = generators.preferential_attachment(60, 2, seed=3)

        def solver(graph, source, accuracy, seed):
            return SimpleNamespace(
                estimates=np.zeros(graph.n),
                trace=DeadlineTrace(time.monotonic() + 60.0),
            )

        with ConcurrentQueryEngine(graph, solver=solver) as svc:
            assert svc.query(5).trace is None


class TestMetricsExposure:
    def test_retention_counters_rendered(self):
        from repro.server.metrics import ServerMetrics

        with make_engine(broadcaster_graph()) as svc:
            svc.query_batch(SOURCES)
            svc.add_edge(BROADCASTER, CYCLE[-1])
            page = ServerMetrics().render(engine=svc)
        retained_line = next(
            line for line in page.splitlines()
            if line.startswith("repro_engine_entries_retained_total"))
        assert float(retained_line.split()[-1]) == len(SOURCES)
        assert "repro_engine_entries_repaired_total" in page


def _snapshot_bytes(graph):
    return graph.n, graph.indptr.tobytes(), graph.indices.tobytes()


class TestAtomicEdits:
    """An edit that raises commits nothing: the snapshot is computed
    before the epoch, cache, pool or counters are touched."""

    ENGINES = {
        "threaded": lambda graph: ConcurrentQueryEngine(
            graph, max_workers=2, seed=0),
        "multiproc": lambda graph: MultiProcessQueryEngine(
            graph, solver_workers=1, seed=0),
    }

    @pytest.mark.parametrize("kind", sorted(ENGINES))
    def test_failed_edit_changes_nothing(self, kind, monkeypatch):
        graph = broadcaster_graph()
        with self.ENGINES[kind](graph) as svc:
            svc.query_batch(SOURCES)

            def state():
                return (svc.epoch, _snapshot_bytes(svc.graph),
                        len(svc._cache), svc.stats.updates,
                        svc.stats.invalidations)

            before = state()

            def failing_splice(*args, **kwargs):
                raise MemoryError("splice failed")

            monkeypatch.setattr(dynamic, "insert_edge", failing_splice)
            # An in-range edit and one that grows the node count.
            for u, v in [(CYCLE[0], CYCLE[5]), (CYCLE[0], graph.n + 3)]:
                with pytest.raises(MemoryError):
                    svc.add_edge(u, v, undirected=True)
                assert state() == before
            monkeypatch.undo()
            for u, v in [(7, 7), (-1, 7), (7, -1)]:
                with pytest.raises(GraphFormatError):
                    svc.add_edge(u, v)
                assert state() == before

            assert svc.add_edge(CYCLE[0], graph.n + 3)
            assert svc.epoch == before[0] + 1
            assert svc.stats.updates == before[3] + 1
            reference = GraphBuilder(graph=graph)
            reference.add_edge(CYCLE[0], graph.n + 3, grow=True)
            assert (_snapshot_bytes(svc.graph)
                    == _snapshot_bytes(reference.build()))
            assert svc.query(graph.n + 3).estimates.shape == (graph.n + 4,)
