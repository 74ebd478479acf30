"""Tests for the output-sensitive push kernels (:mod:`repro.push.kernels`).

Covers the PR's contracts:

* every scheduler x dangling-policy combination reaches a
  valid fixpoint (no eligible node, unit mass preserved) on random
  graphs that include dangling nodes;
* the frontier kernel reproduces the seed reference loop's fixpoint to
  1e-12 (same Jacobi rounds, summation order aside);
* the sparse/dense round switch fires on a graph engineered to cross
  the density threshold;
* ``max_pushes`` raises at a round boundary with the state still
  satisfying the invariant;
* the per-snapshot cache (thresholds LRU, transpose, scratch leases)
  behaves and is retired by the serving engines' write gates;
* a width-1 block runs scipy's 1-D kernel and gives the bits of the
  same column inside a wider block, under both dangling policies;
* ``power_block_loop``'s decay prediction only skips checks: each
  column freezes at the first sweep whose residue mass reaches ``tol``;
* ``max_sweeps`` caps a column (written back with its leftover mass)
  without moving the bits of columns that finish first, and PowerPush's
  drain still raises when capped above ``tol``;
* the public ``csr_matrix`` fallback for scipy builds without the
  private ``_sparsetools`` kernels makes the same push decisions and
  reaches the same fixpoint (byte-equal on a preferential-attachment
  graph, to 1e-12 with dangling nodes).
"""

import math

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.graph import from_edges, generators
from repro.obs.trace import QueryTrace
from repro.push import (
    PushStats,
    dense_reference_loop,
    forward_push_loop,
    get_push_cache,
    init_state,
    push_thresholds,
    release_push_cache,
)
from repro.push import kernels
from repro.push.kernels import (
    SPARSE_NODE_DIV,
    _THRESHOLD_CACHE_SIZE,
    frontier_loop,
)

ALPHA = 0.2

#: Adds a ``numpy`` segment to a test id, naming the numpy frontier
#: kernel, so kernel-level test ids stay comparable across test reports.
numpy_kernel = pytest.mark.parametrize((), [pytest.param(id="numpy")])


def random_dangling_graph(seed, dangling):
    """Random directed graph with guaranteed dangling nodes."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(20, 80))
    num_edges = int(n * gen.uniform(1.5, 3.5))
    edges = np.column_stack([
        gen.integers(0, n, size=num_edges),
        gen.integers(0, n, size=num_edges),
    ])
    sinks = gen.choice(n, size=max(2, n // 8), replace=False)
    edges = edges[~np.isin(edges[:, 0], sinks)]
    graph = from_edges(n, edges, dangling=dangling)
    assert (graph.out_degrees == 0).any()
    return graph


def path_into_hub_graph(dangling="absorb"):
    """A path feeding a large symmetric star: engineered to cross the
    frontier density threshold.

    Rounds while mass walks the path have frontier edge count 1 (far
    below ``sparse_cut = max(n // SPARSE_NODE_DIV, 64)``); the round
    pushing the hub (and the answering all-leaves round) touch ~300
    edges, far above it.
    """
    hub, leaves = 5, 300
    edges = [(i, i + 1) for i in range(hub)]
    for leaf in range(hub + 1, hub + 1 + leaves):
        edges.append((hub, leaf))
        edges.append((leaf, hub))
    return from_edges(hub + 1 + leaves, edges, dangling=dangling)


def unit_mass_gap(reserve, residue):
    """|sum(reserve) + sum(residue) - 1| with exact (fsum) summation."""
    return abs(math.fsum(reserve.tolist()) + math.fsum(residue.tolist())
               - 1.0)


def no_eligible(graph, residue, r_max, can_push=None):
    eligible = residue >= push_thresholds(graph, r_max)
    if can_push is not None:
        eligible &= can_push
    return not bool(eligible.any())


# ---------------------------------------------------------------------------
# Property: every scheduler/policy reaches a valid fixpoint
# ---------------------------------------------------------------------------
class TestFixpointProperty:
    @numpy_kernel
    @pytest.mark.parametrize("method", ["frontier", "queue", "priority"])
    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_fixpoint(self, method, dangling, seed):
        graph = random_dangling_graph(seed, dangling)
        source = seed % graph.n
        reserve, residue = init_state(graph, source)
        r_max = 1e-5
        forward_push_loop(graph, reserve, residue, ALPHA, r_max,
                          source=source, method=method)
        assert no_eligible(graph, residue, r_max)
        assert unit_mass_gap(reserve, residue) < 1e-12
        assert float(residue.min()) >= 0.0
        assert float(reserve.min()) >= 0.0

    @numpy_kernel
    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    def test_valid_fixpoint_under_can_push_mask(self, dangling):
        # The h-HopFWD shape: the source and a random slice are frozen.
        graph = random_dangling_graph(7, dangling)
        source = 3
        can_push = np.ones(graph.n, dtype=bool)
        can_push[source] = False
        can_push[:: 4] = False
        reserve, residue = init_state(graph, source)
        r_max = 1e-5
        forward_push_loop(graph, reserve, residue, ALPHA, r_max,
                          source=source, can_push=can_push)
        assert no_eligible(graph, residue, r_max, can_push=can_push)
        assert unit_mass_gap(reserve, residue) < 1e-12


# ---------------------------------------------------------------------------
# Equivalence: output-sensitive kernel vs. the seed reference loop
# ---------------------------------------------------------------------------
class TestReferenceEquivalence:
    @numpy_kernel
    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_seed_fixpoint(self, dangling, seed):
        graph = random_dangling_graph(seed, dangling)
        source = (seed * 5) % graph.n
        r_max = 1e-7

        r_ref, i_ref = init_state(graph, source)
        ref_stats = dense_reference_loop(graph, r_ref, i_ref, ALPHA, r_max,
                                         source=source)

        r_new, i_new = init_state(graph, source)
        stats = PushStats()
        frontier_loop(graph, r_new, i_new, ALPHA, r_max, source=source,
                      stats=stats)

        # Same Jacobi rounds -> same fixpoint up to summation order.
        np.testing.assert_allclose(r_new, r_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(i_new, i_ref, rtol=0.0, atol=1e-12)
        assert stats.pushes == ref_stats.pushes
        assert stats.rounds == ref_stats.rounds
        assert stats.max_frontier == ref_stats.max_frontier
        assert stats.sparse_rounds + stats.dense_rounds == stats.rounds
        assert unit_mass_gap(r_new, i_new) < 1e-12


# ---------------------------------------------------------------------------
# Regression: the sparse/dense round switch
# ---------------------------------------------------------------------------
class TestDensitySwitch:
    @numpy_kernel
    def test_round_regimes_cross_threshold(self):
        graph = path_into_hub_graph()
        assert max(graph.n // SPARSE_NODE_DIV, 64) < 300  # hub crosses it
        reserve, residue = init_state(graph, 0)
        stats = PushStats()
        frontier_loop(graph, reserve, residue, ALPHA, 1e-6, source=0,
                      stats=stats)
        # Path rounds classify sparse, hub/leaf rounds dense.
        assert stats.sparse_rounds > 0
        assert stats.dense_rounds > 0
        assert stats.sparse_rounds + stats.dense_rounds == stats.rounds
        assert unit_mass_gap(reserve, residue) < 1e-12

        # And the fixpoint is still the reference one.
        r_ref, i_ref = init_state(graph, 0)
        dense_reference_loop(graph, r_ref, i_ref, ALPHA, 1e-6, source=0)
        np.testing.assert_allclose(reserve, r_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(residue, i_ref, rtol=0.0, atol=1e-12)

    def test_trace_reports_round_regimes(self):
        graph = path_into_hub_graph()
        reserve, residue = init_state(graph, 0)
        trace = QueryTrace()
        forward_push_loop(graph, reserve, residue, ALPHA, 1e-6, source=0,
                          trace=trace)
        assert trace.counters["sparse_rounds"] > 0
        assert trace.counters["dense_rounds"] > 0
        assert (trace.counters["sparse_rounds"]
                + trace.counters["dense_rounds"]
                == trace.counters["push_rounds"])


# ---------------------------------------------------------------------------
# Budget contract: raise at a work-unit boundary, state stays valid
# ---------------------------------------------------------------------------
class TestBudgetContract:
    @pytest.mark.parametrize("method", ["frontier", "queue", "priority"])
    def test_raise_preserves_invariant(self, method):
        graph = generators.directed_power_law(150, 4, seed=3)
        reserve, residue = init_state(graph, 0)
        with pytest.raises(ConvergenceError):
            forward_push_loop(graph, reserve, residue, ALPHA, 1e-9,
                              source=0, method=method, max_pushes=25)
        # Fully-applied pushes only: unit mass survives the raise.
        assert unit_mass_gap(reserve, residue) < 1e-12
        assert float(residue.min()) >= 0.0

    @numpy_kernel
    def test_frontier_checks_before_applying_round(self):
        graph = generators.preferential_attachment(100, 3, seed=5)
        reserve, residue = init_state(graph, 0)
        budget = 30
        stats = PushStats()
        with pytest.raises(ConvergenceError):
            frontier_loop(graph, reserve, residue, ALPHA, 1e-10, source=0,
                          max_pushes=budget, stats=stats)
        # The overflowing round was not applied (or counted).
        assert stats.pushes <= budget
        assert unit_mass_gap(reserve, residue) < 1e-12


# ---------------------------------------------------------------------------
# Per-snapshot cache: thresholds LRU, scratch leases, write-gate retirement
# ---------------------------------------------------------------------------
class TestSnapshotCache:
    def test_thresholds_cached_per_r_max(self, tiny_graph):
        a = push_thresholds(tiny_graph, 1e-4)
        assert push_thresholds(tiny_graph, 1e-4) is a
        assert push_thresholds(tiny_graph, 1e-5) is not a
        # Dangling node (degree 0) uses r_max directly.
        assert a[5] == pytest.approx(1e-4)

    def test_thresholds_read_only(self, tiny_graph):
        vec = push_thresholds(tiny_graph, 1e-3)
        with pytest.raises(ValueError):
            vec[0] = 0.0

    def test_thresholds_lru_bound(self, tiny_graph):
        cache = get_push_cache(tiny_graph)
        first = cache.thresholds(1.0)
        for k in range(2, _THRESHOLD_CACHE_SIZE + 3):
            cache.thresholds(float(k))
        assert len(cache._thresholds) <= _THRESHOLD_CACHE_SIZE
        # The oldest entry was evicted and is rebuilt on demand.
        assert cache.thresholds(1.0) is not first

    def test_release_drops_entries(self, tiny_graph):
        cache = get_push_cache(tiny_graph)
        vec = cache.thresholds(1e-4)
        release_push_cache(tiny_graph)
        assert cache.thresholds(1e-4) is not vec
        release_push_cache(None)  # tolerated (engine with no snapshot yet)

    def test_with_dangling_clone_gets_fresh_cache(self, tiny_graph):
        cache = get_push_cache(tiny_graph)
        clone = tiny_graph.with_dangling("restart")
        assert get_push_cache(clone) is not cache

    def test_share_lease_roundtrip(self, tiny_graph):
        cache = get_push_cache(tiny_graph)
        buf = cache.lease_share()
        assert buf.shape == (tiny_graph.n,)
        assert not buf.any()
        cache.release_share(buf)
        assert cache.lease_share() is buf

    def test_queue_run_returns_cleared_marker(self, web_graph):
        reserve, residue = init_state(web_graph, 0)
        forward_push_loop(web_graph, reserve, residue, ALPHA, 1e-6,
                          source=0, method="queue")
        marker = get_push_cache(web_graph).lease_marker()
        assert not marker.any()

    def test_queue_budget_raise_returns_cleared_marker(self, web_graph):
        reserve, residue = init_state(web_graph, 0)
        with pytest.raises(ConvergenceError):
            forward_push_loop(web_graph, reserve, residue, ALPHA, 1e-9,
                              source=0, method="queue", max_pushes=10)
        marker = get_push_cache(web_graph).lease_marker()
        assert not marker.any()

    def test_query_engine_retires_cache_on_update(self):
        from repro.service import QueryEngine

        engine = QueryEngine(generators.ring(12))
        engine.query(0)
        cache = get_push_cache(engine.graph)
        assert len(cache._thresholds) > 0
        assert engine.add_edge(0, 6)
        assert len(cache._thresholds) == 0  # released inside the update

    def test_concurrent_engine_retires_cache_on_update(self):
        from repro.serving import ConcurrentQueryEngine

        with ConcurrentQueryEngine(generators.ring(12),
                                   max_workers=2) as engine:
            engine.query(0)
            cache = get_push_cache(engine.graph)
            assert len(cache._thresholds) > 0
            assert engine.add_edge(0, 6)
            assert len(cache._thresholds) == 0


# ---------------------------------------------------------------------------
# Width-1 blocks run scipy's 1-D kernel with the bits of a wider block
# ---------------------------------------------------------------------------
class TestWidthOneKernel:
    """A ``(n, 1)`` block goes to ``csr_matvec`` through ``(n,)`` views.

    Both scipy kernels add each row's products onto ``out[i]`` one at
    a time in CSR order, so a solo sweep has the bits of the same column
    inside a wider block.
    """

    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_width_one_equals_column_of_width_three(self, dangling, seed):
        graph = random_dangling_graph(seed, dangling)
        operator = get_push_cache(graph).power_operator(ALPHA)
        gen = np.random.default_rng(seed)
        n = graph.n
        for _ in range(5):
            x = gen.random(n) * (gen.random(n) < 0.6)   # sparse-ish input
            start = gen.random(n) * 1e-3                # non-zero ``out``
            solo_out = start.reshape(n, 1).copy()
            kernels._accumulate_matvec(operator, x.reshape(n, 1).copy(),
                                       solo_out)
            block = gen.random((n, 3))
            block[:, 1] = x
            block_out = gen.random((n, 3))
            block_out[:, 1] = start
            kernels._accumulate_matvec(operator, block, block_out)
            assert (solo_out.tobytes()
                    == np.ascontiguousarray(block_out[:, 1]).tobytes())

    def test_width_one_skips_the_multivector_kernel(self, monkeypatch):
        if kernels._csr_matvec is None:
            pytest.skip("scipy build without the private CSR kernels")
        graph = random_dangling_graph(0, "absorb")
        operator = get_push_cache(graph).power_operator(ALPHA)

        def refuse(*args):
            raise AssertionError("width-1 block reached csr_matvecs")

        monkeypatch.setattr(kernels, "_csr_matvecs", refuse)
        x = np.ones((graph.n, 1))
        out = np.zeros((graph.n, 1))
        kernels._accumulate_matvec(operator, x, out)
        want = np.zeros(graph.n)
        kernels._accumulate_matvec(operator, x.reshape(-1), want)
        assert out.reshape(-1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_solo_sweeps_equal_blocked_column(self, dangling, seed):
        """``power_block_loop`` at B=1 vs the same source inside B=3."""
        graph = random_dangling_graph(seed, dangling)
        sources = [0, graph.n // 2, graph.n - 1]
        states = [init_state(graph, s) for s in sources]
        reserves = [r.copy() for r, _ in states]
        residues = [q.copy() for _, q in states]
        r_sums, sweeps = kernels.power_block_loop(
            graph, reserves, residues, ALPHA, 1e-10, np.asarray(sources))
        for c, s in enumerate(sources):
            reserve, residue = (a.copy() for a in states[c])
            solo_sums, solo_sweeps = kernels.power_block_loop(
                graph, [reserve], [residue], ALPHA, 1e-10, np.asarray([s]))
            assert solo_sweeps[0] == sweeps[c] > 0
            assert solo_sums[0] == r_sums[c]
            assert reserve.tobytes() == reserves[c].tobytes()
            assert residue.tobytes() == residues[c].tobytes()


class TestSweepPrediction:
    """The decay prediction only skips checks: every column still
    freezes at the first sweep whose residue mass reaches ``tol``."""

    @staticmethod
    def first_crossing(graph, source, tol):
        """Sweeps a plain ``P^T`` iteration needs to reach ``tol``."""
        from scipy.sparse import csr_matrix

        indptr, indices, data = get_push_cache(graph).power_operator(ALPHA)
        step = csr_matrix((data, indices, indptr), shape=(graph.n, graph.n))
        dangling = np.flatnonzero(graph.out_degrees == 0)
        residue = np.zeros(graph.n)
        residue[source] = 1.0
        for sweep in range(1, 10_000):
            spilled = residue[dangling].sum()
            residue = step @ residue
            if graph.dangling == "restart":
                residue[source] += (1.0 - ALPHA) * spilled
            mass = residue.sum()
            assert abs(mass - tol) > 1e-9 * tol  # no rounding-close call
            if mass <= tol:
                return sweep
        raise AssertionError("no crossing")

    @pytest.mark.parametrize("graph", [
        generators.preferential_attachment(300, 3, seed=0),
        random_dangling_graph(5, "restart"),
    ], ids=["no-dangling", "restart"])
    def test_freeze_at_first_crossing(self, graph):
        sources = [0, 7, graph.n - 1]
        states = [init_state(graph, s) for s in sources]
        tol = 1e-6
        _, sweeps = kernels.power_block_loop(
            graph, [r for r, _ in states], [q for _, q in states], ALPHA,
            tol, np.asarray(sources))
        for c, s in enumerate(sources):
            assert sweeps[c] == self.first_crossing(graph, s, tol)


class TestSweepCap:
    """``max_sweeps`` caps a column instead of raising: the capped
    column is written back with its leftover mass, and columns that
    finish first keep the bits of their solo run."""

    GRAPHS = [
        generators.preferential_attachment(300, 3, seed=0),
        random_dangling_graph(5, "restart"),
        random_dangling_graph(5, "absorb"),
    ]
    IDS = ["no-dangling", "restart", "absorb"]

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    @pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
    def test_capped_column_keeps_unit_mass(self, graph, tol):
        reserve, residue = init_state(graph, 0)
        r_sums, sweeps = kernels.power_block_loop(
            graph, [reserve], [residue], ALPHA, tol, np.asarray([0]),
            max_sweeps=6)
        assert sweeps[0] == 6
        assert r_sums[0] == np.ascontiguousarray(residue).sum() > tol
        assert abs(reserve.sum() + r_sums[0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
    def test_zero_cap_leaves_state_untouched(self, graph):
        reserve, residue = init_state(graph, 3)
        r_sums, sweeps = kernels.power_block_loop(
            graph, [reserve], [residue], ALPHA, 1e-9, np.asarray([3]),
            max_sweeps=0)
        assert sweeps[0] == 0 and r_sums[0] == 1.0
        assert not reserve.any() and residue[3] == 1.0

    @staticmethod
    def state(graph, source, scale):
        reserve, residue = init_state(graph, source)
        return reserve, residue * scale

    @pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
    def test_mixed_block_keeps_solo_bits(self, graph):
        """A column finishing before the cap matches its uncapped solo
        run; the capped column matches its capped solo run."""
        source, tol = 1, 1e-9
        solo = {}
        for scale in (1e-3, 1.0):
            reserve, residue = self.state(graph, source, scale)
            _, sweeps = kernels.power_block_loop(
                graph, [reserve], [residue], ALPHA, tol,
                np.asarray([source]))
            solo[scale] = int(sweeps[0])
        assert solo[1e-3] < solo[1.0]
        cap = (solo[1e-3] + solo[1.0]) // 2
        assert solo[1e-3] < cap < solo[1.0]

        block = [self.state(graph, source, s) for s in (1e-3, 1.0)]
        r_sums, sweeps = kernels.power_block_loop(
            graph, [r for r, _ in block], [q for _, q in block], ALPHA,
            tol, np.asarray([source, source]), max_sweeps=cap)
        assert sweeps.tolist() == [solo[1e-3], cap]
        assert r_sums[0] <= tol < r_sums[1]
        for c, (scale, budget) in enumerate([(1e-3, None), (1.0, cap)]):
            reserve, residue = self.state(graph, source, scale)
            kwargs = {} if budget is None else {"max_sweeps": budget}
            solo_sums, _ = kernels.power_block_loop(
                graph, [reserve], [residue], ALPHA, tol,
                np.asarray([source]), **kwargs)
            assert solo_sums[0] == r_sums[c]
            assert reserve.tobytes() == block[c][0].tobytes()
            assert residue.tobytes() == block[c][1].tobytes()

    def test_powerpush_drain_raises_when_capped(self, monkeypatch):
        import importlib

        from repro.obs.trace import NULL_TRACE

        pp = importlib.import_module("repro.core.powerpush")

        graph = generators.preferential_attachment(300, 3, seed=0)
        monkeypatch.setattr(pp, "MAX_POWER_SWEEPS", 3)
        state = pp.PushState(graph, 0, ALPHA, *init_state(graph, 0),
                             get_push_cache(graph))
        with pytest.raises(ConvergenceError):
            state.drain(1e-9, NULL_TRACE)
        assert state.sweeps == 3 and state.r_sum > 1e-9
        with pytest.raises(ConvergenceError):
            pp.powerpush_batch(graph, [0, 5])


# ---------------------------------------------------------------------------
# scipy without the private CSR kernels: the public fallback
# ---------------------------------------------------------------------------
class TestScipyFallback:
    """``_accumulate_matvec`` without scipy's private CSR kernels.

    The private kernels add each row's products onto the existing
    residue; the public ``csr_matrix`` product sums the products first.
    The push decisions are the same either way, and the values agree up
    to that summation order.
    """

    @staticmethod
    def solve_both(monkeypatch, graph, r_max, sources):
        from repro.core.powerpush import powerpush_batch

        def solve():
            reserve, residue = init_state(graph, sources[0])
            stats = PushStats()
            frontier_loop(graph, reserve, residue, ALPHA, r_max,
                          source=sources[0], stats=stats)
            batch = powerpush_batch(graph, sources)
            return reserve, residue, stats, [r.estimates for r in batch]

        private = solve()
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_csr_matvec", None)
            patch.setattr(kernels, "_csr_matvecs", None)
            fallback = solve()
        return private, fallback

    def test_fallback_byte_equal_on_preferential_attachment(self,
                                                            monkeypatch):
        graph = generators.preferential_attachment(400, 3, seed=0)
        private, fallback = self.solve_both(monkeypatch, graph, 1e-8,
                                            [0, 5, 17, 123])
        assert private[2].dense_rounds > 40  # SpMV rounds are exercised
        np.testing.assert_array_equal(fallback[0], private[0])
        np.testing.assert_array_equal(fallback[1], private[1])
        assert fallback[2] == private[2]
        for got, want in zip(fallback[3], private[3]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dangling", ["absorb", "restart"])
    def test_fallback_matches_with_dangling_nodes(self, monkeypatch,
                                                  dangling):
        gen = np.random.default_rng(0)
        n = 400
        edges = np.column_stack([gen.integers(0, n, size=6 * n),
                                 gen.integers(0, n, size=6 * n)])
        sinks = gen.choice(n, size=n // 8, replace=False)
        edges = edges[~np.isin(edges[:, 0], sinks)]
        graph = from_edges(n, edges, dangling=dangling)
        private, fallback = self.solve_both(monkeypatch, graph, 1e-8,
                                            [0, 5, 17, 123])
        assert private[2].dense_rounds > 0
        assert fallback[2] == private[2]  # same push decisions
        np.testing.assert_allclose(fallback[0], private[0],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(fallback[1], private[1],
                                   rtol=0.0, atol=1e-12)
        for got, want in zip(fallback[3], private[3]):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Weighted kernel rides the same candidate/density machinery
# ---------------------------------------------------------------------------
class TestWeightedOutputSensitive:
    def test_weighted_push_crosses_regimes(self):
        from repro.weighted import (from_weighted_edges,
                                    weighted_forward_push,
                                    weighted_init_state)

        base = path_into_hub_graph()
        triples = [(u, int(v), 1.0 + (u % 3))
                   for u in range(base.n)
                   for v in base.out_neighbors(u)]
        wg = from_weighted_edges(base.n, triples)
        reserve, residue = weighted_init_state(wg, 0)
        stats = weighted_forward_push(wg, reserve, residue, ALPHA, 1e-6)
        assert stats.sparse_rounds > 0
        assert stats.dense_rounds > 0
        assert unit_mass_gap(reserve, residue) < 1e-12
        assert no_eligible(wg, residue, 1e-6)
