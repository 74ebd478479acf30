"""Tests for the vectorized random-walk engine."""

import numpy as np
import pytest

from repro.baselines.inverse import ExactSolver
from repro.baselines.power import power_iteration
from repro.errors import ParameterError
from repro.graph import from_edges, generators
from repro.walks import (
    residue_weighted_walks,
    sample_walk_endpoints,
    walk_endpoints,
    walk_terminal_mass,
    walks_from_single_source,
)

ALPHA = 0.2


class TestTerminalMass:
    def test_total_mass_equals_walk_count(self, ba_graph, rng):
        mass = walks_from_single_source(ba_graph, 0, 500, ALPHA, rng)
        assert mass.sum() == pytest.approx(500.0)
        assert np.all(mass >= 0)

    def test_weights_accumulate(self, tiny_graph, rng):
        starts = np.array([5, 5, 5])
        weights = np.array([0.5, 0.25, 0.25])
        mass = walk_terminal_mass(tiny_graph, starts, ALPHA, rng,
                                  weights=weights)
        # Node 5 is dangling: every walk terminates there immediately.
        assert mass[5] == pytest.approx(1.0)
        assert mass.sum() == pytest.approx(1.0)

    def test_empty_starts(self, tiny_graph, rng):
        mass = walk_terminal_mass(tiny_graph, np.empty(0, np.int64), ALPHA,
                                  rng)
        assert mass.sum() == 0.0

    def test_distribution_matches_exact(self, rng):
        g = generators.preferential_attachment(40, 2, seed=2)
        truth = ExactSolver(g, ALPHA).query(0).estimates
        mass = walks_from_single_source(g, 0, 60_000, ALPHA, rng)
        empirical = mass / 60_000
        assert np.max(np.abs(empirical - truth)) < 0.02

    def test_restart_policy_distribution(self, rng):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)]).with_dangling("restart")
        truth = power_iteration(g, 0, alpha=ALPHA, tol=1e-13).estimates
        mass = walks_from_single_source(g, 0, 60_000, ALPHA, rng)
        assert np.max(np.abs(mass / 60_000 - truth)) < 0.02

    def test_bad_inputs(self, tiny_graph, rng):
        with pytest.raises(ParameterError):
            walk_terminal_mass(tiny_graph, np.zeros((2, 2), np.int64),
                               ALPHA, rng)
        with pytest.raises(ParameterError):
            walk_terminal_mass(tiny_graph, np.array([0]), 0.0, rng)
        with pytest.raises(ParameterError):
            walk_terminal_mass(tiny_graph, np.array([0]), ALPHA, rng,
                               weights=np.array([1.0, 2.0]))


class TestResidueWeightedWalks:
    def test_zero_residue_is_noop(self, tiny_graph, rng):
        mass, used = residue_weighted_walks(
            tiny_graph, np.zeros(tiny_graph.n), 100, ALPHA, rng
        )
        assert used == 0
        assert mass.sum() == 0.0

    def test_mass_sums_to_residue_sum(self, ba_graph, rng):
        residue = np.zeros(ba_graph.n)
        residue[3] = 0.04
        residue[17] = 0.01
        mass, used = residue_weighted_walks(ba_graph, residue, 2_000, ALPHA,
                                            rng)
        # Each walk from v contributes residue[v]/n_r(v); summing over all
        # walks reproduces r_sum exactly.
        assert mass.sum() == pytest.approx(0.05)
        assert used >= 2_000

    def test_unbiasedness(self, rng):
        g = generators.preferential_attachment(30, 2, seed=9)
        solver = ExactSolver(g, ALPHA)
        residue = np.zeros(g.n)
        residue[2] = 0.5
        residue[10] = 0.5
        expected = 0.5 * solver.query(2).estimates \
            + 0.5 * solver.query(10).estimates
        total = np.zeros(g.n)
        trials = 60
        for t in range(trials):
            mass, _ = residue_weighted_walks(
                g, residue, 400, ALPHA, np.random.default_rng(t)
            )
            total += mass
        assert np.max(np.abs(total / trials - expected)) < 0.02


class TestEndpointSampling:
    def test_single_source_shapes(self, ba_graph, rng):
        endpoints = sample_walk_endpoints(ba_graph, 4, 100, ALPHA, rng)
        assert endpoints.shape == (100,)
        assert endpoints.min() >= 0
        assert endpoints.max() < ba_graph.n

    def test_batch_matches_distribution(self, rng):
        g = generators.preferential_attachment(40, 2, seed=2)
        truth = ExactSolver(g, ALPHA).query(0).estimates
        starts = np.zeros(40_000, dtype=np.int64)
        endpoints = walk_endpoints(g, starts, ALPHA, rng)
        empirical = np.bincount(endpoints, minlength=g.n) / starts.size
        assert np.max(np.abs(empirical - truth)) < 0.02

    def test_dangling_start_terminates_there(self, tiny_graph, rng):
        endpoints = sample_walk_endpoints(tiny_graph, 5, 50, ALPHA, rng)
        assert np.all(endpoints == 5)

    def test_empty_batch(self, tiny_graph, rng):
        out = walk_endpoints(tiny_graph,
                                          np.empty(0, np.int64), ALPHA, rng)
        assert out.size == 0


def test_walks_deterministic_per_seed(ba_graph):
    a = walks_from_single_source(ba_graph, 0, 200, ALPHA,
                                 np.random.default_rng(1))
    b = walks_from_single_source(ba_graph, 0, 200, ALPHA,
                                 np.random.default_rng(1))
    c = walks_from_single_source(ba_graph, 0, 200, ALPHA,
                                 np.random.default_rng(2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestChunking:
    def test_chunked_matches_unchunked_total(self, ba_graph):
        starts = np.zeros(5_000, dtype=np.int64)
        mass = walk_terminal_mass(ba_graph, starts, ALPHA,
                                  np.random.default_rng(0), chunk_size=700)
        assert mass.sum() == pytest.approx(5_000.0)

    def test_chunked_weights_aligned(self, tiny_graph):
        # Start at the dangling node so every walk ends where it starts;
        # chunking must keep each weight with its own walk.
        starts = np.full(10, 5, dtype=np.int64)
        weights = np.arange(10, dtype=np.float64)
        mass = walk_terminal_mass(tiny_graph, starts, ALPHA,
                                  np.random.default_rng(0),
                                  weights=weights, chunk_size=3)
        assert mass[5] == pytest.approx(weights.sum())

    def test_chunked_distribution_unbiased(self, rng):
        from repro.baselines.inverse import ExactSolver
        from repro.graph import generators

        g = generators.preferential_attachment(40, 2, seed=2)
        truth = ExactSolver(g, ALPHA).query(0).estimates
        starts = np.zeros(30_000, dtype=np.int64)
        mass = walk_terminal_mass(g, starts, ALPHA, rng, chunk_size=4_096)
        assert np.max(np.abs(mass / starts.size - truth)) < 0.02


class TestChunkedEquivalence:
    """Chunked and unchunked runs must agree walk-for-walk.

    An edgeless graph pins every walk to its start node regardless of the
    RNG stream, so the terminal mass is exactly
    ``bincount(starts, weights)`` -- any weight misalignment or dropped
    slice shows up as an exact mismatch, not statistical noise.
    """

    @staticmethod
    def _edgeless(n):
        from repro.graph import CSRGraph

        return CSRGraph(n, np.zeros(n + 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64))

    def test_weights_exact_vs_unchunked(self):
        g = self._edgeless(8)
        starts = np.arange(40, dtype=np.int64) % g.n
        weights = np.linspace(0.1, 4.0, 40)
        unchunked = walk_terminal_mass(g, starts, ALPHA,
                                       np.random.default_rng(0),
                                       weights=weights)
        chunked = walk_terminal_mass(g, starts, ALPHA,
                                     np.random.default_rng(0),
                                     weights=weights, chunk_size=7)
        expected = np.bincount(starts, weights=weights, minlength=g.n)
        assert np.array_equal(unchunked, expected)
        assert np.array_equal(chunked, expected)

    @pytest.mark.parametrize("size_delta", [-1, 0, 1])
    def test_exact_chunk_boundaries(self, size_delta):
        # Batch sizes straddling an exact multiple of the chunk size:
        # the last slice is full, exactly empty-adjacent, or length 1.
        chunk = 16
        g = self._edgeless(5)
        n_walks = 3 * chunk + size_delta
        starts = (np.arange(n_walks, dtype=np.int64) * 7) % g.n
        weights = 1.0 + np.arange(n_walks, dtype=np.float64)
        mass = walk_terminal_mass(g, starts, ALPHA,
                                  np.random.default_rng(0),
                                  weights=weights, chunk_size=chunk)
        expected = np.bincount(starts, weights=weights, minlength=g.n)
        assert np.array_equal(mass, expected)

    def test_list_weights_accepted(self):
        # The chunked path converts weights to an array exactly once;
        # plain Python lists must still work (and slice correctly).
        g = self._edgeless(4)
        starts = np.array([0, 1, 2, 3, 0, 1], dtype=np.int64)
        mass = walk_terminal_mass(g, starts, ALPHA,
                                  np.random.default_rng(0),
                                  weights=[1, 2, 3, 4, 5, 6],
                                  chunk_size=4)
        assert np.array_equal(mass, np.array([6.0, 8.0, 3.0, 4.0]))

    def test_restart_policy_conserves_mass_chunked(self):
        # Under "restart" every walk ends only via the alpha-coin, so the
        # total deposited weight equals the weight sum exactly -- chunked
        # or not -- and a per-chunk `source` override must survive slicing.
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)]).with_dangling("restart")
        starts = np.zeros(5_000, dtype=np.int64)
        weights = np.full(5_000, 2e-4)
        for chunk in (None, 640):
            mass = walk_terminal_mass(g, starts, ALPHA,
                                      np.random.default_rng(3),
                                      weights=weights, source=0,
                                      chunk_size=chunk)
            assert mass.sum() == pytest.approx(weights.sum(), abs=1e-12)

    def test_restart_policy_distribution_chunked(self):
        from repro.baselines.power import power_iteration

        g = from_edges(4, [(0, 1), (1, 2), (2, 3)]).with_dangling("restart")
        truth = power_iteration(g, 0, alpha=ALPHA, tol=1e-13).estimates
        starts = np.zeros(60_000, dtype=np.int64)
        mass = walk_terminal_mass(g, starts, ALPHA,
                                  np.random.default_rng(4),
                                  source=0, chunk_size=8_192)
        assert np.max(np.abs(mass / starts.size - truth)) < 0.02

    def test_chunked_weight_shape_mismatch_raises(self):
        g = self._edgeless(3)
        with pytest.raises(ParameterError):
            walk_terminal_mass(g, np.zeros(10, np.int64), ALPHA,
                               np.random.default_rng(0),
                               weights=np.ones(9), chunk_size=4)


class TestLengthFirstKernel:
    """Edge cases of the length-first kernel (:func:`walk_endpoints`).

    Each walk's move count is drawn before it moves; the walks still
    moving at step ``t`` are a contiguous prefix of the longest-first
    order.  These cases pin the paths where that layout meets dangling
    nodes, empty adjacency and file-backed arrays.
    """

    @pytest.fixture
    def dangling_graph(self):
        """30 nodes; only nodes 0..23 have out-edges, so 24..29 dangle."""
        gen = np.random.default_rng(3)
        edges = np.column_stack([gen.integers(0, 24, size=120),
                                 gen.integers(0, 30, size=120)])
        return from_edges(30, edges)

    def test_edgeless_absorb_stays_at_start(self):
        g = TestChunkedEquivalence._edgeless(5)
        starts = np.arange(200, dtype=np.int64) % g.n
        ends = walk_endpoints(g, starts, ALPHA, np.random.default_rng(0))
        assert np.array_equal(ends, starts)

    def test_edgeless_restart_jumps_to_origin(self):
        g = TestChunkedEquivalence._edgeless(5).with_dangling("restart")
        starts = np.arange(20_000, dtype=np.int64) % g.n
        own = walk_endpoints(g, starts, ALPHA, np.random.default_rng(0))
        assert np.array_equal(own, starts)
        ends = walk_endpoints(g, starts, ALPHA, np.random.default_rng(0),
                              source=2)
        # A walk that moves at all lands on the origin and stays there;
        # only the zero-move walks (probability alpha) keep their start.
        assert np.all((ends == starts) | (ends == 2))
        kept = np.mean(ends[starts != 2] == starts[starts != 2])
        assert kept == pytest.approx(ALPHA, abs=0.02)

    def test_dangling_node_at_end_of_indices(self, tiny_graph):
        # Node 5 is dangling and its indptr entry equals m: a gather at
        # that offset would fall off the end of ``indices``.
        assert tiny_graph.indptr[5] == tiny_graph.m
        starts = np.full(5_000, 4, dtype=np.int64)
        ends = walk_endpoints(tiny_graph, starts, ALPHA,
                              np.random.default_rng(0))
        assert set(np.unique(ends).tolist()) == {4, 5}
        # Under "restart" a move from 5 jumps back to the start, 4.
        restart = tiny_graph.with_dangling("restart")
        ends = walk_endpoints(restart, starts, ALPHA,
                              np.random.default_rng(0))
        assert set(np.unique(ends).tolist()) == {4, 5}

    def test_weights_none_equals_unit_weights(self, ba_graph):
        starts = np.arange(3_000, dtype=np.int64) % ba_graph.n
        plain = walk_terminal_mass(ba_graph, starts, ALPHA,
                                   np.random.default_rng(5))
        unit = walk_terminal_mass(ba_graph, starts, ALPHA,
                                  np.random.default_rng(5),
                                  weights=np.ones(starts.size))
        assert plain.dtype == np.float64
        assert plain.tobytes() == unit.tobytes()

    def test_restart_with_and_without_source(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 2)]) \
            .with_dangling("restart")
        starts = np.repeat(np.array([0, 4], dtype=np.int64), 30_000)
        pi0 = power_iteration(g, 0, alpha=ALPHA, tol=1e-13).estimates
        pi4 = power_iteration(g, 4, alpha=ALPHA, tol=1e-13).estimates
        # Without ``source`` each walk restarts at its own start node.
        own = walk_terminal_mass(g, starts, ALPHA, np.random.default_rng(1))
        assert np.max(np.abs(own / starts.size - (pi0 + pi4) / 2)) < 0.02
        # With ``source`` every walk restarts there; from 0 itself that is
        # pi(0, .) exactly, from 4 it is no RWR vector of either node.
        shared = walk_terminal_mass(g, np.zeros(60_000, np.int64), ALPHA,
                                    np.random.default_rng(2), source=0)
        assert np.max(np.abs(shared / 60_000 - pi0)) < 0.02
        moved = walk_endpoints(g, np.full(60_000, 4, np.int64), ALPHA,
                               np.random.default_rng(3), source=0)
        assert np.mean(moved == 0) > 0.05   # restarts reach node 0
        assert np.mean(walk_endpoints(
            g, np.full(60_000, 4, np.int64), ALPHA,
            np.random.default_rng(3)) == 0) == 0.0

    @pytest.mark.parametrize("policy", ["absorb", "restart"])
    def test_mmap_graph_matches_in_memory(self, dangling_graph, policy,
                                          tmp_path):
        from repro.graph.io import load_mmap, save_mmap

        g = dangling_graph.with_dangling(policy)
        save_mmap(g, tmp_path / "g.rcsr")
        mapped = load_mmap(tmp_path / "g.rcsr")
        assert isinstance(mapped.indices, np.memmap)
        assert mapped.dangling == policy
        starts = np.arange(4_000, dtype=np.int64) % g.n
        a = walk_endpoints(g, starts, ALPHA, np.random.default_rng(7))
        b = walk_endpoints(mapped, starts, ALPHA, np.random.default_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_absorb_distribution_with_dangling(self, dangling_graph):
        truth = ExactSolver(dangling_graph, ALPHA).query(0).estimates
        assert truth[24:].sum() > 0.05   # walks do reach the dangling end
        mass = walks_from_single_source(dangling_graph, 0, 60_000, ALPHA,
                                        np.random.default_rng(11))
        assert np.max(np.abs(mass / 60_000 - truth)) < 0.02

    def test_restart_distribution_with_dangling(self, dangling_graph):
        g = dangling_graph.with_dangling("restart")
        truth = power_iteration(g, 0, alpha=ALPHA, tol=1e-13).estimates
        mass = walks_from_single_source(g, 0, 60_000, ALPHA,
                                        np.random.default_rng(12))
        assert np.max(np.abs(mass / 60_000 - truth)) < 0.02

    def test_mean_moves_per_walk(self, ba_graph):
        class CountingRNG:
            """Counts uniforms: one length draw per walk plus one
            neighbour offset per move."""

            def __init__(self, seed):
                self.inner = np.random.default_rng(seed)
                self.drawn = 0

            def random(self, size):
                self.drawn += size
                return self.inner.random(size)

        num_walks = 200_000
        rng = CountingRNG(13)
        walk_endpoints(ba_graph, np.zeros(num_walks, np.int64), ALPHA, rng)
        moves = (rng.drawn - num_walks) / num_walks
        assert moves == pytest.approx((1 - ALPHA) / ALPHA, abs=0.05)

    def test_deterministic_per_seed_and_input_order(self, ba_graph):
        starts = np.arange(5_000, dtype=np.int64) % ba_graph.n
        a = walk_endpoints(ba_graph, starts, ALPHA, np.random.default_rng(3))
        b = walk_endpoints(ba_graph, starts, ALPHA, np.random.default_rng(3))
        assert a.tobytes() == b.tobytes()
        # Endpoints come back in input order: a zero-move walk (every
        # walk at alpha ~ 1) ends where it started.
        still = walk_endpoints(ba_graph, starts, 1 - 1e-12,
                               np.random.default_rng(3))
        assert np.array_equal(still, starts)
