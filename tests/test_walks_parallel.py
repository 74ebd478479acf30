"""Tests for the process-parallel walk executor (repro.walks.parallel).

The module-scoped ``pool`` fixture keeps one spawned worker pool alive
for the whole file -- pool startup is the expensive part, exactly as it
is for the serving engines that hold an executor per graph snapshot.
"""

import numpy as np
import pytest

from repro.core.params import AccuracyParams
from repro.core.resacc import resacc
from repro.errors import ParameterError
from repro.graph import generators
from repro.obs import QueryTrace
from repro.service import QueryEngine
from repro.walks import (
    ParallelWalkExecutor,
    SharedCSRGraph,
    residue_weighted_walks,
    walk_terminal_mass,
)

ALPHA = 0.2
WORKERS = 2


@pytest.fixture(scope="module")
def pgraph():
    return generators.preferential_attachment(300, 3, seed=7)


@pytest.fixture(scope="module")
def pool(pgraph):
    with ParallelWalkExecutor(pgraph, WORKERS) as executor:
        yield executor


@pytest.fixture
def residue(pgraph):
    vec = np.zeros(pgraph.n)
    vec[3] = 0.04
    vec[17] = 0.01
    vec[150] = 0.02
    return vec


def relaxed_accuracy(graph):
    return AccuracyParams.paper_defaults(graph.n, delta_scale=50.0)


class TestSharedCSRGraph:
    def test_handle_round_trip(self, pgraph):
        from repro.walks.parallel import _attach

        with SharedCSRGraph(pgraph) as shared:
            handle = shared.handle
            assert handle["n"] == pgraph.n
            assert handle["dangling"] == pgraph.dangling
            view = _attach(handle)
            assert np.array_equal(view.indptr, pgraph.indptr)
            assert np.array_equal(view.indices, pgraph.indices)
            assert np.array_equal(view.out_degrees, pgraph.out_degrees)
            # The view duck-types CSRGraph for the walk kernels: an
            # identical rng stream yields byte-identical terminal mass.
            starts = np.zeros(500, dtype=np.int64)
            a = walk_terminal_mass(pgraph, starts, ALPHA,
                                   np.random.default_rng(1))
            b = walk_terminal_mass(view, starts, ALPHA,
                                   np.random.default_rng(1))
            assert a.tobytes() == b.tobytes()

    def test_close_is_idempotent(self, pgraph):
        shared = SharedCSRGraph(pgraph)
        shared.close()
        shared.close()


class TestExecutorDeterminism:
    def test_fixed_seed_and_shards_byte_identical(self, pool, residue,
                                                  pgraph):
        runs = [
            residue_weighted_walks(pgraph, residue, 2_000, ALPHA, None,
                                   walk_seed=0, executor=pool)
            for _ in range(2)
        ]
        (mass_a, used_a), (mass_b, used_b) = runs
        assert mass_a.tobytes() == mass_b.tobytes()
        assert used_a == used_b

    def test_different_seed_diverges(self, pool, residue, pgraph):
        mass_a, _ = residue_weighted_walks(pgraph, residue, 2_000, ALPHA,
                                           None, walk_seed=0, executor=pool)
        mass_b, _ = residue_weighted_walks(pgraph, residue, 2_000, ALPHA,
                                           None, walk_seed=1, executor=pool)
        assert mass_a.tobytes() != mass_b.tobytes()

    def test_shard_count_changes_stream_not_mass_total(self, pool, residue,
                                                       pgraph):
        r_sum = residue.sum()
        masses = {}
        for shards in (1, 2, 3):
            mass, sizes = pool.run(
                np.repeat(np.flatnonzero(residue > 0), 1_000), ALPHA,
                weights=np.repeat(
                    residue[residue > 0] / 1_000, 1_000
                ),
                seed=0, n_shards=shards,
            )
            assert len(sizes) == shards
            assert sum(sizes) == 3_000
            # The terminal estimator deposits each walk's weight exactly
            # once, so total mass equals r_sum for every shard count.
            assert mass.sum() == pytest.approx(r_sum, abs=1e-12)
            masses[shards] = mass
        assert masses[1].tobytes() != masses[2].tobytes()

    def test_statistically_equivalent_to_exact(self, pool):
        from repro.baselines.inverse import ExactSolver

        g = generators.preferential_attachment(300, 3, seed=7)
        truth = ExactSolver(g, ALPHA).query(0).estimates
        starts = np.zeros(40_000, dtype=np.int64)
        mass, _ = pool.run(starts, ALPHA, seed=3)
        assert np.max(np.abs(mass / starts.size - truth)) < 0.02

    def test_empty_batch(self, pool):
        mass, sizes = pool.run(np.empty(0, dtype=np.int64), ALPHA, seed=0)
        assert mass.sum() == 0.0
        assert sum(sizes) == 0


class TestOriginRuns:
    """Shards travel as ``(origin, count, per-walk weight)`` runs."""

    def test_shard_runs_cover_expanded_slices(self):
        from repro.walks.parallel import _shard_runs

        gen = np.random.default_rng(0)
        origins = np.arange(40, dtype=np.int64)
        counts = gen.integers(0, 9, size=40)   # zero-count runs included
        expanded = np.repeat(origins, counts)
        ends = np.cumsum(counts)
        begins = ends - counts
        total = int(ends[-1])
        for n_shards in (1, 2, 3, 7, total + 2):
            bounds = np.linspace(0, total, n_shards + 1).astype(np.int64)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                runs, shard_counts = _shard_runs(begins, ends, lo, hi)
                assert np.array_equal(
                    np.repeat(origins[runs], shard_counts), expanded[lo:hi]
                )

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_runs_byte_identical_to_expanded(self, pool, shards):
        origins = np.array([3, 17, 150, 4], dtype=np.int64)
        counts = np.array([700, 1, 0, 1_299], dtype=np.int64)
        per_walk = np.array([4e-5, 0.01, 0.5, 1e-5])
        runs, run_sizes = pool.run(origins, ALPHA, counts=counts,
                                   weights=per_walk, seed=5,
                                   n_shards=shards)
        flat, flat_sizes = pool.run(np.repeat(origins, counts), ALPHA,
                                    weights=np.repeat(per_walk, counts),
                                    seed=5, n_shards=shards)
        assert runs.tobytes() == flat.tobytes()
        assert run_sizes == flat_sizes
        assert sum(run_sizes) == 2_000

    def test_bad_counts_rejected(self, pool):
        with pytest.raises(ParameterError):
            pool.run(np.array([1, 2]), ALPHA, counts=np.array([1]))
        with pytest.raises(ParameterError):
            pool.run(np.array([1, 2]), ALPHA, counts=np.array([1, -1]))


class TestEngineIntegration:
    def test_serial_path_bit_for_bit_unchanged(self, pgraph, residue):
        # walk_workers=1 is the serial sampler: it consumes rng exactly
        # as a call without the argument, same generator state, same
        # bytes out.
        mass_a, used_a = residue_weighted_walks(
            pgraph, residue, 2_000, ALPHA, np.random.default_rng(0)
        )
        mass_b, used_b = residue_weighted_walks(
            pgraph, residue, 2_000, ALPHA, np.random.default_rng(0),
            walk_workers=1,
        )
        assert mass_a.tobytes() == mass_b.tobytes()
        assert used_a == used_b

    def test_parallel_requires_walk_seed(self, pgraph, residue):
        with pytest.raises(ParameterError):
            residue_weighted_walks(pgraph, residue, 100, ALPHA,
                                   np.random.default_rng(0), walk_workers=2)

    def test_trace_gets_per_shard_counters(self, pool, pgraph, residue):
        trace = QueryTrace()
        _, used = residue_weighted_walks(pgraph, residue, 2_000, ALPHA,
                                         None, walk_seed=0, executor=pool,
                                         trace=trace)
        totals = trace.counter_totals
        assert totals["walks"] == used
        assert totals["walk_shards"] == WORKERS
        assert sum(trace.meta["walk_shard_walks"]) == used


class TestResAccParallel:
    def test_repeated_runs_byte_identical(self, pool, pgraph):
        results = [
            resacc(pgraph, 0, accuracy=relaxed_accuracy(pgraph), seed=5,
                   walk_executor=pool)
            for _ in range(2)
        ]
        assert (results[0].estimates.tobytes()
                == results[1].estimates.tobytes())
        assert results[0].estimates.sum() == pytest.approx(1.0, abs=1e-9)

    def test_explicit_rng_rejected(self, pgraph):
        with pytest.raises(ParameterError):
            resacc(pgraph, 0, rng=np.random.default_rng(0), walk_workers=2)

    def test_trace_meta_records_walk_workers(self, pool, pgraph):
        trace = QueryTrace()
        result = resacc(pgraph, 0, accuracy=relaxed_accuracy(pgraph),
                        seed=5, walk_executor=pool, trace=trace)
        assert result.trace is trace
        assert trace.meta["walk_workers"] == WORKERS
        remedy_counters = trace.phase("remedy").counters
        assert remedy_counters["walk_shards"] == WORKERS


class TestServiceIntegration:
    def test_query_engine_deterministic_and_mutation_safe(self, pgraph):
        accuracy = relaxed_accuracy(pgraph)
        with QueryEngine(pgraph, accuracy=accuracy, seed=9,
                         walk_workers=WORKERS) as engine:
            first = engine.query(0)
            # Same (graph, source, accuracy, seed, walk_workers) in a
            # fresh engine: byte-identical answer.
            with QueryEngine(pgraph, accuracy=accuracy, seed=9,
                             walk_workers=WORKERS) as other:
                assert (first.estimates.tobytes()
                        == other.query(0).estimates.tobytes())
            # A mutation retires the walk pool with the old snapshot;
            # the next query re-shares the new graph and still works.
            assert engine.add_edge(0, pgraph.n - 1)
            after = engine.query(0)
            assert after.estimates.sum() == pytest.approx(1.0, abs=1e-9)

    def test_query_engine_rejects_bad_walk_workers(self, pgraph):
        with pytest.raises(ParameterError):
            QueryEngine(pgraph, walk_workers=0)

    def test_concurrent_engine_matches_sequential(self, pgraph):
        from repro.serving import ConcurrentQueryEngine

        accuracy = relaxed_accuracy(pgraph)
        sources = [0, 17, 42, 17]
        with QueryEngine(pgraph, accuracy=accuracy, seed=4,
                         walk_workers=WORKERS) as sequential:
            expected = [sequential.query(s).estimates.tobytes()
                        for s in sources]
        with ConcurrentQueryEngine(pgraph, accuracy=accuracy, seed=4,
                                   max_workers=2,
                                   walk_workers=WORKERS) as engine:
            results = engine.query_batch(sources)
        got = [r.estimates.tobytes() for r in results]
        assert got == expected
