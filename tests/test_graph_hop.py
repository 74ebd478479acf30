"""Tests for hop layers, hop sets and the vectorized BFS."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import CSRGraph, from_edges, generators, hop_structure
from repro.graph.hop import UNREACHED, expand_ranges


class TestHopStructure:
    def test_layers_on_tiny_graph(self, tiny_graph):
        hops = hop_structure(tiny_graph, 0, 4)
        assert list(hops.layer(0)) == [0]
        assert list(hops.layer(1)) == [1]
        assert sorted(hops.layer(2)) == [2, 3]
        assert sorted(hops.layer(3)) == [4]
        assert sorted(hops.layer(4)) == [5]

    def test_hop_set_union_of_layers(self, tiny_graph):
        hops = hop_structure(tiny_graph, 0, 3)
        expected = sorted(
            set(hops.layer(0)) | set(hops.layer(1))
            | set(hops.layer(2)) | set(hops.layer(3))
        )
        assert sorted(hops.hop_set(3)) == expected

    def test_truncation_marks_unreached(self, tiny_graph):
        hops = hop_structure(tiny_graph, 0, 1)
        assert hops.distances[4] == UNREACHED
        assert hops.distances[5] == UNREACHED

    def test_boundary_layer(self, tiny_graph):
        hops = hop_structure(tiny_graph, 0, 2)
        assert sorted(hops.boundary_layer) == [2, 3]

    def test_within_mask(self, tiny_graph):
        hops = hop_structure(tiny_graph, 0, 3)
        mask = hops.within(2)
        assert sorted(np.flatnonzero(mask)) == [0, 1, 2, 3]

    def test_zero_hops(self, tiny_graph):
        hops = hop_structure(tiny_graph, 3, 0)
        assert list(hops.hop_set(0)) == [3]
        assert (hops.distances >= 0).sum() == 1

    def test_source_out_of_range(self, tiny_graph):
        with pytest.raises(ParameterError):
            hop_structure(tiny_graph, 77, 2)
        with pytest.raises(ParameterError):
            hop_structure(tiny_graph, 0, -1)

    def test_matches_networkx_bfs(self, ba_graph):
        nx = pytest.importorskip("networkx")
        from repro.graph import to_networkx

        source = 5
        hops = hop_structure(ba_graph, source, 3)
        lengths = nx.single_source_shortest_path_length(
            to_networkx(ba_graph), source, cutoff=3
        )
        for v in range(ba_graph.n):
            expected = lengths.get(v, UNREACHED)
            assert hops.distances[v] == expected

    def test_ring_layers(self):
        g = generators.ring(10)
        hops = hop_structure(g, 0, 9)
        for i in range(10):
            assert list(hops.layer(i)) == [i]

    def test_disconnected_component_unreached(self):
        g = from_edges(5, [(0, 1), (2, 3), (3, 2)])
        hops = hop_structure(g, 0, 4)
        assert hops.distances[2] == UNREACHED
        assert hops.distances[4] == UNREACHED


def bfs_distances(graph, source, max_hops):
    """Pure-Python BFS truncated at ``max_hops`` levels."""
    dist = [UNREACHED] * graph.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        if dist[u] == max_hops:
            continue
        for v in graph.out_neighbors(u).tolist():
            if dist[v] == UNREACHED:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def raw_graph(seed):
    """CSR graph built without ``from_edges``' cleaning or validation
    (which reject them): it keeps parallel edges and self-loops, and
    its last quarter of nodes has no in-edges (unreachable from any
    other source)."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(12, 60))
    reach = n - n // 4
    src = gen.integers(0, n, size=4 * n)
    dst = gen.integers(0, reach, size=src.size)
    loops = gen.integers(0, n, size=n // 3)
    doubled = gen.integers(0, src.size, size=n // 2)
    src = np.concatenate([src, loops, src[doubled]])
    dst = np.concatenate([dst, loops, dst[doubled]])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(n, indptr, dst[order].astype(np.int64),
                    validate=False)


class TestHopAgainstPythonBFS:
    @pytest.mark.parametrize("seed", range(8))
    def test_parallel_edges_self_loops_unreachable(self, seed):
        graph = raw_graph(seed)
        pairs = list(zip(np.repeat(np.arange(graph.n), graph.out_degrees),
                         graph.indices))
        assert len(pairs) > len(set(pairs))                 # parallel edges
        assert any(int(u) == int(v) for u, v in pairs)      # self-loops
        for source in (0, graph.n // 2, graph.n - 1):
            for max_hops in (0, 1, 2, 3, graph.n):
                hops = hop_structure(graph, source, max_hops)
                assert hops.distances.tolist() == bfs_distances(
                    graph, source, max_hops)
        assert (hop_structure(graph, 0, graph.n).distances
                == UNREACHED).any()                         # unreachable


class TestExpandRanges:
    def test_simple(self):
        out = expand_ranges([0, 10], [3, 2])
        assert list(out) == [0, 1, 2, 10, 11]

    def test_zero_counts_skipped(self):
        out = expand_ranges([5, 7, 9], [0, 2, 0])
        assert list(out) == [7, 8]

    def test_empty(self):
        assert expand_ranges([], []).size == 0

    def test_matches_naive_on_random_input(self, rng):
        starts = rng.integers(0, 1000, size=50)
        counts = rng.integers(0, 8, size=50)
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        ) if counts.sum() else np.empty(0, dtype=np.int64)
        out = expand_ranges(starts, counts)
        assert np.array_equal(out, expected)

    def test_gathers_adjacency(self, tiny_graph):
        nodes = np.array([1, 2])
        starts = tiny_graph.indptr[nodes]
        counts = tiny_graph.out_degrees[nodes]
        gathered = tiny_graph.indices[expand_ranges(starts, counts)]
        expected = np.concatenate([
            tiny_graph.out_neighbors(1), tiny_graph.out_neighbors(2)
        ])
        assert np.array_equal(gathered, expected)
