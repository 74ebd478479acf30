"""Tests for the dynamic-graph mutation helpers.

Covers the single-edge delta edits (`insert_edge` / `delete_edge`) --
including their byte-identity with a full `from_edges` rebuild -- and
the bulk helpers' edge cases: multiset `delete_edges` semantics on
parallel edges, empty update lists, `add_edges(grow=True)` node growth,
and the `delete_nodes(relabel=True)` id-mapping round trip.
"""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    CSRGraph,
    add_edges,
    delete_edge,
    delete_edges,
    delete_nodes,
    from_edges,
    grow_nodes,
    insert_edge,
)
from repro.graph import generators


def multigraph():
    """3 nodes, parallel edges: 0->1 (x2), 1->2 (x3), 2->0."""
    return CSRGraph(
        3,
        np.array([0, 2, 5, 6], dtype=np.int64),
        np.array([1, 1, 2, 2, 2, 0], dtype=np.int64),
        validate=False,
    )


class TestSingleEdgeDelta:
    def test_insert_matches_full_rebuild(self):
        g = generators.preferential_attachment(60, 2, seed=3)
        missing = [(u, v) for u in range(8) for v in range(8)
                   if u != v and not g.has_edge(u, v)]
        for u, v in missing[:5]:
            delta = insert_edge(g, u, v)
            rebuilt = from_edges(
                g.n, np.vstack([g.edge_array(), [[u, v]]]),
                dangling=g.dangling,
            )
            np.testing.assert_array_equal(delta.indptr, rebuilt.indptr)
            np.testing.assert_array_equal(delta.indices, rebuilt.indices)

    def test_delete_matches_full_rebuild(self):
        g = generators.preferential_attachment(60, 2, seed=3)
        edges = g.edge_array()
        for u, v in edges[:5]:
            delta = delete_edge(g, u, v)
            keep = ~((edges[:, 0] == u) & (edges[:, 1] == v))
            rebuilt = from_edges(g.n, edges[keep], dangling=g.dangling)
            np.testing.assert_array_equal(delta.indptr, rebuilt.indptr)
            np.testing.assert_array_equal(delta.indices, rebuilt.indices)

    def test_insert_then_delete_round_trips(self):
        g = generators.preferential_attachment(40, 2, seed=1)
        u, v = next((u, v) for u in range(10) for v in range(10)
                    if u != v and not g.has_edge(u, v))
        back = delete_edge(insert_edge(g, u, v), u, v)
        np.testing.assert_array_equal(back.indptr, g.indptr)
        np.testing.assert_array_equal(back.indices, g.indices)

    def test_insert_rejects_self_loop_and_out_of_range(self):
        g = from_edges(3, [(0, 1)])
        with pytest.raises(GraphFormatError):
            insert_edge(g, 1, 1)
        with pytest.raises(GraphFormatError):
            insert_edge(g, 0, 3)

    def test_delete_missing_edge_raises(self):
        g = from_edges(3, [(0, 1)])
        with pytest.raises(GraphFormatError):
            delete_edge(g, 1, 2)

    def test_insert_on_multigraph_adds_a_copy(self):
        g = multigraph()
        g2 = insert_edge(g, 0, 1)
        assert g2.m == g.m + 1
        assert list(g2.out_neighbors(0)) == [1, 1, 1]

    def test_delete_on_multigraph_removes_one_copy(self):
        g = multigraph()
        g2 = delete_edge(g, 1, 2)
        assert g2.m == g.m - 1
        assert list(g2.out_neighbors(1)) == [2, 2]


class TestDeleteEdgesMultiset:
    def test_one_listed_occurrence_removes_one_copy(self):
        g = multigraph()
        g2 = delete_edges(g, [(0, 1)])
        assert g2.m == 5
        assert list(g2.out_neighbors(0)) == [1]

    def test_listing_twice_removes_both_copies(self):
        g = multigraph()
        g2 = delete_edges(g, [(0, 1), (0, 1)])
        assert g2.m == 4
        assert list(g2.out_neighbors(0)) == []

    def test_requests_beyond_multiplicity_are_capped(self):
        g = multigraph()
        g2 = delete_edges(g, [(2, 0)] * 5)
        assert g2.m == 5
        assert list(g2.out_neighbors(2)) == []

    def test_missing_and_out_of_range_edges_ignored(self):
        g = multigraph()
        g2 = delete_edges(g, [(0, 2), (-1, 0), (2, 99)])
        assert g2.m == g.m
        np.testing.assert_array_equal(g2.indices, g.indices)

    def test_matches_naive_reference_on_random_multigraph(self):
        rng = np.random.default_rng(7)
        n = 12
        edges = rng.integers(0, n, size=(80, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        counts = np.bincount(edges[:, 0], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        g = CSRGraph(n, indptr, edges[:, 1].copy(), validate=False)
        drops = [tuple(e) for e in rng.choice(edges, size=30)]
        drops += [(0, 1), (n - 1, 0)]  # maybe-absent edges

        remaining = [tuple(e) for e in g.edge_array()]
        for edge in drops:
            if edge in remaining:
                remaining.remove(edge)  # one copy per listed occurrence
        expected = sorted(remaining)

        g2 = delete_edges(g, drops)
        assert sorted(tuple(e) for e in g2.edge_array()) == expected


class TestEmptyUpdates:
    def test_delete_edges_empty_preserves_multiplicity(self):
        g = multigraph()
        g2 = delete_edges(g, [])
        assert g2.m == g.m
        np.testing.assert_array_equal(g2.indptr, g.indptr)
        np.testing.assert_array_equal(g2.indices, g.indices)

    def test_add_edges_empty_is_identity(self):
        g = generators.preferential_attachment(30, 2, seed=0)
        g2 = add_edges(g, [])
        assert g2.n == g.n
        np.testing.assert_array_equal(g2.indptr, g.indptr)
        np.testing.assert_array_equal(g2.indices, g.indices)

    def test_delete_nodes_empty_is_identity(self):
        g = generators.preferential_attachment(30, 2, seed=0)
        g2 = delete_nodes(g, [])
        assert g2.n == g.n
        assert g2.m == g.m


class TestDeleteNodesFilter:
    """``delete_nodes`` filters the CSR arrays instead of rebuilding;
    on a ``from_edges`` graph the bytes match the rebuild exactly."""

    @staticmethod
    def _rebuild(g, doomed, relabel):
        edges = g.edge_array()
        gone = np.zeros(g.n, dtype=bool)
        gone[list(doomed)] = True
        edges = edges[~(gone[edges[:, 0]] | gone[edges[:, 1]])]
        if not relabel:
            return from_edges(g.n, edges, dangling=g.dangling)
        survivors = np.flatnonzero(~gone)
        old_to_new = -np.ones(g.n, dtype=np.int64)
        old_to_new[survivors] = np.arange(survivors.size)
        return from_edges(survivors.size, old_to_new[edges],
                          dangling=g.dangling)

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_byte_identical_to_from_edges_rebuild(self, seed, relabel):
        rng = np.random.default_rng(seed)
        g = generators.directed_power_law(
            80, 4, seed=seed, dangling=("absorb", "restart")[seed % 2])
        for count in (1, 3, 17):
            doomed = rng.choice(g.n, size=count, replace=False).tolist()
            got = delete_nodes(g, doomed, relabel=relabel)
            if relabel:
                got, survivors = got
                assert survivors.tolist() == sorted(
                    set(range(g.n)) - set(doomed))
            want = self._rebuild(g, doomed, relabel)
            assert got.n == want.n
            assert got.dangling == want.dangling
            assert got.indptr.dtype == want.indptr.dtype
            assert got.indices.dtype == want.indices.dtype
            assert got.indptr.tobytes() == want.indptr.tobytes()
            assert got.indices.tobytes() == want.indices.tobytes()

    def test_keeps_parallel_edges(self):
        g = delete_nodes(multigraph(), [0])
        assert g.indptr.tolist() == [0, 0, 3, 3]
        assert g.indices.tolist() == [2, 2, 2]


class TestGrowthAndRelabel:
    def test_add_edges_grow_extends_node_count(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        g2 = add_edges(g, [(2, 5)], grow=True)
        assert g2.n == 6
        assert g2.has_edge(2, 5)
        assert g2.has_edge(0, 1)

    def test_grow_nodes_appends_empty_rows(self):
        g = generators.preferential_attachment(30, 2, seed=5)
        grown = grow_nodes(g, g.n + 4)
        rebuilt = from_edges(g.n + 4, g.edge_array(), dangling=g.dangling)
        assert grown.n == rebuilt.n
        assert grown.indptr.tobytes() == rebuilt.indptr.tobytes()
        assert grown.indices.tobytes() == rebuilt.indices.tobytes()
        assert grow_nodes(g, g.n) is g
        assert grow_nodes(g, 2) is g

    def test_add_edges_without_grow_rejects_new_ids(self):
        g = from_edges(3, [(0, 1)])
        with pytest.raises(GraphFormatError):
            add_edges(g, [(0, 7)])

    def test_delete_nodes_relabel_round_trip(self):
        g = generators.preferential_attachment(30, 2, seed=5)
        doomed = [3, 11, 20]
        g2, survivors = delete_nodes(g, doomed, relabel=True)
        assert g2.n == g.n - len(doomed)
        assert not set(doomed) & set(survivors.tolist())
        # Every surviving edge maps back to an original edge between
        # surviving endpoints, and every such original edge is present.
        back = {(int(survivors[u]), int(survivors[v]))
                for u, v in g2.edge_array()}
        doomed_set = set(doomed)
        original = {(int(u), int(v)) for u, v in g.edge_array()
                    if u not in doomed_set and v not in doomed_set}
        assert back == original
