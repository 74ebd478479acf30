"""Graph mutation helpers: pure functions from one CSR graph to the next.

Two kinds of caller use them:

* the serving engines' write path (:mod:`repro.serving.engine`): every
  ``add_edge`` / ``remove_edge`` / ``remove_node`` computes its next
  snapshot from the current one with :func:`grow_nodes`,
  :func:`insert_edge`, :func:`delete_edge` and :func:`delete_nodes`.
  The single-edge splices cost one ``np.insert``/``np.delete`` memcpy
  instead of re-sorting the whole edge set; on a row-sorted
  deduplicated graph their output is byte-identical to a
  :class:`repro.graph.builder.GraphBuilder` rebuild, the reference the
  tests and ``perfbench/checker.py`` replay edits through;
* bulk edits (:func:`add_edges`, :func:`delete_edges`,
  :func:`delete_nodes`, :func:`rewire_random_edges`) that rebuild the
  CSR arrays in O(n + m) -- the Fig. 23 node-deletion experiment
  (:mod:`repro.bench.appendix`) and the examples use these;
  :func:`delete_nodes` filters the arrays in place of a rebuild.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph


def _csr_from_edge_rows(n, edges, *, dangling):
    """CSR from an ``(m, 2)`` edge array, **preserving multiplicity**.

    Unlike :func:`repro.graph.build.from_edges` this keeps parallel
    edges: rows are lexsorted on ``(source, target)`` but never
    deduplicated.  Used by the mutation helpers, whose inputs come from
    an already-validated graph.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0]:
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        counts = np.bincount(edges[:, 0], minlength=n)
        indices = edges[:, 1].copy()
    else:
        counts = np.zeros(n, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(n, indptr, indices, dangling=dangling, validate=False)


def _check_endpoints(graph, u, v):
    if u == v:
        raise GraphFormatError("self-loops are not allowed")
    if not (0 <= u < graph.n and 0 <= v < graph.n):
        raise GraphFormatError(
            f"edge ({u}, {v}) out of range for n={graph.n}"
        )


def grow_nodes(graph, n):
    """New graph with ``n`` nodes: ids ``graph.n .. n-1`` are appended
    as empty (dangling) rows.  Returns ``graph`` itself when it already
    has ``n`` nodes or more."""
    n = int(n)
    if n <= graph.n:
        return graph
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[:graph.n + 1] = graph.indptr
    indptr[graph.n + 1:] = graph.m
    return CSRGraph(n, indptr, graph.indices, dangling=graph.dangling,
                    validate=False)


def insert_edge(graph, u, v):
    """New graph with the directed edge ``(u, v)`` inserted.

    A single-edge *delta* edit: the target is spliced into row ``u`` at
    its sorted position (one ``np.insert`` memcpy, no edge-set re-sort),
    so for a row-sorted deduplicated graph -- every ``from_edges``
    output -- the result is byte-identical to a full ``from_edges``
    rebuild.  On a multigraph it adds one more copy.
    """
    u, v = int(u), int(v)
    _check_endpoints(graph, u, v)
    row = graph.out_neighbors(u)
    pos = int(graph.indptr[u]) + int(np.searchsorted(row, v))
    indices = np.insert(graph.indices, pos, v)
    indptr = graph.indptr.copy()
    indptr[u + 1:] += 1
    return CSRGraph(graph.n, indptr, indices, dangling=graph.dangling,
                    validate=False)


def delete_edge(graph, u, v):
    """New graph with one copy of the directed edge ``(u, v)`` removed.

    The single-edge counterpart of :func:`delete_edges` (same
    one-copy-per-call multiset semantics); raises
    :class:`GraphFormatError` when the edge is absent.
    """
    u, v = int(u), int(v)
    _check_endpoints(graph, u, v)
    row = graph.out_neighbors(u)
    matches = np.flatnonzero(row == v)
    if matches.size == 0:
        raise GraphFormatError(f"edge ({u}, {v}) is not in the graph")
    pos = int(graph.indptr[u]) + int(matches[0])
    indices = np.delete(graph.indices, pos)
    indptr = graph.indptr.copy()
    indptr[u + 1:] -= 1
    return CSRGraph(graph.n, indptr, indices, dangling=graph.dangling,
                    validate=False)


def delete_nodes(graph, nodes, *, relabel=False):
    """Remove ``nodes`` and all incident edges.

    With ``relabel=False`` (default) the removed ids stay in the graph as
    isolated nodes, which keeps downstream id-based bookkeeping valid --
    exactly what the Fig. 23 node-deletion experiment and the serving
    engines' ``remove_node`` need.  With ``relabel=True`` the survivors
    are compacted to ``0 .. n-k-1`` and the id mapping is returned as a
    second value.

    Filters ``indices`` with a keep-mask and recounts ``indptr``: the
    surviving entries keep their row order (relabelling is monotone),
    so no re-sort is needed, and on a row-sorted deduplicated graph the
    result is byte-identical to a :func:`from_edges` rebuild of the
    surviving edges.  Parallel edges survive as they are.
    """
    doomed = np.zeros(graph.n, dtype=bool)
    node_arr = np.asarray(list(nodes), dtype=np.int64)
    if node_arr.size and (node_arr.min() < 0 or node_arr.max() >= graph.n):
        raise GraphFormatError("node id out of range")
    doomed[node_arr] = True
    keep = ~(np.repeat(doomed, graph.out_degrees) | doomed[graph.indices])
    indices = graph.indices[keep]
    kept_before = np.zeros(keep.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    if not relabel:
        return CSRGraph(graph.n, kept_before[graph.indptr], indices,
                        dangling=graph.dangling, validate=False)
    survivors = np.flatnonzero(~doomed)
    old_to_new = -np.ones(graph.n, dtype=np.int64)
    old_to_new[survivors] = np.arange(survivors.size)
    indptr = np.zeros(survivors.size + 1, dtype=np.int64)
    indptr[1:] = kept_before[graph.indptr[survivors + 1]]
    return (
        CSRGraph(survivors.size, indptr, old_to_new[indices],
                 dangling=graph.dangling, validate=False),
        survivors,
    )


def delete_edges(graph, edges_to_drop):
    """Remove specific directed edges (missing edges are ignored).

    Multiset semantics: each listed occurrence removes **one** copy of
    the edge, so parallel edges survive unless listed as many times as
    they appear.  Fully vectorized over :meth:`CSRGraph.edge_array`
    (encode edges as ``u * n + v`` keys, binary-search each requested
    drop into the sorted key array) — no Python-level edge loop.
    """
    edges = graph.edge_array()
    drop = np.asarray(list(edges_to_drop), dtype=np.int64).reshape(-1, 2)
    if drop.shape[0]:
        in_range = ((drop >= 0) & (drop < graph.n)).all(axis=1)
        drop = drop[in_range]
    if drop.shape[0] and edges.shape[0]:
        n = np.int64(graph.n)
        keys = edges[:, 0] * n + edges[:, 1]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        drop_keys = drop[:, 0] * n + drop[:, 1]
        unique_drop, requested = np.unique(drop_keys, return_counts=True)
        left = np.searchsorted(sorted_keys, unique_drop, side="left")
        right = np.searchsorted(sorted_keys, unique_drop, side="right")
        take = np.minimum(requested, right - left)
        total = int(take.sum())
        if total:
            # Positions left[i] .. left[i]+take[i]-1 within the sorted
            # order, flattened across all drop keys.
            starts = np.repeat(left, take)
            offsets = np.arange(total) - np.repeat(np.cumsum(take) - take,
                                                   take)
            keep = np.ones(edges.shape[0], dtype=bool)
            keep[order[starts + offsets]] = False
            edges = edges[keep]
    return _csr_from_edge_rows(graph.n, edges, dangling=graph.dangling)


def add_edges(graph, new_edges, *, grow=False):
    """Add directed edges, optionally growing the node count to fit them."""
    new_arr = np.asarray(list(new_edges), dtype=np.int64).reshape(-1, 2)
    n = graph.n
    if new_arr.size:
        needed = int(new_arr.max()) + 1
        if needed > n:
            if not grow:
                raise GraphFormatError(
                    f"edge endpoint {needed - 1} exceeds n={n}; pass grow=True"
                )
            n = needed
    combined = np.vstack([graph.edge_array(), new_arr]) if new_arr.size else (
        graph.edge_array()
    )
    return from_edges(n, combined, dangling=graph.dangling)


def rewire_random_edges(graph, count, *, seed=0):
    """Replace ``count`` random edges with fresh uniform edges (churn model)."""
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    if edges.shape[0] == 0:
        return CSRGraph(graph.n, graph.indptr.copy(), graph.indices.copy(),
                        dangling=graph.dangling, validate=False)
    count = min(int(count), edges.shape[0])
    victims = rng.choice(edges.shape[0], size=count, replace=False)
    edges[victims, 0] = rng.integers(0, graph.n, size=count)
    edges[victims, 1] = rng.integers(0, graph.n, size=count)
    return from_edges(graph.n, edges, dangling=graph.dangling)
