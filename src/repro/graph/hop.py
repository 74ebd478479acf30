"""Hop structure around a source node (Definitions 2-5 of the paper).

The h-HopFWD phase of ResAcc needs, for a source ``s``:

* the *i-hop layer* ``L_i(s)`` -- nodes at shortest distance exactly ``i``;
* the *h-hop set* ``V_h(s)`` -- nodes at distance at most ``h``;
* membership of the ``(h+1)``-hop layer, where residues accumulate.

:func:`hop_structure` computes a distance array by vectorized BFS up to
``h + 1`` hops and wraps it in :class:`HopStructure`, which answers all the
membership questions with O(1) array lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError

UNREACHED = -1


@dataclass(frozen=True)
class HopStructure:
    """Distances from a source, truncated at ``max_hops`` (= h + 1)."""

    source: int
    max_hops: int
    #: distance from source, ``UNREACHED`` for nodes beyond ``max_hops``.
    distances: np.ndarray = field(repr=False)

    def layer(self, i):
        """Nodes at distance exactly ``i`` (the i-hop layer ``L_i``)."""
        return np.flatnonzero(self.distances == i)

    def hop_set(self, h):
        """Nodes at distance at most ``h`` (the h-hop set ``V_h``)."""
        return np.flatnonzero((self.distances >= 0) & (self.distances <= h))

    def within(self, h):
        """Boolean mask of nodes at distance at most ``h``."""
        return (self.distances >= 0) & (self.distances <= h)

    @property
    def boundary_layer(self):
        """The ``max_hops``-hop layer (``L_{h+1}`` when built with h + 1)."""
        return self.layer(self.max_hops)


def hop_structure(graph, source, max_hops):
    """BFS from ``source`` truncated at ``max_hops`` levels.

    Runs a frontier-at-a-time BFS over the CSR arrays; each level is one
    vectorized gather, so the cost is proportional to the edges touched.
    """
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    if max_hops < 0:
        raise ParameterError(f"max_hops must be >= 0, got {max_hops}")
    dist = np.full(graph.n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    for level in range(1, max_hops + 1):
        if frontier.size == 0:
            break
        targets = _gather_neighbors(indptr, indices, frontier)
        fresh = targets[dist[targets] == UNREACHED]
        if fresh.size == 0:
            break
        dist[fresh] = level
        # The nodes just labelled: sorted, and free of the duplicates
        # ``fresh`` carries.
        frontier = np.flatnonzero(dist == level)
    return HopStructure(source=int(source), max_hops=int(max_hops), distances=dist)


def expand_ranges(starts, counts):
    """Concatenate integer ranges ``[starts[i], starts[i]+counts[i])``.

    The workhorse for vectorized CSR gathers: given per-node adjacency
    offsets it produces the positions of every incident edge without a
    Python-level loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nonzero = counts > 0
    starts, counts = starts[nonzero], counts[nonzero]
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    boundaries = np.cumsum(counts)[:-1]
    steps[boundaries] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(steps)


def _gather_neighbors(indptr, indices, nodes):
    """All out-neighbours of ``nodes``, concatenated (with duplicates)."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    return indices[expand_ranges(starts, counts)]
