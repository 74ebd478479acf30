"""Incremental graph construction from a mutable edge set.

:class:`GraphBuilder` keeps the edges as a Python set, so a burst of
updates costs O(changes) and only the final :meth:`build` pays the CSR
construction.  It is the straightforward reference for edit sequences:
the property tests and ``perfbench/checker.py`` replay a serving
engine's edits through it and compare against the engine's snapshots,
which :mod:`repro.graph.dynamic` splices directly.

This is a *builder*, not an index: it stores nothing derived, which is
exactly the index-free contract ResAcc relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edges


class GraphBuilder:
    """Mutable edge set that compiles to a :class:`CSRGraph`.

    Parameters
    ----------
    n:
        Initial node count; grows automatically via :meth:`add_node` or
        when ``grow=True`` edges reference new ids.
    graph:
        Optional existing graph to start from.
    """

    def __init__(self, n=0, *, graph=None, dangling="absorb"):
        if graph is not None:
            self._n = graph.n
            self._edges = set(graph.edges())
            self._dangling = graph.dangling
        else:
            self._n = int(n)
            self._edges = set()
            self._dangling = dangling
        if self._n < 0:
            raise GraphFormatError(f"negative node count: {self._n}")

    @property
    def num_nodes(self):
        return self._n

    @property
    def num_edges(self):
        return len(self._edges)

    def add_node(self):
        """Append a fresh node; returns its id."""
        self._n += 1
        return self._n - 1

    def add_edge(self, u, v, *, grow=False):
        """Insert the directed edge ``(u, v)``; returns whether it was new.

        Self-loops are rejected (the paper's graphs have none).
        """
        u, v = int(u), int(v)
        if u == v:
            raise GraphFormatError("self-loops are not allowed")
        top = max(u, v)
        if top >= self._n:
            if not grow:
                raise GraphFormatError(
                    f"edge ({u}, {v}) exceeds n={self._n}; pass grow=True"
                )
            self._n = top + 1
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative node id in edge ({u}, {v})")
        before = len(self._edges)
        self._edges.add((u, v))
        return len(self._edges) != before

    def add_undirected_edge(self, u, v, *, grow=False):
        """Insert both directions of an undirected edge."""
        first = self.add_edge(u, v, grow=grow)
        second = self.add_edge(v, u)
        return first or second

    def remove_edge(self, u, v):
        """Remove the directed edge; returns whether it existed."""
        try:
            self._edges.remove((int(u), int(v)))
            return True
        except KeyError:
            return False

    def remove_node_edges(self, v):
        """Drop every edge incident to ``v`` (the node id stays valid);
        returns the number removed."""
        v = int(v)
        doomed = [e for e in self._edges if v in e]
        for edge in doomed:
            self._edges.remove(edge)
        return len(doomed)

    def has_edge(self, u, v):
        return (int(u), int(v)) in self._edges

    def build(self):
        """Compile the current edge set to an immutable :class:`CSRGraph`."""
        edges = np.array(sorted(self._edges), dtype=np.int64) \
            if self._edges else np.empty((0, 2), dtype=np.int64)
        return from_edges(self._n, edges, dangling=self._dangling)

    def __len__(self):
        return self.num_edges

    def __repr__(self):
        return (f"GraphBuilder(n={self._n}, m={len(self._edges)}, "
                f"dangling={self._dangling!r})")
