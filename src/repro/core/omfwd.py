"""OMFWD: one-more forward search (Algorithm 4).

After h-HopFWD, the nodes of the boundary layer ``L_{h+1}(s)`` hold large
accumulated residues (they received pushes from the last subgraph layer but
were never allowed to push).  OMFWD drains those residues with a standard
forward-push pass over the whole graph under a *second* threshold
``r_max_f`` (the paper's default is ``1 / (10 m)``), seeded from the
boundary layer in decreasing order of residue.

The pass both converts a large amount of residue into reserve and shrinks
``r_sum``, which directly reduces the number of random walks the remedy
phase must simulate.
"""

from __future__ import annotations

import numpy as np

from repro.push.forward import forward_push_loop, push_thresholds


def omfwd(graph, reserve, residue, alpha, r_max_f, *, boundary_nodes=None,
          source=None, method="frontier", max_pushes=None, trace=None):
    """Run OMFWD in place on ``(reserve, residue)``.

    ``boundary_nodes`` is the ``L_{h+1}`` layer; with the queue scheduler
    they are enqueued first, sorted by decreasing residue (Algorithm 4,
    line 1).  Any other node that already satisfies the push condition --
    possible after the updating phase rescaled the subgraph -- is enqueued
    after them, so the pass always terminates with no eligible node left.

    ``trace`` is an optional :class:`repro.obs.QueryTrace`; the push loop
    flushes its counters into it once, on return.

    Returns :class:`repro.push.PushStats`.
    """
    seeds = None
    if method == "queue":
        seeds = _build_seed_order(graph, residue, r_max_f, boundary_nodes)
        if trace is not None:
            trace.add_counters(seed_nodes=int(seeds.size))
    return forward_push_loop(
        graph, reserve, residue, alpha, r_max_f,
        source=source, seeds=seeds, method=method, max_pushes=max_pushes,
        trace=trace,
    )


def _build_seed_order(graph, residue, r_max_f, boundary_nodes):
    # push_thresholds hits the snapshot cache, so this no longer
    # recomputes the vector the push loop is about to use.
    thresholds = push_thresholds(graph, r_max_f)
    eligible = residue >= thresholds
    if boundary_nodes is None:
        boundary_nodes = np.empty(0, dtype=np.int64)
    else:
        boundary_nodes = np.asarray(boundary_nodes, dtype=np.int64)
    boundary_hot = boundary_nodes[eligible[boundary_nodes]]
    boundary_sorted = boundary_hot[np.argsort(-residue[boundary_hot],
                                              kind="stable")]
    is_boundary = np.zeros(graph.n, dtype=bool)
    is_boundary[boundary_nodes] = True
    rest = np.flatnonzero(eligible & ~is_boundary)
    rest_sorted = rest[np.argsort(-residue[rest], kind="stable")]
    return np.concatenate([boundary_sorted, rest_sorted])


def residue_sum(residue):
    """Total positive residue ``r_sum`` (Algorithm 2, line 6)."""
    positive = residue[residue > 0.0]
    return float(positive.sum())
