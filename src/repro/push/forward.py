"""Forward push kernels (Definition 6/7 and Algorithm 1 of the paper).

A forward push at node ``t`` moves ``alpha * r`` of its residue into its
reserve and spreads the remaining ``(1 - alpha) * r`` uniformly over its
out-neighbours.  Repeating pushes while any node satisfies the *push
condition* ``residue(t) / d_out(t) >= r_max`` yields reserves/residues
satisfying the invariant (Equation 2)

    pi(s, t) = reserve(t) + sum_v residue(v) * pi(v, t).

Three scheduling strategies are provided:

* ``"queue"`` -- the paper's FIFO formulation (Algorithms 1 and 4);
* ``"frontier"`` -- all currently-eligible nodes push simultaneously in one
  vectorized round (a Jacobi-style sweep), run by the output-sensitive
  kernel :func:`repro.push.kernels.frontier_loop`;
* ``"priority"`` -- Gauss-Southwell largest-ratio-first.

All three terminate at a state where no node satisfies the push
condition, and all preserve the invariant exactly; they may differ in
which valid fixpoint they reach.  All three are output-sensitive: the
frontier kernels track a candidate set of dirty nodes, and the
queue/priority schedulers are worklist-driven by construction.

Budget contract
---------------
``max_pushes`` raises :class:`~repro.errors.ConvergenceError` *at a
work-unit boundary*: the frontier schedulers check the budget before
applying a round, the queue/priority schedulers before applying a push.
The raised state therefore always consists of fully-applied pushes --
it still satisfies the invariant and ``sum(reserve) + sum(residue) ==
1`` exactly; only convergence (no-eligible-node) is not reached.

Dangling nodes honour the graph's policy: ``"absorb"`` converts the whole
residue to reserve (the walk dies there), ``"restart"`` returns
``(1 - alpha) * r`` to the source.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ConvergenceError, ParameterError
from repro.push import kernels
from repro.push.kernels import PushStats


def push_thresholds(graph, r_max):
    """Per-node residue threshold implementing the push condition.

    Node ``t`` is eligible when ``residue(t) >= thresholds[t]``.  Dangling
    nodes use ``r_max`` directly (the division by out-degree is undefined).

    Cached per ``(graph snapshot, r_max)`` in the snapshot's
    :class:`~repro.push.kernels.SnapshotPushCache`; the returned array is
    read-only because concurrent queries share it.
    """
    return kernels.get_push_cache(graph).thresholds(r_max)


def init_state(graph, source):
    """Fresh (reserve, residue) vectors with unit residue at the source."""
    reserve = np.zeros(graph.n, dtype=np.float64)
    residue = np.zeros(graph.n, dtype=np.float64)
    residue[source] = 1.0
    return reserve, residue


def single_push(graph, node, reserve, residue, alpha, *, source=None):
    """One unconditional forward push at ``node`` (in place)."""
    r = residue[node]
    if r == 0.0:
        return
    residue[node] = 0.0
    degree = graph.out_degree(node)
    if degree == 0:
        _push_dangling(graph, node, r, reserve, residue, alpha, source)
        return
    reserve[node] += alpha * r
    # unique+counts handles parallel edges: a plain fancy-index += would
    # apply a duplicated target only once, silently losing mass.
    targets, counts = np.unique(graph.out_neighbors(node),
                                return_counts=True)
    residue[targets] += counts * ((1.0 - alpha) * r / degree)


def forward_push_loop(graph, reserve, residue, alpha, r_max, *,
                      can_push=None, source=None, seeds=None,
                      method="frontier", max_pushes=None, trace=None):
    """Push until no eligible node satisfies the push condition.

    Parameters
    ----------
    reserve, residue:
        State vectors updated in place.
    can_push:
        Optional boolean mask; nodes outside it only accumulate residue
        (used by h-HopFWD to freeze the source and the ``(h+1)``-hop layer).
    source:
        Required when the graph uses the ``"restart"`` dangling policy.
    seeds:
        Initial worklist for the queue method, in order (Algorithm 4
        enqueues the ``(h+1)``-layer by decreasing residue).  Ignored by the
        frontier method, which always scans for eligible nodes.
    method:
        ``"frontier"`` (vectorized rounds), ``"queue"`` (FIFO), or
        ``"priority"`` (Gauss-Southwell: always push the node with the
        largest residue-to-threshold ratio -- fewest pushes, most
        per-push overhead).
    max_pushes:
        Safety budget; exceeding it raises :class:`ConvergenceError` at a
        round/push boundary (see the module docstring for the state
        contract).
    trace:
        Optional :class:`repro.obs.QueryTrace`; the run's counters are
        flushed into it once, after the loop terminates (never from
        inside the hot loop).

    Returns :class:`PushStats`.
    """
    _check_common(graph, alpha, r_max, source)
    if method == "frontier":
        stats = kernels.frontier_loop(graph, reserve, residue, alpha, r_max,
                                      can_push=can_push, source=source,
                                      max_pushes=max_pushes)
    elif method == "queue":
        stats = _queue_loop(graph, reserve, residue, alpha, r_max,
                            can_push, source, seeds, max_pushes)
    elif method == "priority":
        stats = _priority_loop(graph, reserve, residue, alpha, r_max,
                               can_push, source, max_pushes)
    else:
        raise ParameterError(f"unknown push method {method!r}")
    if trace is not None:
        trace.add_counters(pushes=stats.pushes, push_rounds=stats.rounds,
                           frontier_peak=stats.max_frontier,
                           sparse_rounds=stats.sparse_rounds,
                           dense_rounds=stats.dense_rounds)
    return stats


def _check_common(graph, alpha, r_max, source):
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if r_max <= 0.0:
        raise ParameterError(f"r_max must be positive, got {r_max}")
    if graph.dangling == "restart" and source is None:
        raise ParameterError(
            "the 'restart' dangling policy requires a source node"
        )


def _push_dangling(graph, node, r, reserve, residue, alpha, source):
    if graph.dangling == "absorb":
        reserve[node] += r
    else:
        reserve[node] += alpha * r
        residue[source] += (1.0 - alpha) * r


def _priority_loop(graph, reserve, residue, alpha, r_max, can_push, source,
                   max_pushes):
    """Gauss-Southwell scheduling: largest residue/threshold ratio first.

    Uses a lazy-deletion heap: every residue increase pushes a fresh
    entry; stale entries are skipped on pop by re-checking the condition.
    """
    import heapq

    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    thresholds = push_thresholds(graph, r_max)
    stats = PushStats()
    restart = graph.dangling == "restart"

    def allowed(v):
        return can_push is None or can_push[v]

    heap = []
    candidates = np.flatnonzero(residue)
    initial = candidates[residue[candidates] >= thresholds[candidates]]
    if can_push is not None:
        initial = initial[can_push[initial]]
    for v in initial:
        heapq.heappush(heap, (-residue[v] / thresholds[v], int(v)))

    while heap:
        _, t = heapq.heappop(heap)
        r = residue[t]
        if r < thresholds[t]:
            continue  # stale entry (already pushed since it was queued)
        if max_pushes is not None and stats.pushes >= max_pushes:
            raise ConvergenceError(
                f"forward push exceeded budget of {max_pushes} pushes"
            )
        stats.pushes += 1
        stats.sparse_rounds += 1
        residue[t] = 0.0
        degree = degrees[t]
        if degree == 0:
            if restart:
                reserve[t] += alpha * r
                residue[source] += (1.0 - alpha) * r
                s = int(source)
                if residue[s] >= thresholds[s] and allowed(s):
                    heapq.heappush(heap,
                                   (-residue[s] / thresholds[s], s))
            else:
                reserve[t] += r
            continue
        reserve[t] += alpha * r
        nbrs = indices[indptr[t]: indptr[t] + degree]
        # unique+counts both scales the share by parallel-edge
        # multiplicity (fancy-index += drops duplicates) and yields one
        # heap entry per neighbour instead of one per parallel edge.
        targets, counts = np.unique(nbrs, return_counts=True)
        residue[targets] += counts * ((1.0 - alpha) * r / degree)
        hot = targets[residue[targets] >= thresholds[targets]]
        if can_push is not None:
            hot = hot[can_push[hot]]
        for u in hot.tolist():
            heapq.heappush(heap, (-residue[u] / thresholds[u], u))
    stats.rounds = 1
    stats.max_frontier = 1 if stats.pushes else 0
    return stats


def _queue_loop(graph, reserve, residue, alpha, r_max, can_push, source,
                seeds, max_pushes):
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    cache = kernels.get_push_cache(graph)
    thresholds = cache.thresholds(r_max)
    stats = PushStats()
    restart = graph.dangling == "restart"
    # The membership marker is leased per call (not shared): it is
    # mutable scratch, and concurrent queries each need their own.
    in_queue = cache.lease_marker()
    queue = deque()

    def allowed(v):
        return can_push is None or can_push[v]

    try:
        if seeds is None:
            candidates = np.flatnonzero(residue)
            seeds = candidates[
                residue[candidates] >= thresholds[candidates]]
        for v in np.asarray(seeds, dtype=np.int64):
            v = int(v)
            if allowed(v) and not in_queue[v]:
                queue.append(v)
                in_queue[v] = True

        while queue:
            t = queue.popleft()
            in_queue[t] = False
            r = residue[t]
            if r < thresholds[t]:
                continue
            if max_pushes is not None and stats.pushes >= max_pushes:
                raise ConvergenceError(
                    f"forward push exceeded budget of {max_pushes} pushes"
                )
            stats.pushes += 1
            stats.sparse_rounds += 1
            residue[t] = 0.0
            degree = degrees[t]
            if degree == 0:
                if restart:
                    reserve[t] += alpha * r
                    residue[source] += (1.0 - alpha) * r
                    s = int(source)
                    if (residue[s] >= thresholds[s] and allowed(s)
                            and not in_queue[s]):
                        queue.append(s)
                        in_queue[s] = True
                else:
                    reserve[t] += r
                continue
            reserve[t] += alpha * r
            nbrs = indices[indptr[t]: indptr[t] + degree]
            # unique+counts both scales the share by parallel-edge
            # multiplicity (fancy-index += drops duplicates) and dedupes
            # the worklist: with raw nbrs a neighbour behind k parallel
            # edges was appended k times because in_queue was only set
            # after the loop.
            targets, counts = np.unique(nbrs, return_counts=True)
            residue[targets] += counts * ((1.0 - alpha) * r / degree)
            hot = targets[(residue[targets] >= thresholds[targets])
                          & ~in_queue[targets]]
            if can_push is not None:
                hot = hot[can_push[hot]]
            for u in hot.tolist():
                queue.append(u)
            in_queue[hot] = True
        stats.rounds = 1
        stats.max_frontier = 1 if stats.pushes else 0
        return stats
    finally:
        # Clear only the entries still marked before returning the
        # buffer to the pool (cheaper than a full wipe, and required
        # when the budget raise leaves marks behind).
        if queue:
            in_queue[np.fromiter(queue, dtype=np.int64)] = False
        cache.release_marker(in_queue)
