"""Personalized PageRank with an arbitrary preference distribution.

Section II-A of the paper notes that SSRWR is the special case of PPR
whose preference distribution is a point mass at the source.  This module
generalizes the library to any preference vector: a walk restarts into
``preference`` instead of a single node, and
``ppr(t) = sum_v preference[v] * pi(v, t)`` by linearity.

The guarantee-carrying solver (:func:`personalized_pagerank`) is the
FORA-style pipeline -- forward push seeded with ``residue = preference``
followed by the remedy sampler -- which works unchanged because the push
invariant holds for *any* initial residue distribution.  (h-HopFWD's
closed form is specific to a single-source start and does not apply.)
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.params import AccuracyParams, fora_r_max
from repro.core.remedy import remedy
from repro.core.result import SSRWRResult
from repro.errors import ParameterError
from repro.graph.hop import expand_ranges
from repro.push.forward import forward_push_loop


def normalize_preference(graph, preference):
    """Validate a preference input and return it as a distribution.

    Accepts a dense vector, a ``{node: weight}`` mapping, or an iterable
    of nodes (uniform over them).  Weights must be non-negative with a
    positive total; the result sums to 1.
    """
    if isinstance(preference, dict):
        vector = np.zeros(graph.n, dtype=np.float64)
        for node, weight in preference.items():
            if not 0 <= int(node) < graph.n:
                raise ParameterError(f"preference node {node} out of range")
            vector[int(node)] = float(weight)
    else:
        arr = np.asarray(preference)
        if arr.ndim == 1 and arr.shape[0] == graph.n and \
                arr.dtype.kind == "f":
            vector = arr.astype(np.float64).copy()
        else:
            nodes = arr.astype(np.int64).ravel()
            if nodes.size and (nodes.min() < 0 or nodes.max() >= graph.n):
                raise ParameterError("preference node out of range")
            # bincount so repeated nodes accumulate weight.
            vector = np.bincount(nodes, minlength=graph.n).astype(
                np.float64)
    if np.any(vector < 0):
        raise ParameterError("preference weights must be non-negative")
    total = float(vector.sum())
    if total <= 0:
        raise ParameterError("preference must have positive total weight")
    return vector / total


def personalized_pagerank(graph, preference, *, alpha=0.2, accuracy=None,
                          r_max=None, rng=None, seed=0, walk_scale=1.0,
                          method="frontier"):
    """Approximate PPR under the Definition-1 contract.

    Parameters mirror :func:`repro.baselines.fora`; ``preference`` is
    anything :func:`normalize_preference` accepts.  Returns an
    :class:`SSRWRResult` whose ``source`` is the highest-weight
    preference node (for display only).
    """
    _require_absorb(graph)
    vector = normalize_preference(graph, preference)
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    rng = rng if rng is not None else np.random.default_rng(seed)
    if r_max is None:
        r_max = fora_r_max(graph, accuracy, alpha)
    anchor = int(np.argmax(vector))

    reserve = np.zeros(graph.n, dtype=np.float64)
    residue = vector.copy()
    tic = time.perf_counter()
    stats = forward_push_loop(graph, reserve, residue, alpha, r_max,
                              source=anchor, method=method)
    t_push = time.perf_counter() - tic

    tic = time.perf_counter()
    outcome = remedy(graph, residue, alpha, accuracy, rng, source=anchor,
                     walk_scale=walk_scale)
    t_walks = time.perf_counter() - tic

    return SSRWRResult(
        source=anchor, estimates=reserve + outcome.mass, alpha=alpha,
        algorithm="ppr", walks_used=outcome.walks_used,
        pushes=stats.pushes,
        phase_seconds={"push": t_push, "walks": t_walks},
        extras={"r_max": r_max, "r_sum": outcome.r_sum,
                "support": int(np.count_nonzero(vector))},
    )


def exact_ppr(graph, preference, *, alpha=0.2, tol=1e-12, max_iters=4000):
    """Exact PPR by the residual iteration (ground truth for tests)."""
    _require_absorb(graph)
    vector = normalize_preference(graph, preference)
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    pi = np.zeros(graph.n, dtype=np.float64)
    live = vector.copy()
    for _ in range(max_iters):
        if live.sum() <= tol:
            return pi
        active = np.flatnonzero(live > 0.0)
        mass = live[active]
        dangling = degrees[active] == 0
        moving_nodes = active[~dangling]
        moving_mass = mass[~dangling]
        pi[moving_nodes] += alpha * moving_mass
        if dangling.any():
            # Absorbing dangling nodes keep all of their mass.
            pi[active[dangling]] += mass[dangling]
        live = np.zeros(graph.n, dtype=np.float64)
        if moving_nodes.size:
            counts = degrees[moving_nodes]
            positions = expand_ranges(indptr[moving_nodes], counts)
            targets = indices[positions]
            weights = np.repeat((1.0 - alpha) * moving_mass / counts,
                                counts)
            live += np.bincount(targets, weights=weights, minlength=graph.n)
    from repro.errors import ConvergenceError

    raise ConvergenceError(
        f"exact PPR did not reach tol={tol} in {max_iters} rounds"
    )


def _require_absorb(graph):
    if graph.dangling != "absorb":
        raise ParameterError(
            "preference-vector PPR supports the 'absorb' dangling policy "
            "only: under 'restart' a multi-node preference makes the "
            "bounce target ambiguous"
        )
