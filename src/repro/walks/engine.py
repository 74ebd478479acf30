"""Vectorized Random-Walk-with-Restart simulation.

A single RWR walk starts at a node and, at every step, terminates with
probability ``alpha`` or moves to a uniformly random out-neighbour, so
its number of moves is ``Geometric(alpha) - 1``.  The engine draws that
length for every walk of a batch up front, orders the walks longest
first, and then advances the contiguous prefix of walks still moving,
one numpy round per step.  The Python-level loop runs ``max length``
times, each round touches only the walks that move, and no round
compacts a mask or scatters through an index array.

Dangling nodes follow the graph's policy: under ``"absorb"`` a walk at a
dangling node stays there; under ``"restart"`` a move from a dangling
node jumps back to the walk's origin.

All Monte-Carlo components of the library -- MC sampling [9], FORA's and
ResAcc's remedy phases, BiPPR's forward walks, the FORA+ index -- are
built on :func:`walk_endpoints`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ParameterError

#: Hard cap on walk length.  P(length > 1000) < 1e-96 at alpha = 0.2; the
#: cap exists to guarantee termination on adversarial RNG streams.
MAX_WALK_STEPS = 10_000

#: Walks are simulated in batches of at most this many to bound peak
#: memory: each walk costs a few int64/float64 slots, so the default
#: caps the engine's working set at a few hundred MB even when a query
#: needs tens of millions of walks.
DEFAULT_WALK_CHUNK = 4_000_000


def walk_endpoints(graph, starts, alpha, rng, *, source=None,
                   max_steps=MAX_WALK_STEPS):
    """Final node of one walk per entry of ``starts``, in input order.

    Each walk's number of moves is drawn first, by inversion from one
    ``rng.random`` value per walk.  ``source`` is the walk origin the
    ``"restart"`` policy jumps back to; it defaults to the walk's own
    start node.  Raises :class:`ConvergenceError` when a walk would need
    ``max_steps`` or more moves.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1:
        raise ParameterError("starts must be a 1-D array of node ids")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    num_walks = starts.shape[0]
    if num_walks == 0:
        return starts.copy()
    # P(moves >= t) = P(1 - u <= (1 - alpha)^t) = (1 - alpha)^t.
    lengths = np.log1p(-rng.random(num_walks)) / np.log1p(-alpha)
    longest = lengths.max()
    if longest >= max_steps:
        raise ConvergenceError(
            f"{int(np.count_nonzero(lengths >= max_steps))} walks still "
            f"alive after {max_steps} steps"
        )
    longest = int(longest)
    # The smallest integer dtype sends argsort down its radix path.
    lengths = lengths.astype(np.min_scalar_type(longest))
    order = np.argsort(lengths, kind="stable")[::-1]
    # moving[t]: walks with more than t moves, i.e. position[:moving[t]].
    moving = num_walks - np.cumsum(np.bincount(lengths))[:longest]

    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    position = starts[order]
    has_dangling = not degrees.all()
    restart = has_dangling and graph.dangling == "restart"
    if restart:
        origin = (np.full(num_walks, int(source), dtype=np.int64)
                  if source is not None else position.copy())
    for k in moving.tolist():
        current = position[:k]
        deg = degrees[current]
        step = indptr[current]
        step += (rng.random(k) * deg).astype(np.int64)
        if not has_dangling:
            # Any mode but "raise" lets take write through ``out``
            # without buffering; no offset is out of range here.
            indices.take(step, out=current, mode="clip")
            continue
        # A dangling node has no slot of its own (its indptr entry may
        # be m), so clip the gather and overwrite those walks after.
        stay = origin[:k] if restart else current
        nxt = indices.take(step, mode="clip") if indices.size else stay
        position[:k] = np.where(deg == 0, stay, nxt)
    endpoints = np.empty_like(position)
    endpoints[order] = position
    return endpoints


def walk_terminal_mass(graph, starts, alpha, rng, *, weights=None,
                       source=None, max_steps=MAX_WALK_STEPS,
                       chunk_size=DEFAULT_WALK_CHUNK):
    """Simulate one walk per entry of ``starts`` and accumulate endpoints.

    Parameters
    ----------
    starts:
        ``int64`` array, one start node per walk.
    weights:
        Per-walk contribution added to the terminal node's mass
        (default 1 for every walk).
    source:
        Walk origin used by the ``"restart"`` dangling policy; defaults to
        the walk's own start node (per-walk).
    rng:
        A ``numpy.random.Generator``.
    chunk_size:
        Batches larger than this are processed in slices so peak memory
        stays bounded regardless of the walk budget.

    Returns a length-``n`` float array: ``mass[t]`` is the summed weight of
    walks that terminated at ``t``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1:
        raise ParameterError("starts must be a 1-D array of node ids")
    if weights is not None:
        # Convert weights exactly once -- re-running asarray over the
        # full array per chunk would cost O(chunks * total walks).
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != starts.shape:
            raise ParameterError("weights must match starts in shape")
    if chunk_size is not None and starts.shape[0] > chunk_size:
        mass = np.zeros(graph.n, dtype=np.float64)
        for begin in range(0, starts.shape[0], chunk_size):
            end = begin + chunk_size
            mass += walk_terminal_mass(
                graph, starts[begin:end], alpha, rng,
                weights=None if weights is None else weights[begin:end],
                source=source, max_steps=max_steps, chunk_size=None,
            )
        return mass
    endpoints = walk_endpoints(graph, starts, alpha, rng, source=source,
                               max_steps=max_steps)
    mass = np.bincount(endpoints, weights=weights, minlength=graph.n)
    return mass.astype(np.float64, copy=False)


def walks_from_single_source(graph, source, num_walks, alpha, rng,
                             **kwargs):
    """Terminal mass of ``num_walks`` walks all starting at ``source``."""
    starts = np.full(int(num_walks), int(source), dtype=np.int64)
    return walk_terminal_mass(graph, starts, alpha, rng, source=source,
                              **kwargs)


def residue_weighted_walks(graph, residue, total_walks, alpha, rng, *,
                           source=None, estimator="terminal", trace=None):
    """The remedy-phase sampler shared by ResAcc and FORA (Algorithm 2).

    Each node ``v`` with positive residue launches
    ``n_r(v) = ceil(residue[v] * total_walks / r_sum)`` walks, and each of
    those walks deposits ``residue[v] / n_r(v)`` on its terminal node
    (equal to ``a(v) * r_sum / n_r`` in the paper's notation).  The
    returned mass vector is therefore an unbiased estimate of
    ``sum_v residue[v] * pi(v, .)``.

    ``estimator="visits"`` switches to the visit-count estimator
    (:func:`walk_visit_mass`): equally unbiased and empirically
    lower-variance, but the paper's Theorem 3 walk-budget constant is
    proven for the terminal estimator, so the default stays faithful.
    The visits estimator requires the ``"absorb"`` policy.

    ``trace`` is an optional :class:`repro.obs.QueryTrace`; walk totals
    are flushed into it once, after the batch completes.

    The per-node walk counts are expanded into one start array and
    simulated by a single :func:`walk_terminal_mass` (or
    :func:`walk_visit_mass`) call on ``rng``, so the answer is a function
    of the ``rng`` state.

    Returns ``(mass, walks_used)``.
    """
    if estimator not in ("terminal", "visits"):
        raise ParameterError(
            f"estimator must be 'terminal' or 'visits', got {estimator!r}"
        )
    residue = np.asarray(residue, dtype=np.float64)
    positive = np.flatnonzero(residue > 0.0)
    if positive.size == 0 or total_walks <= 0:
        if trace is not None:
            trace.add_counters(walks=0, walk_origins=0)
        return np.zeros(graph.n, dtype=np.float64), 0
    r_pos = residue[positive]
    r_sum = float(r_pos.sum())
    per_node = np.ceil(r_pos * (float(total_walks) / r_sum)).astype(np.int64)
    per_node = np.maximum(per_node, 1)
    per_walk = r_pos / per_node
    walks_used = int(per_node.sum())
    starts = np.repeat(positive, per_node)
    weights = np.repeat(per_walk, per_node)
    if estimator == "visits":
        mass = walk_visit_mass(graph, starts, alpha, rng, weights=weights)
    else:
        mass = walk_terminal_mass(graph, starts, alpha, rng,
                                  weights=weights, source=source)
    if trace is not None:
        trace.add_counters(walks=walks_used,
                           walk_origins=int(positive.size))
    return mass, walks_used


def sample_walk_endpoints(graph, source, num_walks, alpha, rng):
    """Endpoint node of each of ``num_walks`` walks from ``source``."""
    starts = np.full(int(num_walks), int(source), dtype=np.int64)
    return walk_endpoints(graph, starts, alpha, rng)


def walk_visit_mass(graph, starts, alpha, rng, *, weights=None,
                    max_steps=MAX_WALK_STEPS):
    """Visit-count estimator: each *step* of a walk deposits mass.

    Since ``pi(s, t) = alpha * E[visits to t]`` at non-dangling ``t``
    (and ``1 * E[visits]`` at absorbing dangling nodes), crediting every
    visited position -- scaled by ``alpha`` (or 1 at a dangling end) --
    yields a second unbiased estimator of the same vector, with strictly
    lower variance at low-probability nodes than the terminal-only
    estimator: a walk contributes to *every* node on its path instead of
    just its endpoint.

    Returns a length-``n`` mass vector whose expectation (per unit
    weight) is ``pi(start, .)``.  Only the ``"absorb"`` policy is
    supported.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1:
        raise ParameterError("starts must be a 1-D array of node ids")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if graph.dangling != "absorb":
        raise ParameterError(
            "walk_visit_mass supports the 'absorb' policy only"
        )
    num_walks = starts.shape[0]
    if weights is None:
        weights = np.ones(num_walks, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != starts.shape:
            raise ParameterError("weights must match starts in shape")
    mass = np.zeros(graph.n, dtype=np.float64)
    if num_walks == 0:
        return mass
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    position = starts.copy()
    alive = np.arange(num_walks, dtype=np.int64)
    for _ in range(max_steps):
        if alive.size == 0:
            return mass
        current = position[alive]
        deg = degrees[current]
        dangling = deg == 0
        # Every visit to a non-dangling node is worth alpha; reaching a
        # dangling node is worth the full remaining weight.
        visit_value = np.where(dangling, 1.0, alpha) * weights[alive]
        mass += np.bincount(current, weights=visit_value, minlength=graph.n)
        stop = rng.random(alive.size) < alpha
        finished = stop | dangling
        moving = alive[~finished]
        if moving.size:
            cur = position[moving]
            offsets = (rng.random(moving.size)
                       * degrees[cur]).astype(np.int64)
            position[moving] = indices[indptr[cur] + offsets]
        alive = moving
    raise ConvergenceError(
        f"{alive.size} walks still alive after {max_steps} steps"
    )
