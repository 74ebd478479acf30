"""Cumulative power iteration: the TPA-style degraded-accuracy tier.

TPA (Yoon et al., arXiv:1708.02574) observes that truncating the power
expansion of RWR after ``L`` rounds leaves a *known* amount of
probability mass unplaced: the walk mass still "live" after ``L`` steps,
which shrinks geometrically (``(1 - alpha)^L`` on dangling-free graphs).
:func:`cpi` runs exactly that truncated iteration, honoring both
dangling policies, and returns the partial vector *with its computable
error bound*; :class:`repro.baselines.tpa.TPAIndex` runs the same
function and guesses the leftover tail from global PageRank instead.

The bound is elementary: every entry of the exact vector equals the
partial estimate plus some share of the still-live mass that will be
absorbed later, so

    0 <= pi(s, t) - estimate[t] <= leftover      for every t,

where ``leftover`` is the live-mass total after the last round.  The
estimate is therefore a uniform *underestimate* with known worst case --
exactly what the serving tier needs to report a truthful
``accuracy_achieved`` when it degrades a query instead of shedding it
(see :mod:`repro.serving.tiers` and ``docs/scale.md``).

Cost per round is one sweep over the live frontier's out-edges, O(m)
worst case, with no per-node state beyond two dense vectors -- the
cheapest answer shape available on an mmap-backed graph, since it
touches adjacency pages sequentially per frontier.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import SSRWRResult
from repro.errors import ParameterError
from repro.graph.hop import expand_ranges
from repro.obs.trace import NULL_TRACE

#: Default round budget of the degraded tier; ``(1 - 0.2)^8 ~ 0.17`` of
#: the mass is still unplaced, which is the accuracy price of a cheap
#: answer (callers see the exact figure in ``extras["error_bound"]``).
DEFAULT_CPI_ROUNDS = 8

#: Hard ceiling on rounds when iterating to a tolerance.
MAX_CPI_ROUNDS = 256


def cpi_error_bound(alpha, rounds):
    """Upper bound on the leftover mass after ``rounds`` sweeps.

    ``(1 - alpha)^rounds`` -- attained when no walk terminates early.
    The *actual* leftover returned by :func:`cpi` is never larger.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if rounds < 0:
        raise ParameterError(f"rounds must be >= 0, got {rounds}")
    return (1.0 - alpha) ** rounds


def cpi(graph, source, *, alpha=0.2, rounds=None, tol=None,
        max_rounds=MAX_CPI_ROUNDS, trace=NULL_TRACE):
    """Truncated cumulative power iteration with a computable bound.

    Parameters
    ----------
    rounds:
        Fixed round budget.  When ``None``, iterate until the live mass
        drops to ``tol`` (or ``max_rounds``, whichever first).
    tol:
        Target leftover mass when ``rounds`` is ``None``; defaults to
        :data:`DEFAULT_CPI_ROUNDS` worth of decay.
    trace:
        Observability hook (``repro.obs.trace``); the whole solve is one
        ``cpi`` phase.

    Returns
    -------
    SSRWRResult
        ``algorithm="cpi"`` with ``extras`` carrying ``tier="cpi"``,
        ``rounds`` actually run, and ``error_bound`` -- the exact
        leftover mass, a per-node additive error guarantee.  Estimates
        never exceed the true RWR probabilities.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    if rounds is None:
        budget = int(max_rounds)
        if tol is None:
            tol = cpi_error_bound(alpha, DEFAULT_CPI_ROUNDS)
    else:
        if rounds < 0:
            raise ParameterError(f"rounds must be >= 0, got {rounds}")
        budget = int(rounds)
        tol = 0.0 if tol is None else float(tol)
    if budget < 0 or (tol is not None and tol < 0):
        raise ParameterError("rounds and tol must be non-negative")

    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    restart = graph.dangling == "restart"
    n = graph.n

    tic = time.perf_counter()
    trace.begin_phase("cpi")
    pi = np.zeros(n, dtype=np.float64)
    live = np.zeros(n, dtype=np.float64)
    live[source] = 1.0
    leftover = 1.0
    pushes = 0
    rounds_run = 0
    for _ in range(budget):
        if leftover <= tol:
            break
        active = np.flatnonzero(live > 0.0)
        if active.size == 0:
            leftover = 0.0
            break
        mass = live[active]
        deg = degrees[active]
        dangling = deg == 0
        moving_nodes = active[~dangling]
        moving_mass = mass[~dangling]
        pi[moving_nodes] += alpha * moving_mass
        dangling_total = 0.0
        if dangling.any():
            d_nodes = active[dangling]
            d_mass = mass[dangling]
            if restart:
                pi[d_nodes] += alpha * d_mass
                dangling_total = float(d_mass.sum()) * (1.0 - alpha)
            else:
                pi[d_nodes] += d_mass
        live = np.zeros(n, dtype=np.float64)
        if moving_nodes.size:
            counts = degrees[moving_nodes]
            positions = expand_ranges(indptr[moving_nodes], counts)
            targets = indices[positions]
            weights = np.repeat((1.0 - alpha) * moving_mass / counts, counts)
            live += np.bincount(targets, weights=weights, minlength=n)
            pushes += int(counts.sum())
        if dangling_total:
            live[source] += dangling_total
        leftover = float(live.sum())
        rounds_run += 1
    trace.end_phase("cpi")
    elapsed = time.perf_counter() - tic

    return SSRWRResult(
        source=int(source),
        estimates=pi,
        alpha=alpha,
        algorithm="cpi",
        walks_used=0,
        pushes=pushes,
        phase_seconds={"cpi": elapsed},
        extras={
            "tier": "cpi",
            "rounds": rounds_run,
            "error_bound": leftover,
        },
    )
