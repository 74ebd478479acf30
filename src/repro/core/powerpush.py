"""PowerPush: the unified local/global solver (third solver backend).

"Unifying the Global and Local Approaches" (Wu & Wei, arXiv:2101.03652)
observes that forward push and power iteration are the same Jacobi
update applied to different frontiers: push wins while the touched set
is a sparse neighbourhood of the source, power iteration wins once the
residual covers the graph.  This module implements that unification on
top of the PR 4 kernel machinery:

* **Local stage.**  Output-sensitive forward-push rounds (the sparse /
  scan regimes of :mod:`repro.push.kernels`, same ``SPARSE_NODE_DIV`` /
  ``MATVEC_EDGE_DIV`` cuts, same per-snapshot threshold cache).  Each
  round re-classifies itself by frontier edge count; the moment a round
  would enter the matvec regime the solver switches -- one way -- to
  the global stage (the residual's support never re-sparsifies once it
  covers the graph, so a per-round check degenerates to one switch).
* **Global stage.**  Full-frontier power sweeps over the cached
  transpose (``residue += A^T @ share``) via
  :func:`repro.push.kernels.power_block_loop`, run until the residue
  mass ``r_sum`` drops to ``tol = eps * delta``.

**Accuracy.**  The push invariant gives ``pi(s, t) = reserve[t] +
sum_v residue[v] * pi(v, t)`` with non-negative residues, so the
reserve vector underestimates ``pi`` by at most ``r_sum`` at every
node.  Stopping at ``r_sum <= eps * delta`` therefore bounds the error
on any node with ``pi(s, t) > delta`` by ``eps * delta < eps *
pi(s, t)`` -- Definition 1 holds *deterministically*, with zero random
walks (``p_f`` is irrelevant; the guarantee is worst-case, not
probabilistic).

**Blocked multi-source batching.**  Because global sweeps touch every
edge regardless of the source, ``B`` sources can share one sweep:
:func:`powerpush_batch` runs the (cheap, source-local) local stage per
source, stacks the ``B`` residuals into an ``(n, B)`` block and drains
them with one :func:`~repro.push.kernels.power_block_loop` -- one
traversal of ``A^T`` per sweep instead of ``B``.  Per-source residual
thresholds let early converging sources drop out of the block.  The
blocked arithmetic is bitwise independent of the block width, so
``powerpush_batch`` is **byte-identical** to a :func:`powerpush` loop
(the test suite asserts it; the bench gates it at 1e-12 like PR 4).

Solver selection mirrors ``REPRO_PUSH_BACKEND``: the ``REPRO_SOLVER``
environment variable (or an explicit ``solver=`` kwarg on the engines)
picks ``auto`` / ``resacc`` / ``powerpush`` from the registry in
:mod:`repro.core.solvers`, with ``auto`` resolving to ``resacc`` -- the
paper's algorithm stays the default.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.params import AccuracyParams, ResAccParams
from repro.core.result import SSRWRResult
# Solver selection lives in the registry; re-exported for old imports.
from repro.core.solvers import (  # noqa: F401
    SOLVER_ENV,
    SOLVERS,
    get_solver,
    resolve_solver,
)
from repro.errors import ParameterError
from repro.obs.trace import NULL_TRACE
from repro.push.forward import PushStats, init_state
from repro.push.kernels import (
    MATVEC_EDGE_DIV,
    SPARSE_NODE_DIV,
    _frontier_positions,
    _sort_dedupe,
    get_push_cache,
    power_block_loop,
)


def _power_tol(accuracy):
    """The deterministic Definition-1 stopping mass ``eps * delta``."""
    return float(accuracy.eps) * float(accuracy.delta)


def _local_rounds(graph, source, reserve, residue, alpha, r_max, *,
                  stats, cache):
    """Forward-push rounds while the frontier stays below the matvec cut.

    Runs the sparse / scan regimes of the frontier kernel (identical
    round semantics: all eligible nodes push simultaneously) and
    returns ``True`` the moment a round classifies as matvec-dense --
    the three-regime switch handing off to global sweeps -- or
    ``False`` at a local fixpoint under ``r_max``.
    """
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    n = graph.n
    thresholds = cache.thresholds(r_max)
    spread_scale = 1.0 - alpha
    restart = graph.dangling == "restart"
    sparse_cut = max(n // SPARSE_NODE_DIV, 64)
    matvec_cut = max(int(indptr[-1]) // MATVEC_EDGE_DIV, sparse_cut)
    cand = np.flatnonzero(residue)
    while True:
        if cand is None:
            active = np.flatnonzero(residue >= thresholds)
        elif cand.size:
            active = cand[residue[cand] >= thresholds[cand]]
        else:
            active = cand
        if active.size == 0:
            return False
        counts = degrees[active]
        if int(counts.sum()) >= matvec_cut:
            return True  # density switch: hand off to global sweeps
        stats.rounds += 1
        stats.pushes += int(active.size)
        if active.size > stats.max_frontier:
            stats.max_frontier = int(active.size)
        pushed = residue[active]
        residue[active] = 0.0
        dangling = counts == 0
        dang_nodes = None
        if dangling.any():
            spread_nodes = active[~dangling]
            spread_mass = pushed[~dangling]
            dang_nodes = active[dangling]
            dang_mass = pushed[dangling]
            reserve[spread_nodes] += alpha * spread_mass
            if restart:
                reserve[dang_nodes] += alpha * dang_mass
                residue[source] += spread_scale * float(dang_mass.sum())
            else:
                reserve[dang_nodes] += dang_mass
            sp_counts = counts[~dangling]
        else:
            spread_nodes = active
            spread_mass = pushed
            reserve[spread_nodes] += alpha * spread_mass
            sp_counts = counts
        total = int(sp_counts.sum()) if spread_nodes.size else 0
        if total == 0:
            stats.sparse_rounds += 1
            if restart and dang_nodes is not None:
                cand = np.asarray([source], dtype=np.int64)
            else:
                cand = np.empty(0, dtype=np.int64)
            continue
        positions = _frontier_positions(indptr, spread_nodes,
                                        sp_counts, total)
        targets = indices[positions]
        weights = np.repeat(spread_scale * spread_mass / sp_counts,
                            sp_counts)
        np.add.at(residue, targets, weights)
        if total >= sparse_cut:
            stats.dense_rounds += 1
            cand = None
            continue
        stats.sparse_rounds += 1
        uniq = _sort_dedupe(targets)
        cand = uniq
        if restart and dang_nodes is not None:
            pos = int(np.searchsorted(uniq, source))
            if pos >= uniq.size or uniq[pos] != source:
                cand = np.append(cand, source)


def _make_result(source, reserve, params, stats, r_sum, n_sweeps,
                 switched, tol, seconds, trace):
    return SSRWRResult(
        source=int(source),
        estimates=reserve,
        alpha=params.alpha,
        algorithm="powerpush",
        walks_used=0,
        pushes=stats.pushes,
        phase_seconds=seconds,
        extras={
            "r_sum": float(r_sum),
            "sweeps": int(n_sweeps),
            "tol": float(tol),
            "switched": bool(switched),
            "local_rounds": stats.rounds - int(n_sweeps),
        },
        trace=trace,
    )


def powerpush(graph, source, *, params=None, accuracy=None, rng=None,
              seed=0, walk_scale=1.0, estimator="terminal", trace=None,
              walk_workers=1, walk_executor=None):
    """Answer an SSRWR query with the unified local/global solver.

    Accepts the :func:`~repro.core.resacc.resacc` signature so the two
    are drop-in interchangeable behind the engines; the randomness and
    walk arguments (``rng`` / ``seed`` / ``walk_scale`` / ``estimator``
    / ``walk_workers`` / ``walk_executor``) are ignored -- PowerPush is
    deterministic and uses zero walks.  ``params`` supplies ``alpha``
    and the local-stage threshold ``r_max_f``; ``accuracy`` sets the
    stopping mass ``eps * delta``.

    Returns an :class:`SSRWRResult` with ``algorithm="powerpush"`` and
    a ``localpush`` / ``power`` phase breakdown.
    """
    del rng, seed, walk_scale, estimator, walk_workers, walk_executor
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    params = params or ResAccParams()
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    tol = _power_tol(accuracy)
    r_max_f = params.bound_r_max_f(graph)
    caller_trace = trace
    trace = trace if trace is not None else NULL_TRACE
    trace.note(
        algorithm="powerpush", source=int(source), n=graph.n, m=graph.m,
        alpha=params.alpha, r_max_f=r_max_f, eps=accuracy.eps,
        delta=accuracy.delta, p_f=accuracy.p_f, tol=tol,
    )
    cache = get_push_cache(graph)
    stats = PushStats()
    reserve, residue = init_state(graph, source)

    trace.begin_phase("localpush", residue)
    tic = time.perf_counter()
    switched = _local_rounds(graph, int(source), reserve, residue,
                             params.alpha, r_max_f, stats=stats,
                             cache=cache)
    t_local = time.perf_counter() - tic
    trace.end_phase(residue)

    trace.begin_phase("power", residue)
    tic = time.perf_counter()
    r_sums, sweeps = power_block_loop(
        graph, [reserve], [residue], params.alpha, tol,
        np.asarray([int(source)], dtype=np.int64), cache=cache,
    )
    t_power = time.perf_counter() - tic
    trace.end_phase(residue)
    n_sweeps = int(sweeps[0])
    stats.rounds += n_sweeps
    stats.dense_rounds += n_sweeps
    stats.pushes += n_sweeps * graph.n

    return _make_result(
        source, reserve, params, stats, r_sums[0], n_sweeps,
        switched, tol,
        {"localpush": t_local, "power": t_power},
        caller_trace,
    )


def powerpush_batch(graph, sources, *, params=None, accuracy=None,
                    trace=None):
    """Solve ``B`` sources as one blocked sweep; byte-identical results.

    Runs the per-source local stage exactly as :func:`powerpush` does,
    then drains all residuals together through one
    :func:`~repro.push.kernels.power_block_loop` -- the cold
    ``query_batch`` path of the serving engines and
    :func:`repro.core.multisource.msrwr` route here when the engine's
    solver resolves to ``powerpush``.

    ``trace`` (optionally a deadline-checking wrapper) observes the
    batch-level ``localpush`` / ``power`` phases; per-source results
    carry no trace.  Returns one :class:`SSRWRResult` per source, in
    input order, each byte-identical to a solo :func:`powerpush` call.
    """
    sources = [int(s) for s in sources]
    if not sources:
        raise ParameterError("powerpush_batch needs at least one source")
    for s in sources:
        if not 0 <= s < graph.n:
            raise ParameterError(f"source {s} out of range for n={graph.n}")
    params = params or ResAccParams()
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    tol = _power_tol(accuracy)
    r_max_f = params.bound_r_max_f(graph)
    trace = trace if trace is not None else NULL_TRACE
    trace.note(
        algorithm="powerpush-batch", batch=len(sources), n=graph.n,
        m=graph.m, alpha=params.alpha, r_max_f=r_max_f,
        eps=accuracy.eps, delta=accuracy.delta, tol=tol,
    )
    cache = get_push_cache(graph)

    trace.begin_phase("localpush")
    reserves, residues, stats_list, switches, local_secs = [], [], [], [], []
    for s in sources:
        stats = PushStats()
        reserve, residue = init_state(graph, s)
        t0 = time.perf_counter()
        switched = _local_rounds(graph, s, reserve, residue, params.alpha,
                                 r_max_f, stats=stats, cache=cache)
        local_secs.append(time.perf_counter() - t0)
        reserves.append(reserve)
        residues.append(residue)
        stats_list.append(stats)
        switches.append(switched)
    trace.end_phase()

    trace.begin_phase("power")
    tic = time.perf_counter()
    r_sums, sweeps = power_block_loop(
        graph, reserves, residues, params.alpha, tol,
        np.asarray(sources, dtype=np.int64), cache=cache,
    )
    t_power = time.perf_counter() - tic
    trace.end_phase()

    results = []
    power_share = t_power / len(sources)
    for i, s in enumerate(sources):
        stats = stats_list[i]
        n_sweeps = int(sweeps[i])
        stats.rounds += n_sweeps
        stats.dense_rounds += n_sweeps
        stats.pushes += n_sweeps * graph.n
        results.append(_make_result(
            s, reserves[i], params, stats, r_sums[i], n_sweeps,
            switches[i], tol,
            {"localpush": local_secs[i], "power": power_share},
            None,
        ))
    return results
