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
  mass ``r_sum`` drops to ``tol = eps * delta``.  :func:`push_state`
  runs both stages and returns the in-place :class:`PushState`, which a
  caller can keep draining to a smaller ``tol`` (the top-k envelope of
  :mod:`repro.core.topk_solver` does).  Every power stage in
  :mod:`repro.core` -- solo, blocked, the top-k envelope and the CPI
  tier of :mod:`repro.core.cpi` -- drains through :func:`_drain_states`,
  the only caller of ``power_block_loop``.

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
them with one :func:`_drain_states` call -- one
traversal of ``A^T`` per sweep instead of ``B``.  Per-source residual
thresholds let early converging sources drop out of the block.  The
blocked arithmetic is bitwise independent of the block width, so
``powerpush_batch`` is **byte-identical** to a :func:`powerpush` loop
(the test suite asserts it; the bench gates it at 1e-12 like PR 4).

Solver selection: the ``REPRO_SOLVER`` environment variable (or an explicit ``solver=`` kwarg on the engines)
picks ``auto`` / ``resacc`` / ``powerpush`` from the registry in
:mod:`repro.core.solvers`, with ``auto`` resolving to ``resacc`` -- the
paper's algorithm stays the default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.params import AccuracyParams, ResAccParams
from repro.core.result import SSRWRResult
from repro.errors import ConvergenceError, ParameterError
from repro.obs.trace import NULL_TRACE
from repro.push.forward import PushStats, init_state
from repro.push.kernels import (
    MATVEC_EDGE_DIV,
    MAX_POWER_SWEEPS,
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
    ``False`` at a local fixpoint under ``r_max``.  ``reserve`` and
    ``residue`` must be a fresh :func:`init_state` pair, so the first
    round's candidates are the source alone, with no scan of the
    residue for its one nonzero entry.
    """
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    n = graph.n
    thresholds = cache.thresholds(r_max)
    spread_scale = 1.0 - alpha
    restart = graph.dangling == "restart"
    sparse_cut = max(n // SPARSE_NODE_DIV, 64)
    matvec_cut = max(int(indptr[-1]) // MATVEC_EDGE_DIV, sparse_cut)
    cand = np.asarray([source], dtype=np.int64)
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


@dataclass
class PushState:
    """One source's solver state, refined in place.

    The push invariant (Eq. 2) ``pi(s, t) = reserve[t] + sum_v
    residue[v] * pi(v, t)`` holds after every step, so every node's
    score lies in ``[reserve[t], reserve[t] + r_sum]``; :meth:`drain`
    shrinks that envelope without redoing earlier work.
    """

    graph: object
    source: int
    alpha: float
    reserve: np.ndarray
    residue: np.ndarray
    cache: object
    stats: PushStats = field(default_factory=PushStats)
    r_sum: float = 1.0
    sweeps: int = 0
    switched: bool = False

    def drain(self, tol, trace, phase="power"):
        """Power sweeps until ``r_sum <= tol``, as one trace phase.

        Returns the seconds spent.
        """
        trace.begin_phase(phase, self.residue)
        tic = time.perf_counter()
        _drain_states([self], tol)
        seconds = time.perf_counter() - tic
        trace.end_phase(self.residue)
        return seconds


def _drain_states(states, tol, max_sweeps=None):
    """The one power stage: sweep every state's residue as one block.

    Runs :func:`~repro.push.kernels.power_block_loop` on the states'
    vectors (which must share a graph, ``alpha`` and cache) and records
    each state's ``r_sum``, ``sweeps`` and sweep counters -- a sweep
    counts as one dense round of ``n`` pushes.  Without ``max_sweeps``
    this is PowerPush's stage: a state still above ``tol`` after
    :data:`MAX_POWER_SWEEPS` raises :class:`ConvergenceError`.  With it
    the budget is a cap, and a capped state keeps its ``r_sum`` as the
    bound on what is left (the CPI tier of :mod:`repro.core.cpi`).
    """
    first = states[0]
    budget = MAX_POWER_SWEEPS if max_sweeps is None else max_sweeps
    r_sums, sweeps = power_block_loop(
        first.graph, [s.reserve for s in states],
        [s.residue for s in states], first.alpha, tol,
        np.asarray([s.source for s in states], dtype=np.int64),
        cache=first.cache, max_sweeps=budget,
    )
    n = first.graph.n
    for state, r_sum, n_sweeps in zip(states, r_sums.tolist(),
                                      sweeps.tolist()):
        state.r_sum = r_sum
        state.sweeps += n_sweeps
        state.stats.rounds += n_sweeps
        state.stats.dense_rounds += n_sweeps
        state.stats.pushes += n_sweeps * n
    if max_sweeps is None and (r_sums > tol).any():
        raise ConvergenceError(f"power sweeps exceeded budget of {budget}")


def _local_stage(graph, source, params, cache, trace=NULL_TRACE):
    """A fresh :class:`PushState` through PowerPush's local rounds.

    ``init_state`` plus :func:`_local_rounds` as one ``localpush``
    trace phase; returns ``(state, seconds)``.
    """
    state = PushState(graph, int(source), params.alpha,
                      *init_state(graph, source), cache)
    trace.begin_phase("localpush", state.residue)
    tic = time.perf_counter()
    state.switched = _local_rounds(
        graph, state.source, state.reserve, state.residue, params.alpha,
        params.bound_r_max_f(graph), stats=state.stats, cache=cache,
    )
    seconds = time.perf_counter() - tic
    trace.end_phase(state.residue)
    return state, seconds


def push_state(graph, source, params, tol, trace):
    """PowerPush's local stage, then its power stage down to ``tol``.

    Returns ``(state, phase_seconds)``: the :class:`PushState` left at
    ``r_sum <= tol`` and the ``localpush`` / ``power`` wall times.
    """
    state, t_local = _local_stage(graph, source, params,
                                  get_push_cache(graph), trace)
    t_power = state.drain(tol, trace)
    return state, {"localpush": t_local, "power": t_power}


def _make_result(state, params, tol, seconds, trace):
    return SSRWRResult(
        source=state.source,
        estimates=state.reserve,
        alpha=params.alpha,
        algorithm="powerpush",
        walks_used=0,
        pushes=state.stats.pushes,
        phase_seconds=seconds,
        extras={
            "r_sum": float(state.r_sum),
            "sweeps": int(state.sweeps),
            "tol": float(tol),
            "switched": bool(state.switched),
            "local_rounds": state.stats.rounds - int(state.sweeps),
        },
        trace=trace,
    )


def powerpush(graph, source, *, params=None, accuracy=None, rng=None,
              seed=0, walk_scale=1.0, estimator="terminal", trace=None):
    """Answer an SSRWR query with the unified local/global solver.

    Accepts the :func:`~repro.core.resacc.resacc` signature so the two
    are drop-in interchangeable behind the engines; the randomness and
    walk arguments (``rng`` / ``seed`` / ``walk_scale`` / ``estimator``)
    are ignored -- PowerPush is deterministic and uses zero walks.
    ``params`` supplies ``alpha`` and the local-stage threshold
    ``r_max_f``; ``accuracy`` sets the stopping mass ``eps * delta``.

    Returns an :class:`SSRWRResult` with ``algorithm="powerpush"`` and
    a ``localpush`` / ``power`` phase breakdown.
    """
    del rng, seed, walk_scale, estimator
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    params = params or ResAccParams()
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    tol = _power_tol(accuracy)
    caller_trace = trace
    trace = trace if trace is not None else NULL_TRACE
    trace.note(
        algorithm="powerpush", source=int(source), n=graph.n, m=graph.m,
        alpha=params.alpha, r_max_f=params.bound_r_max_f(graph),
        eps=accuracy.eps, delta=accuracy.delta, p_f=accuracy.p_f, tol=tol,
    )
    state, seconds = push_state(graph, source, params, tol, trace)
    return _make_result(state, params, tol, seconds, caller_trace)


def powerpush_batch(graph, sources, *, params=None, accuracy=None,
                    trace=None):
    """Solve ``B`` sources as one blocked sweep; byte-identical results.

    Runs the per-source local stage exactly as :func:`powerpush` does,
    then drains all residuals together through one
    :func:`_drain_states` call -- the cold
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
    states, local_secs = zip(*(_local_stage(graph, s, params, cache)
                               for s in sources))
    trace.end_phase()

    trace.begin_phase("power")
    tic = time.perf_counter()
    _drain_states(states, tol)
    power_share = (time.perf_counter() - tic) / len(sources)
    trace.end_phase()

    return [
        _make_result(state, params, tol,
                     {"localpush": t_local, "power": power_share}, None)
        for state, t_local in zip(states, local_secs)
    ]
