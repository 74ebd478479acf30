"""A query-service facade: caching, updates, and service statistics.

The paper motivates SSRWR with online services (recommendation, friend
suggestion) where queries repeat for hot sources and the graph changes
continuously.  :class:`QueryEngine` packages the library for that usage:

* answers are cached per source (LRU) and served in microseconds on a
  hit;
* any graph mutation invalidates the cache -- correct by construction,
  and cheap because the solver is index-free (the "index" that would
  need maintenance simply does not exist);
* hit/miss/update counters expose the service's behaviour.

The policy (cache + invalidate on write) has one implementation,
:class:`repro.serving.ConcurrentQueryEngine`; :class:`QueryEngine` is
that engine with a single worker, the historical constructor, and the
``(graph, source)`` custom-solver signature.
"""

from __future__ import annotations

from repro.serving.engine import ConcurrentQueryEngine, ServiceStats

__all__ = ["QueryEngine", "ServiceStats"]


def _ignore_accuracy_and_seed(custom):
    """Adapt a ``(graph, source)`` solver to the engine's
    ``(graph, source, accuracy, seed)`` signature."""
    def solve(graph, source, accuracy, seed):
        return custom(graph, source)

    return solve


class QueryEngine(ConcurrentQueryEngine):
    """Cached, update-aware SSRWR query service (one worker).

    Parameters
    ----------
    graph:
        Initial graph (copied into an internal builder; later mutations
        do not affect the caller's object).
    solver:
        Either a solver name (``"auto"`` / ``"resacc"`` /
        ``"powerpush"``, resolved like ``REPRO_PUSH_BACKEND`` via the
        ``REPRO_SOLVER`` environment variable when omitted; ``auto``
        means ResAcc at the paper's accuracy) or a custom callable
        ``(graph, source) -> SSRWRResult``.
    cache_size:
        Maximum number of per-source results kept (LRU eviction).
    trace:
        When true, every solver miss runs with a fresh
        :class:`repro.obs.QueryTrace`; the result carries it on
        ``.trace`` and the latest summary is :attr:`last_trace`.  Only
        the latest trace is kept.  Cache hits return the original
        traced result unchanged.
    walk_workers:
        Process-parallel remedy phase (``> 1`` shards each query's walk
        batch across that many worker processes; see
        ``docs/parallel_walks.md``).  The engine keeps one
        :class:`repro.walks.parallel.ParallelWalkExecutor` alive per
        graph snapshot -- mutations retire it together with the cache --
        so pool startup is paid once, not per query.  Call :meth:`close`
        (or use the engine as a context manager) to release the pool.
    """

    def __init__(self, graph, *, solver=None, accuracy=None,
                 cache_size=256, seed=0, trace=False, walk_workers=1):
        if solver is not None and not isinstance(solver, str):
            solver = _ignore_accuracy_and_seed(solver)
        super().__init__(graph, solver=solver, accuracy=accuracy,
                         cache_size=cache_size, seed=seed, max_workers=1,
                         trace=trace, walk_workers=walk_workers,
                         trace_capacity=1)

    @property
    def last_trace(self):
        """Summary dict of the most recent traced solver run, or ``None``."""
        return self.stats.extras.get("last_trace")

    def recommend(self, source, k, *, exclude_neighbors=True):
        """Top-k nodes excluding the source (and optionally its
        out-neighbours) -- the friend-suggestion pattern."""
        result = self.query(source)
        banned = {source}
        if exclude_neighbors:
            banned.update(int(v) for v in
                          self.graph.out_neighbors(source))
        nodes, values = result.top_k(k + len(banned))
        picks = [(int(n), float(v)) for n, v in zip(nodes, values)
                 if int(n) not in banned]
        return picks[:k]

    def __repr__(self):
        graph = self.graph
        return (f"QueryEngine(n={graph.n}, m={graph.m}, "
                f"cached={len(self._cache)}, "
                f"hit_rate={self.stats.hit_rate:.2f})")
