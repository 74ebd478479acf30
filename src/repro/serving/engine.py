"""Concurrent batched SSRWR query serving.

:class:`ConcurrentQueryEngine` is the one implementation of the serving
policy -- cache answers, invalidate them on writes -- executed behind a
``ThreadPoolExecutor`` so a batch of sources fans out across workers
(:class:`repro.service.QueryEngine` is this engine with one worker).
Three mechanisms make that safe:

* a :class:`repro.serving.cache.SingleFlightCache` -- concurrent misses
  on one ``(source, accuracy)`` key compute once, everyone else shares
  the owner's result;
* an :class:`repro.serving.epoch.EpochGate` -- mutations quiesce
  in-flight queries, bump the graph epoch and invalidate the cache
  atomically, so a query never observes a half-applied update and a
  post-mutation query never hits a pre-mutation cache entry;
* per-source seeding -- the solver derives its RNG seed from the source
  id alone (``seed + source``), so the estimate vector for a source is a
  pure function of ``(graph, source, accuracy, seed)`` and batched
  execution is byte-identical to a sequential loop regardless of thread
  scheduling.

The determinism contract is load-bearing: ``tests/test_serving_oracle.py``
asserts every engine path returns the bytes of the bare registry solve
(:mod:`repro.core.solvers`), which is what lets the stress tests reason
about correctness under races.

With ``incremental=True`` single-edge mutations stop being catastrophic:
instead of dropping the whole cache, the engine computes a per-entry
offset bound (:mod:`repro.serving.retention`) from the score mass at the
changed edge's endpoints, keeps every cached answer whose guaranteed
error still satisfies its accuracy contract, and repairs the evicted
sources on the worker pool in the background rather than on the read
path.  Cache misses are solved at ``solve_margin * eps`` so fresh
entries carry slack to absorb future edits; the cache key and the
contract stay at the caller's requested accuracy.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core import solvers
from repro.core.params import AccuracyParams
from repro.errors import (
    DeadlineExceededError,
    GraphFormatError,
    ParameterError,
)
from repro.graph import dynamic
from repro.graph.build import from_edges
from repro.graph.mmap import mmap_path_of
from repro.obs.trace import DeadlineTrace, QueryTrace

#: Thread-name prefix for pool workers; traces are tagged with these
#: names, which is how per-worker aggregation groups them.
WORKER_NAME_PREFIX = "ssrwr-worker"


def run_traced(call, graph, *, trace_enabled, epoch, deadline, **meta):
    """Run one serving solve ``call(graph, trace=...)``.

    Returns ``(value, trace)``: ``trace`` is a fresh :class:`QueryTrace`
    tagged with ``epoch`` and ``meta`` when ``trace_enabled``, else None.
    With a ``deadline`` (absolute ``time.monotonic()``) the solver sees
    a :class:`DeadlineTrace` proxy that checks the clock at phase
    boundaries and raises :class:`DeadlineExceededError`, freeing the
    worker; estimates are byte-identical when the run finishes in time.
    Cached values carry the real trace (or None), never the one-shot
    proxy -- whoever attached it: a custom solver honouring the deadline
    contract may attach its own -- so it is stripped from ``value``, or
    from each item when ``value`` is a list (a blocked solve).
    """
    inner = QueryTrace(epoch=epoch, **meta) if trace_enabled else None
    trace = inner if deadline is None else DeadlineTrace(deadline, inner)
    value = call(graph, trace=trace)
    for item in value if isinstance(value, list) else (value,):
        attached = getattr(item, "trace", None)
        if isinstance(attached, DeadlineTrace):
            item.trace = attached.inner or None
    return value, inner


@dataclass
class ServiceStats:
    """Counters exposed by every serving engine.

    ``solver_calls`` counts actual solver invocations -- with
    single-flight deduplication it can be smaller than ``cache_misses``
    would suggest; ``coalesced`` counts queries that piggybacked on
    another thread's in-flight computation (neither a hit nor a miss);
    ``deadline_exceeded`` counts queries cancelled cooperatively because
    their deadline expired (see ``docs/server.md``);
    ``worker_restarts`` counts solver-pool respawns after a worker
    process crashed (only the multi-process engine in
    :mod:`repro.serving.multiproc` can increment it).
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced: int = 0
    updates: int = 0
    invalidations: int = 0
    solver_calls: int = 0
    solver_seconds: float = 0.0
    deadline_exceeded: int = 0
    worker_restarts: int = 0
    #: top-k queries answered (cache hits included), and the computed
    #: envelope answers whose set is not certified (see docs/topk.md).
    topk_queries: int = 0
    topk_unseparated: int = 0
    #: incremental dynamic-graph serving (``incremental=True`` engines,
    #: see docs/dynamic.md): cached entries kept across a mutation
    #: because their offset bound still met the accuracy contract, and
    #: evicted entries recomputed in the background off the read path.
    entries_retained: int = 0
    entries_repaired: int = 0
    #: queries answered by the degraded CPI tier instead of a full solve
    #: (``query_cheap`` calls; see docs/scale.md).
    tier_downgrades: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def hit_rate(self):
        return self.cache_hits / self.queries if self.queries else 0.0


@dataclass
class BatchOutcome:
    """Structured result of ``query_batch(..., on_error="collect")``.

    ``results`` keeps input order with ``None`` at failed positions;
    ``errors`` maps each failing source id to a human-readable message
    (duplicate positions of the same bad source share one entry).  The
    HTTP batch endpoint serializes this directly, so a single bad source
    degrades one item instead of failing the whole request.
    """

    results: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.errors


class ConcurrentQueryEngine:
    """Thread-pooled, cache-deduplicated, update-aware SSRWR service.

    Parameters
    ----------
    graph:
        Initial graph.  An in-memory graph is copied once into a
        canonical snapshot (rows sorted and deduplicated); an mmap-backed
        graph is served as-is.  Mutations replace the snapshot and never
        touch the caller's object or the backing file.
    solver:
        A solver name (``"auto"`` / ``"resacc"`` / ``"powerpush"``), a
        custom callable ``(graph, source, accuracy, seed) ->
        SSRWRResult``, or ``None`` to resolve via the ``REPRO_SOLVER``
        environment variable (default: ResAcc).  Either way it becomes a
        :class:`repro.core.solvers.SolverEntry`, whose capability flags
        decide blocked batches and retention.  The engine passes
        ``seed = base_seed + source`` so the answer for a source is
        deterministic no matter which worker computes it; with a
        blocked-batch entry (``"powerpush"``) cold :meth:`query_batch`
        misses are additionally solved as one blocked multi-source sweep
        (see :meth:`_query_batch_blocked`), byte-identical to solo
        solves.
    accuracy:
        Default :class:`repro.core.AccuracyParams`; ``None`` means the
        paper defaults for the current graph size.  Individual queries
        may override it, and the cache is keyed on the effective value.
    cache_size:
        Maximum number of cached results (LRU eviction; 0 disables
        caching but single-flight dedup of concurrent identical queries
        still applies).
    max_workers:
        Thread-pool width used by :meth:`query_batch`.
    trace:
        When true every solver run gets a fresh
        :class:`repro.obs.QueryTrace` tagged with the worker thread and
        graph epoch; see :attr:`traces` / :meth:`trace_summary` /
        :meth:`worker_trace_summary`.
    trace_capacity:
        When set, only the most recent ``trace_capacity`` traces are
        retained (older ones are dropped FIFO).  An always-on server
        enables tracing with a bounded capacity so ``/metrics`` can
        report per-phase percentiles without unbounded memory growth.
    incremental:
        Opt into offset-bound cache retention on single-edge mutations
        (see :mod:`repro.serving.retention` and ``docs/dynamic.md``).
        Off by default: the default configuration keeps the historical
        quiesce-and-invalidate behaviour and its byte-identity
        contracts untouched.
    solve_margin:
        Fraction of the contract ``eps`` the solver actually targets on
        a cache miss, in ``(0, 1]``.  ``None`` resolves to ``0.5`` when
        ``incremental`` else ``1.0``.  Tightening creates the error
        slack that lets entries survive edits; ``1.0`` leaves solve
        accuracy -- and result bytes -- exactly as before.  Applies only
        to solvers whose entry is ``retention_safe`` (ResAcc): top-k
        envelope answers and other solvers' entries are never
        retained, so they solve at the contract itself.
    """

    def __init__(self, graph, *, solver=None, accuracy=None,
                 cache_size=256, seed=0, max_workers=4, trace=False,
                 trace_capacity=None, incremental=False,
                 solve_margin=None):
        from repro.serving.cache import SingleFlightCache
        from repro.serving.epoch import EpochGate

        if max_workers < 1:
            raise ParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if trace_capacity is not None and trace_capacity < 1:
            raise ParameterError(
                f"trace_capacity must be >= 1 or None, got {trace_capacity}"
            )
        if solve_margin is None:
            solve_margin = 0.5 if incremental else 1.0
        solve_margin = float(solve_margin)
        if not 0.0 < solve_margin <= 1.0:
            raise ParameterError(
                f"solve_margin must be in (0, 1], got {solve_margin}"
            )
        # Canonical rows keep every later splice byte-identical to a
        # rebuild.  An mmap graph is served as-is: copying it would pull
        # the whole adjacency into RAM, defeating the out-of-core tier.
        if mmap_path_of(graph) is None:
            graph = from_edges(graph.n, graph.edge_array(),
                               dangling=graph.dangling)
        self._graph = graph
        self._accuracy = accuracy
        self._seed = int(seed)
        self._solver = solvers.get(solver)
        self._cache = SingleFlightCache(max_size=cache_size)
        self._gate = EpochGate()
        self._max_workers = int(max_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers,
            thread_name_prefix=WORKER_NAME_PREFIX,
        )
        self._trace_enabled = bool(trace)
        # Bounded retention keeps an always-on server from accumulating
        # traces without limit; None preserves the collect-everything
        # behaviour the bench harness relies on.
        self._traces = ([] if trace_capacity is None
                        else deque(maxlen=int(trace_capacity)))
        self._stats_lock = threading.Lock()
        self._incremental = bool(incremental)
        self._solve_margin = solve_margin
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Shut the worker pools down (waits for in-flight queries)."""
        self._executor.shutdown(wait=True)
        self._retire_snapshot_state()

    def _retire_snapshot_state(self):
        """Release what was built for the current snapshot (a hook).

        Called inside the write gate on every effective mutation and
        from :meth:`close`: the moments no query can still be using the
        outgoing snapshot.  The base engine builds nothing per snapshot
        beyond its push cache, which :meth:`_mutate` releases itself;
        :class:`repro.serving.MultiProcessQueryEngine` retires its solver
        pool and shared graph here.
        """

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The current immutable graph snapshot."""
        with self._gate.read():
            return self._graph

    @property
    def epoch(self):
        """The current graph epoch (bumped by every effective mutation)."""
        return self._gate.epoch

    @property
    def mutating(self):
        """Whether a mutation is draining or holding the write gate.

        The HTTP readiness probe flips not-ready while this is true:
        new queries would block behind the writer.
        """
        return self._gate.writer_pending

    def query(self, source, *, accuracy=None, deadline=None):
        """SSRWR result for ``source`` (cached, single-flighted).

        Safe to call from any thread; :meth:`query_batch` is this method
        fanned across the worker pool.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp.  A
        query that cannot finish by then is cancelled cooperatively at
        the next solver phase boundary and raises
        :class:`repro.errors.DeadlineExceededError`, releasing the
        worker.  A query that coalesced onto another caller's in-flight
        computation whose (shorter) deadline fired retries with its own
        intact budget rather than inheriting the foreign cancellation.
        """
        return self._serve(source, deadline,
                           self._query_build(source, accuracy, deadline))[0]

    def _query_build(self, source, accuracy, deadline):
        """The :meth:`_serve` triple of a full query (see there)."""
        def build(graph, epoch):
            effective = accuracy or self._accuracy
            return ((int(source), effective),
                    lambda: self._compute(graph, int(source), effective,
                                          epoch, deadline),
                    self._retention_meta_factory(graph, effective))

        return build

    def _serve(self, source, deadline, build, *, topk=False):
        """The shared serving loop: deadline pre-check, epoch-gated
        cache lookup with single-flight dedup, coalesced-deadline retry,
        and stats accounting.  Returns ``(result, outcome)``.

        ``build(graph, epoch)`` returns ``(key, compute, meta)`` for the
        current snapshot -- ``meta`` being the retention-metadata
        callback handed to the cache, or None when the entry can never
        be retained across a mutation; :meth:`query` and :meth:`top_k`
        differ only in that triple.
        """
        source = int(source)
        if deadline is not None:
            deadline = float(deadline)
        while True:
            try:
                if deadline is not None and time.monotonic() >= deadline:
                    raise DeadlineExceededError(
                        f"deadline expired before query for source "
                        f"{source} started"
                    )
                with self._gate.read() as epoch:
                    graph = self._graph
                    if not 0 <= source < graph.n:
                        raise ParameterError(
                            f"source {source} out of range for n={graph.n}"
                        )
                    key, compute, meta = build(graph, epoch)
                    result, outcome = self._cache.get_or_compute(
                        key, compute, meta=meta,
                    )
            except DeadlineExceededError:
                if deadline is None or time.monotonic() < deadline:
                    # Coalesced onto a flight owned by a caller with a
                    # shorter deadline; the failed flight is gone, so
                    # retrying either owns a fresh computation (with our
                    # own deadline) or joins a healthy one.
                    continue
                self._count("deadline", topk=topk)
                raise
            self._count(outcome, topk=topk)
            return result, outcome

    def _count(self, outcome, *, topk=False):
        """Account one answered (or failed) query by its outcome:
        ``"hit"``, ``"coalesced"``, ``"miss"`` or ``"deadline"``; any
        other outcome (a failed solve) counts only as a query."""
        with self._stats_lock:
            self.stats.queries += 1
            if topk:
                self.stats.topk_queries += 1
            if outcome == "hit":
                self.stats.cache_hits += 1
            elif outcome == "coalesced":
                self.stats.coalesced += 1
            elif outcome == "miss":
                self.stats.cache_misses += 1
            elif outcome == "deadline":
                self.stats.deadline_exceeded += 1

    def query_cheap(self, source, *, accuracy=None, rounds=None):
        """Degraded-tier answer: cumulative power iteration (TPA-style).

        A cheap, deterministic, deadline-free solve -- ``rounds`` sweeps
        of :func:`repro.core.cpi.cpi` -- returning an *underestimate*
        with a computable per-node bound (``extras["error_bound"]``,
        plus ``extras["eps_achieved"]`` relative to the accuracy
        contract's ``delta``).  The HTTP layer falls back to this tier
        under overload or an expiring deadline instead of shedding with
        503/504 (see :mod:`repro.serving.tiers` and ``docs/scale.md``).

        Answers are cached under disjoint ``("cpi", source, accuracy,
        rounds)`` keys, single-flighted like any other query, and never
        retained across mutations.  Every call -- hit or miss -- counts
        in ``stats.tier_downgrades``.
        """
        from repro.core.cpi import DEFAULT_CPI_ROUNDS

        rounds = DEFAULT_CPI_ROUNDS if rounds is None else int(rounds)
        if rounds < 0:
            raise ParameterError(f"rounds must be >= 0, got {rounds}")

        def build(graph, epoch):
            effective = accuracy or self._accuracy
            return (("cpi", int(source), effective, rounds),
                    lambda: self._compute_cpi(graph, int(source), effective,
                                              rounds, epoch),
                    None)

        result = self._serve(source, None, build)[0]
        with self._stats_lock:
            self.stats.tier_downgrades += 1
        return result

    def _compute_cpi(self, graph, source, accuracy, rounds, epoch):
        """One cheap-tier solve.  Runs in the calling thread even on the
        multi-process engine: the whole point of the tier is an answer
        whose cost is a handful of power sweeps on the snapshot's cached
        operator, not worth a process round-trip."""
        from repro.core.cpi import cpi

        tic = time.perf_counter()
        result, trace = run_traced(
            functools.partial(cpi, source=source, rounds=rounds), graph,
            trace_enabled=self._trace_enabled, epoch=epoch, deadline=None,
        )
        contract = accuracy
        if contract is None and graph.n >= 2:
            contract = AccuracyParams.paper_defaults(graph.n)
        result.extras["eps_achieved"] = (
            result.extras["error_bound"] / contract.delta
            if contract is not None else None
        )
        self._record_solver_run(trace, time.perf_counter() - tic)
        return result

    def top_k_batch(self, sources, k, *, accuracy=None, deadline=None,
                    mode="auto", on_error="raise"):
        """Top-k answers for many sources; results in input order.

        The same triage contract as :meth:`query_batch`: every source is
        validated up front, ``on_error="raise"`` rejects an invalid
        batch wholesale, ``on_error="collect"`` answers the valid
        sources and reports failures in a :class:`BatchOutcome`.
        Duplicate sources share one cached answer via single-flight.
        Each answer is a :class:`repro.core.TopKAnswer`, so per-source
        ``path`` / ``separated`` survive into the HTTP batch endpoint.
        """
        k = self._check_topk(k, mode)
        return self._fan_out(
            "top_k_batch", sources, on_error,
            lambda s: self.top_k(s, k, accuracy=accuracy,
                                 deadline=deadline, mode=mode),
        )

    def query_batch(self, sources, *, accuracy=None, deadline=None,
                    on_error="raise"):
        """Answer many sources concurrently; results in input order.

        Duplicate sources are answered once (single-flight + cache) and
        every duplicate position receives the shared result object.
        Must not be called from inside one of the engine's own workers.

        Every source is validated against the current graph *before* any
        work is submitted.  With ``on_error="raise"`` (the default) an
        invalid batch raises :class:`ParameterError` naming **all** bad
        sources and computes nothing; with ``on_error="collect"`` the
        valid sources are answered and a :class:`BatchOutcome` reports
        per-item failures structurally (``results`` holds ``None`` at
        failed positions, ``errors`` maps source id to message) -- the
        contract the HTTP batch endpoint needs for partial results.

        ``deadline`` (absolute ``time.monotonic()`` timestamp) applies to
        every item; see :meth:`query`.
        """
        blocked = None
        if self._solver.blocked_batch:
            blocked = functools.partial(self._query_batch_blocked,
                                        accuracy=accuracy, deadline=deadline)
        return self._fan_out(
            "query_batch", sources, on_error,
            lambda s: self.query(s, accuracy=accuracy, deadline=deadline),
            blocked,
        )

    def _fan_out(self, name, sources, on_error, answer, blocked=None):
        """The batch triage shared by :meth:`query_batch` and
        :meth:`top_k_batch`.

        Validates ``on_error`` and every source up front; an invalid
        batch under ``"raise"`` fails naming all bad sources before any
        work starts.  ``answer(source)`` then runs on the worker pool
        for each valid position -- unless ``blocked(sources, invalid,
        on_error)`` is given, which answers the whole batch itself.
        ``"raise"`` re-raises the first failure in input order;
        ``"collect"`` returns a :class:`BatchOutcome`.
        """
        if on_error not in ("raise", "collect"):
            raise ParameterError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        sources = [int(s) for s in sources]
        with self._gate.read():
            n = self._graph.n
        invalid = {}
        for s in sources:
            if not 0 <= s < n and s not in invalid:
                invalid[s] = f"source {s} out of range for n={n}"
        if invalid and on_error == "raise":
            raise ParameterError(
                f"{name} rejected {len(invalid)} invalid source(s) up "
                f"front: " + "; ".join(invalid[s] for s in sorted(invalid))
            )
        if blocked is not None:
            return blocked(sources, invalid, on_error)
        futures = {
            index: self._executor.submit(answer, s)
            for index, s in enumerate(sources) if s not in invalid
        }
        results = [None] * len(sources)
        errors = dict(invalid)
        for index, future in futures.items():
            try:
                results[index] = future.result()
            except Exception as exc:
                if on_error == "raise":
                    raise
                errors[sources[index]] = str(exc) or type(exc).__name__
        if on_error == "raise":
            return results
        return BatchOutcome(results=results, errors=errors)

    def _query_batch_blocked(self, sources, invalid, on_error, *, accuracy,
                             deadline):
        """Blocked batch serving: one blocked sweep for the cold misses.

        The per-source loop pays one global sweep cascade per cold
        source; a blocked-batch entry (PowerPush) lets B cold sources
        share each sweep as an ``(n, B)`` blocked transpose-SpMV, so the
        whole cold set costs roughly one solve's worth of memory
        traffic.  The cache contract
        is unchanged: unique sources are triaged in one lock acquisition
        (:meth:`SingleFlightCache.begin_flights`) into cache hits, keys
        already being solved elsewhere (awaited exactly like a solo
        coalesce -- a blocked solve never shadows or duplicates an
        in-flight solo solve), and cold keys this call owns, which are
        solved as one block and published under the same ``(source,
        accuracy)`` keys a solo solve would use.  Answers are
        byte-identical to looped :meth:`query` calls because the solo
        path routes through the same blocked kernel at ``B=1``.
        """
        by_source = {}
        outcomes = {}
        errored = {}
        errors = dict(invalid)
        pending = [s for s in dict.fromkeys(sources) if s not in invalid]
        while pending:
            if deadline is not None and time.monotonic() >= deadline:
                exc = DeadlineExceededError(
                    "deadline expired before blocked batch round started"
                )
                for s in pending:
                    errored[s] = exc
                    errors[s] = str(exc)
                break
            retry = []
            with self._gate.read() as epoch:
                graph = self._graph
                effective = accuracy or self._accuracy
                hits, owned, waiting = self._cache.begin_flights(
                    [(s, effective) for s in pending]
                )
                for key, value in hits.items():
                    by_source[key[0]] = value
                    outcomes[key[0]] = "hit"
                if owned:
                    owned_sources = [key[0] for key in owned]
                    try:
                        block = self._compute_block(
                            graph, owned_sources, effective, epoch,
                            deadline,
                        )
                    except BaseException as exc:
                        for key, flight in owned.items():
                            self._cache.settle_flight(key, flight,
                                                      error=exc)
                        for s in owned_sources:
                            errored[s] = exc
                            errors[s] = str(exc) or type(exc).__name__
                    else:
                        meta = self._retention_meta_factory(graph,
                                                            effective)
                        for key, result in zip(owned, block):
                            self._cache.settle_flight(key, owned[key],
                                                      value=result,
                                                      meta=meta)
                            by_source[key[0]] = result
                            outcomes[key[0]] = "miss"
                # Await flights owned elsewhere while holding the read
                # gate, exactly as the solo path does inside
                # get_or_compute.
                for key, (flight, stale) in waiting.items():
                    s = key[0]
                    try:
                        value, verdict = self._cache.wait_for(key, flight,
                                                              stale)
                    except DeadlineExceededError as exc:
                        if deadline is None or time.monotonic() < deadline:
                            # The foreign owner had a shorter deadline;
                            # retry with our own intact budget.
                            retry.append(s)
                            continue
                        errored[s] = exc
                        errors[s] = str(exc)
                        continue
                    except Exception as exc:
                        errored[s] = exc
                        errors[s] = str(exc) or type(exc).__name__
                        continue
                    if verdict == "retry":
                        retry.append(s)
                    else:
                        by_source[s] = value
                        outcomes[s] = "coalesced"
            if errored and on_error == "raise":
                break
            pending = retry
        # One stats pass over the input positions: first occurrence of a
        # source gets its real outcome, duplicate positions count as
        # coalesced (they share the first occurrence's result object),
        # matching what a looped solo batch would typically record.
        seen = set()
        for s in sources:
            if s in invalid:
                continue  # never submitted, like the solo collect path
            if s in errored:
                self._count("deadline"
                            if isinstance(errored[s], DeadlineExceededError)
                            else "error")
            elif s in seen:
                self._count("coalesced")
            else:
                seen.add(s)
                self._count(outcomes.get(s, "miss"))
        if on_error == "raise":
            if errored:
                for s in sources:
                    if s in errored:
                        raise errored[s]
            return [by_source[s] for s in sources]
        return BatchOutcome(
            results=[by_source.get(s) for s in sources],
            errors=errors,
        )

    def _compute_block(self, graph, sources, accuracy, epoch,
                       deadline=None):
        """One blocked solve (the entry's ``solve_batch``) for a batch's
        cold sources.

        Per-source results carry no trace; the block's one trace is
        recorded like a solo solve's.
        """
        return self._run(
            functools.partial(
                self._solver.solve_batch, sources=list(sources),
                accuracy=self._solve_accuracy_for(graph, accuracy),
            ),
            graph, epoch, deadline,
        )

    def top_k(self, source, k, *, accuracy=None, deadline=None,
              mode="auto"):
        """Top-k answer for ``source`` (cached, single-flighted).

        Returns a :class:`repro.core.TopKAnswer` (it iterates as
        ``(nodes, values)`` for back-compat).  ``mode="auto"`` answers
        from the PowerPush envelope of
        :func:`repro.core.topk_solver.answer_top_k` on every engine,
        whatever solver it is configured with: the envelope is
        deterministic, so the answer is a pure function of ``(graph,
        source, k, accuracy)`` and byte-identical across engines and
        workers.  Its cache key is ``("topk", source, accuracy, k)`` --
        disjoint from full-query keys, and per-``k`` (a certificate
        covers only its own set).  ``stats.topk_unseparated`` counts
        computed envelope answers whose set is not certified.

        ``mode="full"`` answers from the cached full-query result
        :meth:`query` would return (``path="full"``).

        A ``deadline`` is enforced at every solver phase boundary --
        including each drain between certificate checks -- and expiry
        raises :class:`repro.errors.DeadlineExceededError`, freeing the
        worker.
        """
        k = self._check_topk(k, mode)
        if mode == "full":
            from repro.core.topk_solver import answer_from_result

            result, _ = self._serve(
                source, deadline,
                self._query_build(source, accuracy, deadline), topk=True,
            )
            return answer_from_result(result, k)

        def build(graph, epoch):
            effective = accuracy or self._accuracy
            # Top-k answers carry no full estimate vector to bound, so
            # they are never retained across mutations (meta=None).
            return (("topk", int(source), effective, k),
                    lambda: self._compute_topk(graph, int(source), k,
                                               effective, epoch, deadline),
                    None)

        return self._serve(source, deadline, build, topk=True)[0]

    @staticmethod
    def _check_topk(k, mode):
        """``int(k)``, once ``k`` and ``mode`` are valid for a top-k call."""
        k = int(k)
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if mode not in ("auto", "full"):
            raise ParameterError(
                f"mode must be 'auto' or 'full', got {mode!r}"
            )
        return k

    def _compute_topk(self, graph, source, k, accuracy, epoch,
                      deadline=None):
        # Resolved per call, so a patched module attribute takes effect.
        from repro.core.topk_solver import answer_top_k

        answer = self._run(
            functools.partial(answer_top_k, source=source, k=k,
                              accuracy=accuracy),
            graph, epoch, deadline,
        )
        if not answer.separated:
            with self._stats_lock:
                self.stats.topk_unseparated += 1
        return answer

    def _solve_accuracy_for(self, graph, accuracy):
        """Accuracy handed to the solver on a cache miss.

        With the default ``solve_margin=1.0`` -- and for entries that are
        never retained -- the caller's value passes through untouched
        (including None, which the solvers resolve to paper defaults),
        preserving byte identity with the bare solver call.  A tighter
        margin resolves the contract first and shrinks its ``eps``,
        creating the retention slack.
        """
        if self._solve_margin == 1.0 or not self._solver.retention_safe:
            return accuracy
        contract = accuracy or AccuracyParams.paper_defaults(graph.n)
        return contract.with_eps(contract.eps * self._solve_margin)

    def _retention_meta_factory(self, graph, accuracy):
        """Cache-meta callback for a full-query entry, or None.

        Only incremental engines whose solver entry is
        ``retention_safe`` (ResAcc) track retention metadata; a custom
        solver gives no handle on the accuracy its results actually
        achieve, and the retention bound was derived against ResAcc's
        contract, so every other entry falls back to evict-on-mutation.
        """
        if not (self._incremental and self._solver.retention_safe):
            return None
        from repro.serving.retention import RetentionMeta

        contract = accuracy or AccuracyParams.paper_defaults(graph.n)
        solve_eps = contract.eps * self._solve_margin

        def make(result):
            return RetentionMeta(
                eps_bound=solve_eps,
                eps_contract=contract.eps,
                delta=contract.delta,
                alpha=float(result.alpha),
            )

        return make

    def _compute(self, graph, source, accuracy, epoch, deadline=None):
        """One registry solve for ``source`` (a cache miss)."""
        return self._run(
            functools.partial(
                self._solver.solve, source=source,
                accuracy=self._solve_accuracy_for(graph, accuracy),
                seed=self._seed + source,
            ),
            graph, epoch, deadline,
        )

    def _run(self, call, graph, epoch, deadline):
        """Time one solve placed by :meth:`_place` and record it."""
        tic = time.perf_counter()
        value, trace = self._place(call, graph, epoch, deadline)
        self._record_solver_run(trace, time.perf_counter() - tic)
        return value

    def _place(self, call, graph, epoch, deadline):
        """Run ``call`` through :func:`run_traced` in this thread.

        The multi-process engine overrides only this, to run the same
        call in a pool worker against the shared-memory graph.
        """
        return run_traced(call, graph, trace_enabled=self._trace_enabled,
                          epoch=epoch, deadline=deadline)

    def _record_solver_run(self, trace, elapsed):
        """Account one finished solver invocation."""
        with self._stats_lock:
            self.stats.solver_seconds += elapsed
            self.stats.solver_calls += 1
            if trace is not None:
                self._traces.append(trace)
                self.stats.extras["last_trace"] = trace.summary()

    # ------------------------------------------------------------------
    # Updates (quiesce queries, bump the epoch, invalidate atomically)
    # ------------------------------------------------------------------
    def add_edge(self, u, v, *, undirected=False):
        """Insert an edge, growing the node count to fit it; returns
        whether the graph changed.  A self-loop or a negative id raises
        :class:`GraphFormatError`."""
        u, v = int(u), int(v)
        if u == v:
            raise GraphFormatError("self-loops are not allowed")
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative node id in edge ({u}, {v})")
        pairs = ((u, v), (v, u)) if undirected else ((u, v),)

        def mutation(graph):
            edits = [("add", a, b) for a, b in pairs
                     if max(a, b) >= graph.n or not graph.has_edge(a, b)]
            if not edits:
                return False, None, edits
            graph = dynamic.grow_nodes(graph, max(u, v) + 1)
            for _, a, b in edits:
                graph = dynamic.insert_edge(graph, a, b)
            return True, graph, edits

        return self._mutate(mutation)

    def remove_edge(self, u, v):
        """Remove a directed edge; returns whether it existed."""
        u, v = int(u), int(v)

        def mutation(graph):
            if not (0 <= u < graph.n and 0 <= v < graph.n
                    and graph.has_edge(u, v)):
                return False, None, []
            return True, dynamic.delete_edge(graph, u, v), [("remove", u, v)]

        return self._mutate(mutation)

    def remove_node(self, v):
        """Detach a node (its id remains valid); returns edges removed.

        Always a full rebuild + invalidation: the edit touches an
        unbounded set of out-rows, so no useful per-entry bound exists.
        """
        v = int(v)

        def mutation(graph):
            if not 0 <= v < graph.n:
                return 0, None, None
            # Incident edges: v's out-row plus its in-edges.
            removed = graph.out_degree(v) + int(
                np.count_nonzero(graph.indices == v))
            if not removed:
                return 0, None, None
            return removed, dynamic.delete_nodes(graph, [v]), None

        return self._mutate(mutation)

    def flush_cache(self):
        """Drop every cached result (quiesces in-flight queries first).

        Returns the number of entries removed.  Useful for benchmarks
        and for callers that know the workload shifted; normal
        invalidation happens automatically on mutation.
        """
        with self._gate.write():
            cleared = self._cache.invalidate()
        with self._stats_lock:
            self.stats.invalidations += cleared
        return cleared

    def _mutate(self, mutation):
        """Apply one mutation under the write gate, atomically.

        ``mutation(graph)`` computes the edit from the current snapshot
        and returns ``(result, new_graph, edits)``: the caller's return
        value, the next snapshot (None when nothing changed), and the
        ``("add"|"remove", u, v)`` single-edge descriptors -- or None
        when the change is not expressible as single-edge edits (node
        removal) and must clear the whole cache.  Nothing is committed
        until the next snapshot exists, so an edit that raises leaves
        the epoch, snapshot, cache and stats as they were.
        """
        from repro.push.kernels import release_push_cache

        repairs = []
        with self._gate.write() as gate:
            old_graph = self._graph
            result, graph, edits = mutation(old_graph)
            if graph is not None:
                gate.advance()
                # Release the old snapshot's push cache inside the write
                # gate: quiescence guarantees no query is mid-push on its
                # thresholds or scratch buffers.
                release_push_cache(old_graph)
                self._graph = graph
                repairs = self._invalidate_for(old_graph, graph, edits)
                self._retire_snapshot_state()
                with self._stats_lock:
                    self.stats.updates += 1
        if repairs:
            self._schedule_repairs(repairs)
        return result

    def _invalidate_for(self, old_graph, new_graph, edits):
        """Invalidate the cache for a mutation; returns keys to repair.

        Incremental engines keep every entry whose offset bound still
        satisfies its contract (:mod:`repro.serving.retention`) and
        return the evicted keys for background repair.  Everything else
        -- non-incremental engines, node removals, node-count growth
        (cached estimate vectors have the wrong length) -- drops the
        whole cache, exactly as before.
        """
        incremental = (self._incremental and edits is not None
                       and new_graph.n == old_graph.n)
        if not incremental:
            cleared = self._cache.invalidate()
            with self._stats_lock:
                self.stats.invalidations += cleared
                self.stats.extras["last_mutation"] = {
                    "incremental": False,
                    "retained": 0,
                    "evicted": cleared,
                }
            return []
        from repro.serving import retention

        deltas = retention.row_deltas(old_graph, edits)
        dangling = new_graph.dangling

        def keep(key, value, meta):
            if meta is None:
                return None
            return retention.survives(meta, value.estimates, deltas,
                                      dangling)

        retained, evicted = self._cache.invalidate_where(keep)
        with self._stats_lock:
            self.stats.invalidations += len(evicted)
            self.stats.entries_retained += len(retained)
            self.stats.extras["last_mutation"] = {
                "incremental": True,
                "retained": len(retained),
                "evicted": len(evicted),
                "retained_sources": [key[0] for key in retained
                                     if key[0] != "topk"],
            }
        return evicted

    def _schedule_repairs(self, keys):
        """Recompute evicted entries on the worker pool, off the read path.

        Each repair is an ordinary :meth:`query` / :meth:`top_k` call:
        it single-flights with any racing real read, lands in the cache
        with fresh retention metadata, and is counted in
        ``entries_repaired``.  Failures (shrunken graph, shutdown races)
        are swallowed -- a repair is best-effort; the read path stays
        correct without it.
        """
        for key in keys:
            try:
                self._executor.submit(self._repair, key)
            except RuntimeError:
                break  # pool already shut down

    def _repair(self, key):
        try:
            if key[0] == "topk":
                _, source, accuracy, k = key
                self.top_k(source, k, accuracy=accuracy)
            elif key[0] == "cpi":
                # Cheap-tier entries cost a handful of sweeps to rebuild
                # on demand; repairing them would also inflate the
                # tier_downgrades counter without a degraded request.
                return
            else:
                source, accuracy = key
                self.query(source, accuracy=accuracy)
        except Exception:
            return
        with self._stats_lock:
            self.stats.entries_repaired += 1

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def traces(self):
        """Snapshot of every collected :class:`QueryTrace`, in solve order."""
        with self._stats_lock:
            return list(self._traces)

    def trace_summary(self, *, percentiles=(50, 95)):
        """p50/p95 phase aggregate across all workers (or ``None``)."""
        from repro.obs.export import aggregate_traces

        traces = self.traces
        if not traces:
            return None
        return aggregate_traces(traces, percentiles=percentiles)

    def worker_trace_summary(self, *, percentiles=(50, 95)):
        """Per-worker p50/p95 phase aggregates keyed by thread name."""
        from repro.obs.export import aggregate_by_worker

        return aggregate_by_worker(self.traces, percentiles=percentiles)

    def __repr__(self):
        with self._gate.read():
            n, m = self._graph.n, self._graph.m
        return (f"ConcurrentQueryEngine(n={n}, m={m}, "
                f"workers={self._max_workers}, epoch={self.epoch}, "
                f"cached={len(self._cache)}, "
                f"hit_rate={self.stats.hit_rate:.2f})")
