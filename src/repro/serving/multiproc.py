"""Multi-process SSRWR query serving over the shared-memory CSR graph.

:class:`MultiProcessQueryEngine` is the process-pooled counterpart of
:class:`repro.serving.ConcurrentQueryEngine`.  The threaded engine keeps
every solve inside one GIL-bound interpreter, so a batch of cache-cold
sources gains nothing from extra cores.  This engine moves the solves
into ``solver_workers`` spawn-based worker processes that all map the
*same* graph snapshot zero-copy:

* **Shared-memory graph.**  The dispatcher exports the CSR arrays once
  via :class:`repro.graph.shared.SharedCSRGraph`; workers rebuild a
  full :class:`repro.graph.CSRGraph` over the shared pages with
  :func:`repro.graph.shared.attach_csr_graph` -- no pickling of the
  graph, no per-worker copy of ``indptr``/``indices``.  Only the tiny
  handle dict, the query parameters, and the result vector cross the
  process boundary.  Mmap-backed graphs (``repro.graph.mmap``) skip the
  shared-memory copy entirely: the handle carries the ``.rcsr`` path
  and every worker maps the same file pages (see ``docs/scale.md``).

* **Cross-process single-flight.**  Every query routes through the
  dispatcher's :class:`repro.serving.cache.SingleFlightCache` *before*
  any work is submitted to the pool, so there is exactly one in-flight
  solve per ``(source, accuracy)`` key regardless of which worker
  process runs it; concurrent duplicates coalesce onto the owner's
  flight exactly as in the threaded engine.

* **Mutation broadcast via the graph epoch.**  A mutation quiesces
  queries behind the :class:`repro.serving.epoch.EpochGate`, bumps the
  epoch, and -- inside the write gate, following the PR 3/PR 4
  pool-retirement pattern -- shuts the solver pool down and unlinks the
  old snapshot's shared blocks.  The next query re-exports the new
  snapshot and respawns workers against it, so no worker can ever serve
  a stale graph after ``mutate`` returns.

* **Crash containment.**  A worker process dying mid-solve breaks the
  pool; the dispatcher detects it, respawns the pool against the same
  (still valid) shared snapshot, retries the query up to
  ``crash_retries`` times, and otherwise fails loudly with
  :class:`repro.errors.WorkerCrashError`.  Queries never hang on a dead
  worker.

* **Determinism.**  Workers run the identical registry solve the
  threaded engine runs (``seed = base_seed + source``, serial walks),
  so results are byte-identical to a single-process loop for a fixed
  seed -- the serving layer's standing contract, asserted by
  ``tests/test_serving_multiproc.py`` and ``tests/test_serving_oracle.py``.

Deadlines propagate as absolute ``time.monotonic()`` timestamps.  On
every platform CPython supports, the monotonic clock is system-wide
(CLOCK_MONOTONIC / mach_absolute_time / QPC), so a worker process can
check the dispatcher's deadline directly via the same
:class:`repro.obs.DeadlineTrace` cooperative-cancellation hook the
threaded engine uses.  See ``docs/multiprocess.md`` for the design and
for when to pick threads vs. processes.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import current_process, get_context

from repro.errors import (
    DeadlineExceededError,
    ParameterError,
    WorkerCrashError,
)
from repro.graph.shared import SharedCSRGraph, attach_csr_graph
from repro.serving.engine import ConcurrentQueryEngine, run_traced

#: Worker-process tag attached to every trace computed in the pool
#: (``trace.meta["process"]``); ``worker_trace_summary`` groups on it.
PROCESS_META_KEY = "process"


def _pool_task(handle, call, trace_enabled, epoch, deadline):
    """One serving solve; runs inside a pool worker process.

    ``call`` is the engine's solve partial (registry ``solve``,
    ``solve_batch`` or ``answer_top_k``), pickled by reference.  It runs
    through the same :func:`repro.serving.engine.run_traced` the
    threaded engine uses, against the shared-memory graph, with the
    trace tagged by worker process name and pid.  The ``(value, trace)``
    pair pickles back to the dispatcher; a deadline proxy's
    :class:`DeadlineExceededError` pickles back the same way.
    """
    return run_traced(call, attach_csr_graph(handle),
                      trace_enabled=trace_enabled, epoch=epoch,
                      deadline=deadline,
                      **{PROCESS_META_KEY: current_process().name,
                         "pid": os.getpid()})


def _attach_task(handle):
    """Warm-up task: import the solver stack and map the graph."""
    return attach_csr_graph(handle).n


def _has_dead_worker(pool):
    """Whether any of ``pool``'s worker processes has exited."""
    processes = pool._processes or {}  # None once the pool shut down
    return any(process.exitcode is not None
               for process in list(processes.values()))


def _shutdown_pool(pool):
    """``pool.shutdown(wait=True)`` that cannot hang on a dead worker.

    A worker killed while holding the call queue's lock leaves the
    survivors blocked on that lock forever.  The executor's own
    broken-pool path terminates them first, but its manager thread can
    miss the dead worker when a wakeup arrives at the same moment
    (CPython 3.11 checks the wakeup before the worker sentinels) and
    then join the blocked survivors for good.  So once a worker has
    died, the survivors are terminated here before the join.
    """
    if _has_dead_worker(pool):
        for process in list((pool._processes or {}).values()):
            if process.exitcode is None:
                process.terminate()
    pool.shutdown(wait=True)


class MultiProcessQueryEngine(ConcurrentQueryEngine):
    """Process-pooled, cache-deduplicated, update-aware SSRWR service.

    Exposes the exact engine contract of
    :class:`repro.serving.ConcurrentQueryEngine` (``query`` /
    ``query_batch`` / ``top_k`` / mutations / ``stats`` / traces); only
    the solve placement differs -- dispatcher threads hand each cache
    miss to a worker *process* and block on the result, so cache-cold
    throughput scales with cores instead of being GIL-bound.

    Parameters
    ----------
    graph:
        Initial graph (canonicalised or served as-is, like the base
        engine).
    solver:
        Solver name (``"auto"`` / ``"resacc"`` / ``"powerpush"``) or
        ``None`` to resolve via ``REPRO_SOLVER``.  Custom callables are
        rejected -- they cannot cross the process boundary.  With a
        blocked-batch entry (``"powerpush"``) the cold misses of a
        ``query_batch`` are solved as one blocked sweep in a single pool
        worker.
    solver_workers:
        Width of the solver process pool.
    dispatch_workers:
        Width of the dispatcher *thread* pool that fans ``query_batch``
        out and parks on pool futures.  Defaults to
        ``2 * solver_workers`` so coalescing duplicates never starve the
        process pool of feeders.
    crash_retries:
        How many times one query retries after a worker crash broke the
        pool (the pool is respawned each time).  ``0`` fails loudly on
        the first crash.
    mp_context:
        Multiprocessing context or start-method name; defaults to
        ``"spawn"`` (fork-unsafe libraries and threaded callers are the
        norm here, and the shared-memory graph makes spawn cheap per
        query).
    accuracy / cache_size / seed / trace / trace_capacity /
    incremental / solve_margin:
        As in the base engine (retention bookkeeping lives entirely on
        the dispatcher side -- workers just solve at the accuracy they
        are handed).
    """

    def __init__(self, graph, *, solver=None, solver_workers=4,
                 dispatch_workers=None, accuracy=None, cache_size=256,
                 seed=0, trace=False, trace_capacity=None,
                 crash_retries=1, mp_context="spawn", incremental=False,
                 solve_margin=None):
        if solver is not None and not isinstance(solver, str):
            raise ParameterError(
                "MultiProcessQueryEngine accepts solver names only "
                "(a custom callable cannot cross the process boundary); "
                f"got {solver!r}"
            )
        if solver_workers < 1:
            raise ParameterError(
                f"solver_workers must be >= 1, got {solver_workers}"
            )
        if crash_retries < 0:
            raise ParameterError(
                f"crash_retries must be >= 0, got {crash_retries}"
            )
        if dispatch_workers is None:
            dispatch_workers = 2 * int(solver_workers)
        super().__init__(
            graph, solver=solver, accuracy=accuracy,
            cache_size=cache_size, seed=seed,
            max_workers=dispatch_workers, trace=trace,
            trace_capacity=trace_capacity, incremental=incremental,
            solve_margin=solve_margin,
        )
        self._solver_workers = int(solver_workers)
        self._crash_retries = int(crash_retries)
        if isinstance(mp_context, str):
            mp_context = get_context(mp_context)
        self._mp_context = mp_context
        # The solver pool and the shared snapshot it maps are created
        # lazily (first query after construction or after a mutation)
        # under this lock; both are retired inside the write gate.
        self._pool_lock = threading.Lock()
        self._solver_pool = None
        self._shared = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def solver_workers(self):
        return self._solver_workers

    def _solver_resources(self, graph):
        """``(pool, handle)`` for the current snapshot, created lazily.

        Callers hold the read gate, so the snapshot cannot be swapped
        while the pool is being created or used; creation itself is
        serialized by the lock.
        """
        with self._pool_lock:
            if self._shared is None:
                self._shared = SharedCSRGraph(graph)
            if self._solver_pool is None:
                self._solver_pool = ProcessPoolExecutor(
                    max_workers=self._solver_workers,
                    mp_context=self._mp_context,
                )
            return self._solver_pool, self._shared.handle

    def _pool_replaced(self, pool):
        with self._pool_lock:
            return self._solver_pool is not pool

    def _handle_pool_crash(self, pool):
        """Retire a broken pool (idempotent across racing threads).

        The shared snapshot survives: a worker crash does not change the
        graph, so the respawned pool re-maps the same blocks.
        """
        with self._pool_lock:
            if self._solver_pool is not pool:
                return  # another thread already replaced it
            self._solver_pool = None
        _shutdown_pool(pool)
        with self._stats_lock:
            self.stats.worker_restarts += 1

    def _retire_snapshot_state(self):
        """Shut the pool down and unlink the shared snapshot.

        The base engine calls this hook inside the write gate on every
        effective mutation and from ``close()``: exactly the two moments
        the solver pool must stop mapping the outgoing snapshot.
        """
        with self._pool_lock:
            pool, self._solver_pool = self._solver_pool, None
            shared, self._shared = self._shared, None
        if pool is not None:
            _shutdown_pool(pool)
        if shared is not None:
            shared.close()

    def warm_up(self):
        """Spawn the workers and pre-import the solver stack.

        Submits one attach task per worker so the pool's spawn + import
        cost is paid before the first real query (benchmarks and
        latency-sensitive deployments call this right after
        construction or after a mutation).  Returns the number of tasks
        run.
        """
        with self._gate.read():
            pool, handle = self._solver_resources(self._graph)
        futures = [pool.submit(_attach_task, handle)
                   for _ in range(self._solver_workers)]
        for future in futures:
            future.result()
        return len(futures)

    def worker_pids(self):
        """Pids of the live solver worker processes (for tests/ops)."""
        with self._pool_lock:
            pool = self._solver_pool
            if pool is None:
                return []
            return sorted(pool._processes)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _place(self, call, graph, epoch, deadline):
        """Run ``call`` as :func:`_pool_task` in the solver pool, with the
        crash-containment loop: a broken pool is retired and respawned
        (against the same shared snapshot) up to ``crash_retries``
        times, after which :class:`WorkerCrashError` surfaces."""
        attempts = 0
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError(
                    "deadline expired before the solve was dispatched "
                    "to a solver worker"
                )
            pool, handle = self._solver_resources(graph)
            try:
                if _has_dead_worker(pool):
                    # The pool notices a dead worker only asynchronously;
                    # until then a submit can run on a survivor and keep
                    # a half-dead pool in service.
                    raise BrokenProcessPool("a solver worker process died")
                future = pool.submit(_pool_task, handle, call,
                                     self._trace_enabled, epoch, deadline)
                return future.result()
            except BrokenProcessPool as exc:
                self._handle_pool_crash(pool)
                attempts += 1
                if attempts > self._crash_retries:
                    raise WorkerCrashError(
                        f"solver worker crashed mid-solve ({attempts} "
                        f"attempt(s), crash_retries={self._crash_retries})"
                    ) from exc
            except RuntimeError:
                # A submit can race a concurrent crash-retirement and hit
                # the already-shut-down pool; retry on the fresh one.
                # Any RuntimeError from a still-current pool is real.
                if not self._pool_replaced(pool):
                    raise

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def worker_trace_summary(self, *, percentiles=(50, 95)):
        """Per-worker p50/p95 phase aggregates keyed by *process* name."""
        from repro.obs.export import aggregate_by_worker

        return aggregate_by_worker(self.traces, percentiles=percentiles,
                                   key=PROCESS_META_KEY)

    def __repr__(self):
        with self._gate.read():
            n, m = self._graph.n, self._graph.m
        return (f"MultiProcessQueryEngine(n={n}, m={m}, "
                f"solver_workers={self._solver_workers}, "
                f"dispatch_workers={self._max_workers}, "
                f"epoch={self.epoch}, cached={len(self._cache)}, "
                f"hit_rate={self.stats.hit_rate:.2f})")
