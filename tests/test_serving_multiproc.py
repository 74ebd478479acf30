"""Multi-process serving engine: determinism, dedup, crash recovery.

:class:`repro.serving.MultiProcessQueryEngine` moves solves into worker
processes mapping a shared-memory graph snapshot; everything the
threaded engine guarantees must survive the process boundary:

* estimate vectors byte-identical to a sequential single-process loop
  for fixed seeds, over several graph shapes;
* cross-process single-flight -- one solver invocation per unique
  ``(source, accuracy)`` key no matter how many duplicates a batch
  carries;
* mutation broadcast -- after ``add_edge`` no worker ever answers from
  the pre-mutation snapshot (the pool is retired inside the write gate);
* crash containment -- ``SIGKILL`` of a worker respawns the pool and
  the query completes (or fails loudly with ``WorkerCrashError`` when
  retries are exhausted); queries never hang on a dead process.

The suite keeps pools small (``solver_workers=2``) and graphs tiny: the
point is behaviour, not throughput -- the >= 2x cache-cold speedup gate
runs in CI on a multi-core runner (the ``multiproc`` job).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from multiprocessing import get_context
from multiprocessing.connection import wait

import pytest

from repro.core import AccuracyParams
from repro.errors import DeadlineExceededError, WorkerCrashError
from repro.graph import generators
from repro.service import QueryEngine
from repro.serving import MultiProcessQueryEngine

# Three graph shapes with different degree structure (mirrors the
# threaded equivalence suite, smaller because every engine here pays
# process spawn).
GRAPHS = {
    "ba": lambda: generators.preferential_attachment(200, 3, seed=7),
    "power_law": lambda: generators.directed_power_law(150, 5, seed=11),
    "grid": lambda: generators.grid(10, 10, torus=True),
}


def make_engine(graph, **kwargs):
    kwargs.setdefault("solver_workers", 2)
    return MultiProcessQueryEngine(graph, **kwargs)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_batch_byte_identical_to_sequential(graph_name):
    graph = GRAPHS[graph_name]()
    sources = [0, 3, 17, 42, 3, 0, 99, 17]  # duplicates on purpose
    sequential = QueryEngine(graph, cache_size=0, seed=9)
    expected = [sequential.query(s) for s in sources]
    with make_engine(graph, seed=9) as engine:
        batched = engine.query_batch(sources)
    assert len(batched) == len(sources)
    for source, want, got in zip(sources, expected, batched):
        assert got.source == source
        assert want.estimates.tobytes() == got.estimates.tobytes(), (
            f"{graph_name}: multi-process estimates for source {source} "
            f"diverge from the sequential loop"
        )


def test_single_flight_dedup_across_processes():
    """A batch full of duplicates runs one solve per unique key."""
    graph = GRAPHS["ba"]()
    unique = [1, 5, 9]
    sources = unique * 4
    with make_engine(graph, seed=0) as engine:
        results = engine.query_batch(sources)
        stats = engine.stats
        assert stats.solver_calls == len(unique)
        assert stats.queries == len(sources)
        # Every duplicate either coalesced onto an in-flight solve or
        # hit the cache behind it; none paid a second solver call.
        assert stats.cache_hits + stats.coalesced == (
            len(sources) - len(unique)
        )
        # Duplicate positions share the owner's result object.
        assert results[0] is results[len(unique)]


def test_accuracy_is_part_of_the_flight_key():
    """Same source at different accuracy must not share a result."""
    graph = GRAPHS["grid"]()
    tight = AccuracyParams(eps=0.25, delta=5.0 / graph.n, p_f=1.0 / graph.n)
    with make_engine(graph, seed=3) as engine:
        default = engine.query(12)
        tighter = engine.query(12, accuracy=tight)
        assert engine.stats.solver_calls == 2
    sequential = QueryEngine(graph, cache_size=0, seed=3)
    assert (sequential.query(12, accuracy=tight).estimates.tobytes()
            == tighter.estimates.tobytes())
    assert (sequential.query(12).estimates.tobytes()
            == default.estimates.tobytes())


def test_mutation_broadcast_no_stale_snapshot():
    """After add_edge every answer comes from the new snapshot."""
    graph = GRAPHS["power_law"]()
    reference = QueryEngine(graph, cache_size=0, seed=5)
    with make_engine(graph, seed=5) as engine:
        before = engine.query(7)
        assert engine.epoch == 0
        # Grow the graph: the old shared snapshot has the old n, so a
        # worker still mapping it could not even size this answer.
        changed = engine.add_edge(7, graph.n)
        assert changed
        assert engine.epoch == 1
        after = engine.query(7)
    assert reference.query(7).estimates.tobytes() == before.estimates.tobytes()
    reference.add_edge(7, graph.n)
    want = reference.query(7)
    assert want.estimates.size == graph.n + 1
    assert want.estimates.tobytes() == after.estimates.tobytes()


def test_worker_crash_respawns_and_completes():
    """SIGKILL a live worker: the next query respawns and succeeds."""
    graph = GRAPHS["ba"]()
    sequential = QueryEngine(graph, cache_size=0, seed=2)
    with make_engine(graph, seed=2, cache_size=0) as engine:
        engine.warm_up()
        pids = engine.worker_pids()
        assert len(pids) == 2
        killed = engine._solver_pool._processes[pids[0]]
        os.kill(pids[0], signal.SIGKILL)
        assert wait([killed.sentinel], timeout=30)
        result = engine.query(11)
        assert (result.estimates.tobytes()
                == sequential.query(11).estimates.tobytes())
        assert engine.stats.worker_restarts >= 1
        # The respawned pool is healthy and holds fresh processes.
        assert engine.query(23).source == 23
        assert not set(engine.worker_pids()) & {pids[0]}


class _SurvivorPool:
    """Stand-in for a pool whose worker died holding the call-queue lock.

    One worker has exited; the graceful ``shutdown(wait=True)`` joins
    the other, which never exits on its own, as ``ProcessPoolExecutor``
    does when its manager thread takes the graceful path and waits on a
    survivor blocked on that lock.
    """

    def __init__(self):
        context = get_context("spawn")
        dead = context.Process(target=time.sleep, args=(0,))
        dead.start()
        dead.join(timeout=30)
        assert dead.exitcode is not None
        self.survivor = context.Process(target=time.sleep, args=(600,))
        self.survivor.start()
        self._processes = {dead.pid: dead, self.survivor.pid: self.survivor}

    def shutdown(self, wait=True):
        if wait:
            self.survivor.join()


def test_pool_crash_terminates_survivors_before_joining():
    """Retiring a broken pool returns even if its survivors would never
    exit: they are terminated before the join."""
    with make_engine(GRAPHS["grid"](), seed=0) as engine:
        pool = _SurvivorPool()
        engine._solver_pool = pool
        retire = threading.Thread(target=engine._handle_pool_crash,
                                  args=(pool,), daemon=True)
        try:
            retire.start()
            retire.join(timeout=30)
            assert not retire.is_alive(), "pool shutdown hung on a survivor"
        finally:
            pool.survivor.kill()
            retire.join()
        assert engine.stats.worker_restarts == 1
        assert engine._solver_pool is None


def test_worker_crash_fails_loudly_when_retries_exhausted():
    graph = GRAPHS["grid"]()
    with make_engine(graph, seed=1, crash_retries=0,
                     cache_size=0) as engine:
        engine.warm_up()
        for pid in engine.worker_pids():
            os.kill(pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashError):
            engine.query(4)
        # A crash is not a poison pill: the engine recovered a pool and
        # keeps serving.
        assert engine.query(4).source == 4
        assert engine.stats.worker_restarts >= 1


def test_expired_deadline_never_reaches_the_pool():
    graph = GRAPHS["ba"]()
    with make_engine(graph, seed=0, cache_size=0) as engine:
        with pytest.raises(DeadlineExceededError):
            engine.query(3, deadline=time.monotonic() - 0.001)
        assert engine.stats.solver_calls == 0
        assert engine.stats.deadline_exceeded == 1


def test_traces_carry_worker_process_meta():
    graph = GRAPHS["grid"]()
    with make_engine(graph, seed=0, trace=True, cache_size=0) as engine:
        engine.query(2)
        engine.query(57)
        traces = engine.traces
        assert len(traces) == 2
        for trace in traces:
            assert trace.meta["process"].startswith("SpawnProcess")
            assert trace.meta["pid"] != os.getpid()
        summary = engine.worker_trace_summary()
        assert summary
        assert all(name.startswith("SpawnProcess") for name in summary)


def test_close_is_idempotent_and_releases_shared_memory():
    graph = GRAPHS["ba"]()
    engine = make_engine(graph, seed=0)
    engine.query(0)
    assert engine.worker_pids()
    engine.close()
    assert engine.worker_pids() == []
    engine.close()  # second close is a no-op


def test_incremental_retention_and_repair_across_processes():
    """`incremental=True` carries over: a low-impact edit (high-degree
    broadcaster the sources put no mass on) keeps cached answers, a
    high-impact one (degree 1 -> 2 under score mass) evicts and repairs
    them in the background.  The solve-margin tightening is resolved
    dispatcher-side, so the worker protocol is unchanged."""
    from tests.test_serving_dynamic import (
        BROADCASTER,
        CYCLE,
        SOURCES,
        broadcaster_graph,
    )

    graph = broadcaster_graph()
    accuracy = AccuracyParams.paper_defaults(graph.n)
    with make_engine(graph, accuracy=accuracy, seed=0,
                     incremental=True) as engine:
        engine.warm_up()
        engine.query_batch(SOURCES)
        assert engine.add_edge(BROADCASTER, CYCLE[-1])
        last = engine.stats.extras["last_mutation"]
        assert last["incremental"] is True
        assert last["retained"] == len(SOURCES)
        hits = engine.stats.cache_hits
        for source in SOURCES:
            engine.query(source)  # retained entries serve as hits
        assert engine.stats.cache_hits == hits + len(SOURCES)

        assert engine.add_edge(CYCLE[2], BROADCASTER)
        assert engine.stats.extras["last_mutation"]["retained"] == 0
        deadline = time.monotonic() + 30.0
        while engine.stats.entries_repaired < len(SOURCES):
            assert time.monotonic() < deadline, "repairs never landed"
            time.sleep(0.02)
