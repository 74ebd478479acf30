"""An engine-free oracle for the serving determinism contract.

Every engine path -- the sequential :class:`repro.service.QueryEngine`
facade, the threaded ``query_batch`` and the multi-process
``query_batch`` -- must return exactly the bytes of the bare registry
solve ``entry.solve(graph, s, seed=seed + s)``, which runs no engine,
cache or epoch gate.  Top-k answers are pinned the same way: to the bare
envelope ``answer_top_k(graph, s, k)`` on every entry, and with
``mode="full"`` to the top-k of the bare solve.  The older
equivalence suites compare engines with each other; this one pins them
all to the solver itself.

Every engine also honours one trace contract: a traced solve run under a
live deadline leaves a :class:`repro.obs.QueryTrace` on what it returns
and in ``engine.traces``, never the one-shot
:class:`repro.obs.trace.DeadlineTrace` proxy.
"""

from __future__ import annotations

import time

import pytest

from repro.core import AccuracyParams, solvers
from repro.core.topk_solver import answer_from_result, answer_top_k
from repro.graph import generators
from repro.obs.trace import QueryTrace
from repro.service import QueryEngine
from repro.serving import ConcurrentQueryEngine, MultiProcessQueryEngine

SEED = 9
SOURCES = [0, 3, 17, 42, 3, 0, 99, 17]  # duplicates on purpose
K = 6


def _graph():
    return generators.preferential_attachment(200, 3, seed=7)


def _engine(kind, graph, name, **kwargs):
    if kind == "facade":
        return QueryEngine(graph, solver=name, cache_size=0, seed=SEED,
                           **kwargs)
    if kind == "threads":
        return ConcurrentQueryEngine(graph, solver=name, seed=SEED,
                                     max_workers=4, **kwargs)
    return MultiProcessQueryEngine(graph, solver=name, seed=SEED,
                                   solver_workers=2, **kwargs)


def _answers(kind, graph, name, **kwargs):
    with _engine(kind, graph, name, **kwargs) as engine:
        if kind == "facade":
            return [engine.query(s) for s in SOURCES]
        return engine.query_batch(SOURCES)


@pytest.mark.parametrize("kind", ["facade", "threads", "multiproc"])
@pytest.mark.parametrize("name", sorted(solvers.ENTRIES))
def test_engine_answers_equal_bare_solve(name, kind):
    graph = _graph()
    entry = solvers.ENTRIES[name]
    got = _answers(kind, graph, name)
    for source, result in zip(SOURCES, got):
        want = entry.solve(graph, source, seed=SEED + source)
        assert result.source == source
        assert result.estimates.tobytes() == want.estimates.tobytes(), (
            f"{kind}/{name}: source {source} diverges from the bare solve"
        )


def test_explicit_accuracy_reaches_the_solver():
    graph = _graph()
    accuracy = AccuracyParams(eps=0.5, delta=10.0 / graph.n,
                              p_f=1.0 / graph.n)
    entry = solvers.ENTRIES["resacc"]
    got = _answers("threads", graph, "resacc", accuracy=accuracy)
    for source, result in zip(SOURCES, got):
        want = entry.solve(graph, source, accuracy=accuracy,
                           seed=SEED + source)
        assert result.estimates.tobytes() == want.estimates.tobytes()


def test_solve_margin_only_tightens_retained_entries():
    """PowerPush answers are never retained, so an incremental engine
    solves them at the contract itself, not at ``solve_margin * eps``."""
    graph = _graph()
    entry = solvers.ENTRIES["powerpush"]
    got = _answers("threads", graph, "powerpush", incremental=True)
    for source, result in zip(SOURCES, got):
        want = entry.solve(graph, source)
        assert result.estimates.tobytes() == want.estimates.tobytes()


@pytest.mark.parametrize("kind", ["facade", "threads", "multiproc"])
@pytest.mark.parametrize("name", sorted(solvers.ENTRIES))
def test_top_k_answers_equal_bare_top_k(name, kind):
    graph = _graph()
    with _engine(kind, graph, name) as engine:
        solo = [engine.top_k(s, K) for s in SOURCES[:3]]
        batch = engine.top_k_batch(SOURCES, K)
        full = engine.top_k_batch(SOURCES, K, mode="full")
    got = list(zip(SOURCES[:3], solo)) + list(zip(SOURCES, batch))
    for source, answer in got:
        want = answer_top_k(graph, source, K)
        assert answer.source == source
        assert answer.path == want.path == "topk"
        assert answer.separated == want.separated
        assert answer.bound_gap == want.bound_gap
        assert answer.nodes.tobytes() == want.nodes.tobytes(), (
            f"{kind}/{name}: top-k nodes of {source} diverge"
        )
        assert answer.values.tobytes() == want.values.tobytes(), (
            f"{kind}/{name}: top-k values of {source} diverge"
        )
    for source, answer in zip(SOURCES, full):
        result = solvers.ENTRIES[name].solve(graph, source,
                                             seed=SEED + source)
        want = answer_from_result(result, K)
        assert answer.path == "full"
        assert answer.nodes.tobytes() == want.nodes.tobytes()
        assert answer.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("kind", ["threads", "multiproc"])
def test_traced_deadline_solves_keep_the_real_trace(kind):
    """Solo, blocked and top-k solves under a live deadline: the values
    carry the :class:`QueryTrace` (blocked per-source results carry no
    trace at all) and every recorded trace is one; pool solves are tagged
    with the worker process."""
    graph = _graph()
    deadline = time.monotonic() + 600.0
    with _engine(kind, graph, "resacc", trace=True) as engine:
        solo = engine.query(3, deadline=deadline)
        answer = engine.top_k(17, K, deadline=deadline)
        traces = engine.traces
    with _engine(kind, graph, "powerpush", trace=True) as engine:
        block = engine.query_batch([0, 42, 99], deadline=deadline)
        traces += engine.traces
    assert type(solo.trace) is QueryTrace
    assert type(answer.trace) is QueryTrace
    assert all(result.trace is None for result in block)
    assert len(traces) == 3
    for trace in traces:
        assert type(trace) is QueryTrace
        if kind == "multiproc":
            assert trace.meta["process"] != "MainProcess"
            assert trace.meta["pid"] > 0
