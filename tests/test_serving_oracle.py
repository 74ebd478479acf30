"""An engine-free oracle for the serving determinism contract.

Every engine path -- the sequential :class:`repro.service.QueryEngine`
facade, the threaded ``query_batch`` and the multi-process
``query_batch`` -- must return exactly the bytes of the bare registry
solve ``entry.solve(graph, s, seed=seed + s)``, which runs no engine,
cache or epoch gate.  The older equivalence suites compare engines with
each other; this one pins them all to the solver itself.
"""

from __future__ import annotations

import pytest

from repro.core import AccuracyParams, solvers
from repro.graph import generators
from repro.service import QueryEngine
from repro.serving import ConcurrentQueryEngine, MultiProcessQueryEngine

SEED = 9
SOURCES = [0, 3, 17, 42, 3, 0, 99, 17]  # duplicates on purpose


def _graph():
    return generators.preferential_attachment(200, 3, seed=7)


def _answers(kind, graph, name, **kwargs):
    if kind == "facade":
        with QueryEngine(graph, solver=name, cache_size=0, seed=SEED,
                         **kwargs) as engine:
            return [engine.query(s) for s in SOURCES]
    if kind == "threads":
        engine = ConcurrentQueryEngine(graph, solver=name, seed=SEED,
                                       max_workers=4, **kwargs)
    else:
        engine = MultiProcessQueryEngine(graph, solver=name, seed=SEED,
                                         solver_workers=2, **kwargs)
    with engine:
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
