"""The solver registry (:mod:`repro.core.solvers`) and what engines read
from it.

* **Entries and flags.**  ``resacc`` is retention-safe;
  ``powerpush`` has a blocked batch solve; a custom callable is an entry
  with every flag off that keeps its own signature.
* **Call-time lookup.**  Entries resolve ``powerpush`` /
  ``powerpush_batch`` / ``answer_top_k`` from their modules on every
  call, so a patched module attribute is what the engine runs.
* **Top-k validation.**  ``k < 1`` is rejected on every top-k path.
* **Top-k counters.**  Every top-k path counts ``topk_queries`` the same
  way, expired deadlines included, and ``topk_unseparated`` counts only
  computed envelope answers whose set is not certified, never cache
  hits.
"""

from __future__ import annotations

import time

import pytest

from repro.core import solvers
from repro.errors import DeadlineExceededError, ParameterError
from repro.graph import generators
from repro.service import QueryEngine
from repro.serving import ConcurrentQueryEngine


@pytest.fixture
def graph():
    return generators.preferential_attachment(120, 3, seed=7)


def test_named_entries_and_flags(monkeypatch):
    monkeypatch.delenv(solvers.SOLVER_ENV, raising=False)
    resacc, powerpush = solvers.ENTRIES["resacc"], solvers.ENTRIES["powerpush"]
    assert solvers.get(None) is resacc
    assert solvers.get("auto") is resacc
    assert solvers.get(" PowerPush ") is powerpush
    assert (resacc.retention_safe,
            resacc.blocked_batch) == (True, False)
    assert (powerpush.retention_safe,
            powerpush.blocked_batch) == (False, True)
    assert solvers.SOLVERS == ("auto", "resacc", "powerpush")
    with pytest.raises(ParameterError):
        solvers.get("eigensolve")


def test_custom_entry_keeps_its_signature(graph):
    calls = []

    def fn(graph, source, accuracy, seed):
        calls.append((source, accuracy, seed))
        return source

    entry = solvers.get(fn)
    assert (entry.retention_safe, entry.blocked_batch) == (False, False)
    assert entry.solve(graph, 4, accuracy="acc", seed=9, trace=None) == 4
    assert calls == [(4, "acc", 9)]


def test_serve_solver_choices_come_from_registry():
    from repro.server.app import build_parser

    action = next(a for a in build_parser()._actions if a.dest == "solver")
    assert tuple(action.choices) == solvers.SOLVERS


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_entries_resolve_solvers_at_call_time(monkeypatch, graph):
    """A patched module attribute is what the engine runs -- the span
    hooks of an external tracer depend on it."""
    import importlib

    powerpush_mod = importlib.import_module("repro.core.powerpush")
    topk_mod = importlib.import_module("repro.core.topk_solver")
    solo = _counting(monkeypatch, powerpush_mod, "powerpush")
    batch = _counting(monkeypatch, powerpush_mod, "powerpush_batch")
    topk = _counting(monkeypatch, topk_mod, "answer_top_k")
    with ConcurrentQueryEngine(graph, solver="powerpush") as engine:
        engine.query(0)
        engine.query_batch([1, 2, 3])
        engine.top_k(0, 5)
    with ConcurrentQueryEngine(graph, solver="resacc") as engine:
        engine.top_k(0, 5)
    assert solo == ["powerpush"]
    assert batch == ["powerpush_batch"]
    assert topk == ["answer_top_k", "answer_top_k"]


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("mode", ["auto", "full"])
@pytest.mark.parametrize("name", sorted(solvers.ENTRIES))
def test_top_k_rejects_k_below_one(graph, name, mode, k):
    with ConcurrentQueryEngine(graph, solver=name) as engine:
        with pytest.raises(ParameterError):
            engine.top_k(0, k, mode=mode)
        assert engine.stats.queries == 0  # rejected before any solve


@pytest.mark.parametrize("k", [0, -3])
def test_top_k_rejects_k_below_one_custom_and_facade(graph, k):
    from repro.core import resacc

    def custom(graph, source, accuracy, seed):
        return resacc(graph, source, accuracy=accuracy, seed=seed)

    with ConcurrentQueryEngine(graph, solver=custom) as engine:
        with pytest.raises(ParameterError):
            engine.top_k(0, k)
    with QueryEngine(graph, solver="powerpush") as engine:
        with pytest.raises(ParameterError):
            engine.top_k(0, k)


@pytest.mark.parametrize("name, mode", [("powerpush", "auto"),
                                        ("resacc", "full")])
def test_full_path_top_k_counts_only_computed_answers(graph, name, mode):
    """Both top-k paths cache their answer; only the computed envelope
    answer can count as unseparated."""
    torus = generators.grid(6, 6, torus=True)
    with ConcurrentQueryEngine(torus, solver=name) as engine:
        for _ in range(4):
            # k = 3 splits the source's four exactly tied neighbours.
            answer = engine.top_k(0, 3, mode=mode)
            assert answer.path == ("topk" if mode == "auto" else "full")
            assert answer.separated is False
        assert engine.stats.solver_calls == 1
        assert engine.stats.topk_queries == 4
        assert engine.stats.cache_hits == 3
        assert engine.stats.topk_unseparated == (mode == "auto")


@pytest.mark.parametrize("name, mode", [("powerpush", "auto"),
                                        ("resacc", "full"),
                                        ("resacc", "auto")])
def test_expired_top_k_counts_as_a_top_k_query(graph, name, mode):
    with ConcurrentQueryEngine(graph, solver=name) as engine:
        with pytest.raises(DeadlineExceededError):
            engine.top_k(0, 5, mode=mode, deadline=time.monotonic() - 1)
        assert engine.stats.queries == 1
        assert engine.stats.topk_queries == 1
        assert engine.stats.deadline_exceeded == 1
