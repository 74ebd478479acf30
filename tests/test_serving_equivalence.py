"""Sequential ≡ parallel equivalence: the serving determinism contract.

``ConcurrentQueryEngine.query_batch`` must produce estimate vectors that
are *byte-identical* to a sequential loop over ``QueryEngine.query`` for
fixed seeds -- regardless of worker count, thread scheduling, or
duplicate requests.  This is what makes the concurrent path trustworthy:
every accuracy statement proven for the sequential solver transfers
verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AccuracyParams
from repro.graph import generators
from repro.service import QueryEngine
from repro.serving import ConcurrentQueryEngine

GRAPHS = {
    "ba": lambda: generators.preferential_attachment(300, 3, seed=7),
    "power_law": lambda: generators.directed_power_law(250, 5, seed=11),
    "sbm": lambda: generators.stochastic_block_model(
        [60, 60, 60], 0.08, 0.01, seed=5
    ),
    "grid": lambda: generators.grid(12, 12, torus=True),
}

ACCURACIES = {
    "paper": lambda n: AccuracyParams.paper_defaults(n),
    "loose-delta": lambda n: AccuracyParams(eps=0.5, delta=10.0 / n,
                                            p_f=1.0 / n),
    "tight-eps": lambda n: AccuracyParams(eps=0.25, delta=5.0 / n,
                                          p_f=1.0 / n),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("accuracy_name", sorted(ACCURACIES))
def test_batched_equals_sequential_bytes(graph_name, accuracy_name):
    graph = GRAPHS[graph_name]()
    accuracy = ACCURACIES[accuracy_name](graph.n)
    sources = [0, 3, 17, 42, 3, 0, 99, 17]  # duplicates on purpose
    sequential = QueryEngine(graph, accuracy=accuracy, cache_size=0,
                             seed=9)
    expected = [sequential.query(s) for s in sources]
    with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=9,
                               max_workers=4) as engine:
        batched = engine.query_batch(sources)
    assert len(batched) == len(sources)
    for source, want, got in zip(sources, expected, batched):
        assert got.source == source
        assert want.estimates.tobytes() == got.estimates.tobytes(), (
            f"{graph_name}/{accuracy_name}: batched estimates for source "
            f"{source} diverge from the sequential loop"
        )


def test_batch_results_in_input_order():
    graph = GRAPHS["ba"]()
    sources = [250, 1, 123, 7, 1, 250]
    with ConcurrentQueryEngine(graph, seed=2, max_workers=4) as engine:
        results = engine.query_batch(sources)
    assert [r.source for r in results] == sources
    # Duplicate positions share one computation (and one object).
    assert results[0] is results[5]
    assert results[1] is results[4]


def test_repeat_runs_are_reproducible():
    """Same engine seed, fresh engines: byte-identical batches."""
    graph = GRAPHS["power_law"]()
    sources = [5, 80, 5, 33]
    outputs = []
    for _ in range(2):
        with ConcurrentQueryEngine(graph, seed=4, max_workers=3) as eng:
            outputs.append(eng.query_batch(sources))
    for first, second in zip(*outputs):
        assert first.estimates.tobytes() == second.estimates.tobytes()


def test_worker_count_does_not_change_answers():
    graph = GRAPHS["sbm"]()
    accuracy = AccuracyParams.paper_defaults(graph.n)
    sources = list(range(0, 40, 5))
    reference = None
    for workers in (1, 2, 8):
        with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=6,
                                   max_workers=workers) as engine:
            got = [r.estimates for r in engine.query_batch(sources)]
        if reference is None:
            reference = got
        else:
            for want, have in zip(reference, got):
                assert np.array_equal(want, have)


def test_http_round_trip_matches_sequential_float64():
    """The whole network path preserves the determinism contract.

    The server writes each float as the shortest text that round-trips
    the float64, so estimates decoded from the HTTP body and re-packed
    as float64 must be byte-identical to the sequential loop -- the
    acceptance bar for serving over the wire.
    """
    from repro.server import ServerClient, ServerConfig, start_in_thread

    graph = GRAPHS["ba"]()
    accuracy = ACCURACIES["loose-delta"](graph.n)
    sources = [0, 3, 17, 42, 3, 0, 99, 17]
    sequential = QueryEngine(graph, accuracy=accuracy, cache_size=0,
                             seed=9)
    expected = [sequential.query(s) for s in sources]
    engine = ConcurrentQueryEngine(graph, accuracy=accuracy, seed=9,
                                   max_workers=4)
    with start_in_thread(engine, ServerConfig(port=0)) as handle:
        with ServerClient(base_url=handle.url) as client:
            doc = client.query_batch(sources)
    assert doc["errors"] == {}
    for source, want, item in zip(sources, expected, doc["results"]):
        assert item["source"] == source
        got = np.asarray(item["estimates"], dtype=np.float64)
        assert want.estimates.tobytes() == got.tobytes(), (
            f"HTTP estimates for source {source} diverge from the "
            f"sequential loop after the JSON round-trip"
        )


def test_accuracy_override_matches_sequential():
    graph = GRAPHS["ba"]()
    tight = AccuracyParams(eps=0.25, delta=5.0 / graph.n,
                           p_f=1.0 / graph.n)
    sequential = QueryEngine(graph, cache_size=0, seed=3)
    expected = sequential.query(12, accuracy=tight)
    with ConcurrentQueryEngine(graph, seed=3, max_workers=2) as engine:
        got = engine.query_batch([12], accuracy=tight)[0]
    assert expected.estimates.tobytes() == got.estimates.tobytes()


# ----------------------------------------------------------------------
# Top-k answers: one deterministic contract across every engine
# ----------------------------------------------------------------------
def _answers_equal(want, got):
    assert want.nodes.tobytes() == got.nodes.tobytes()
    assert want.values.tobytes() == got.values.tobytes()
    assert want.separated == got.separated
    assert want.path == got.path


@pytest.mark.parametrize("graph_name", ("ba", "grid"))
def test_topk_identical_across_all_engines(graph_name):
    """QueryEngine, ConcurrentQueryEngine and MultiProcessQueryEngine
    return byte-identical top-k answers for the same seed -- the fast
    path's early termination must not depend on where it runs."""
    from repro.serving import MultiProcessQueryEngine

    graph = GRAPHS[graph_name]()
    accuracy = ACCURACIES["tight-eps"](graph.n)
    sources = [0, 7, 42]
    reference = QueryEngine(graph, accuracy=accuracy, seed=9)
    expected = [reference.top_k(s, 5) for s in sources]
    with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=9,
                               max_workers=4) as threads:
        for source, want in zip(sources, expected):
            _answers_equal(want, threads.top_k(source, 5))
    with MultiProcessQueryEngine(graph, accuracy=accuracy, seed=9,
                                 solver_workers=2) as procs:
        for source, want in zip(sources, expected):
            _answers_equal(want, procs.top_k(source, 5))


def test_topk_worker_count_does_not_change_answers():
    graph = GRAPHS["power_law"]()
    accuracy = ACCURACIES["loose-delta"](graph.n)
    reference = None
    for workers in (1, 4):
        with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=6,
                                   max_workers=workers) as engine:
            got = [engine.top_k(s, 8) for s in (2, 30, 77)]
        if reference is None:
            reference = got
        else:
            for want, have in zip(reference, got):
                _answers_equal(want, have)


def test_topk_tie_break_is_stable_across_runs():
    """Exact ties (edgeless graph: every non-source score is 0.0) are
    listed by ascending node id, byte-stable across fresh engines."""
    from repro.graph import from_edges

    graph = from_edges(40, [])
    outputs = []
    for _ in range(2):
        with ConcurrentQueryEngine(graph, seed=4, max_workers=3) as eng:
            outputs.append(eng.top_k(11, 6))
    first, second = outputs
    _answers_equal(first, second)
    assert first.nodes[0] == 11
    assert first.nodes[1:].tolist() == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# PowerPush blocked batches: byte-identical to the per-source loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", ("ba", "power_law", "grid"))
@pytest.mark.parametrize("accuracy_name", sorted(ACCURACIES))
def test_powerpush_blocked_batch_equals_solo_loop(graph_name,
                                                  accuracy_name):
    """A cold ``query_batch`` on a PowerPush engine is solved as one
    blocked multi-source sweep; its answers must be byte-identical to a
    sequential loop of solo PowerPush queries (which run the same kernel
    at block width 1)."""
    graph = GRAPHS[graph_name]()
    accuracy = ACCURACIES[accuracy_name](graph.n)
    sources = [0, 3, 17, 42, 3, 0, 99, 17]  # duplicates on purpose
    solo = QueryEngine(graph, solver="powerpush", accuracy=accuracy,
                       cache_size=0)
    expected = [solo.query(s) for s in sources]
    with ConcurrentQueryEngine(graph, solver="powerpush",
                               accuracy=accuracy,
                               max_workers=4) as engine:
        batched = engine.query_batch(sources)
    assert len(batched) == len(sources)
    for source, want, got in zip(sources, expected, batched):
        assert got.source == source
        assert got.algorithm == "powerpush"
        assert want.estimates.tobytes() == got.estimates.tobytes(), (
            f"{graph_name}/{accuracy_name}: blocked estimates for source "
            f"{source} diverge from the solo loop"
        )


def test_powerpush_blocked_batch_is_one_solver_call():
    """The whole cold unique-source batch costs exactly one blocked
    solve (that is the perf point), and each unique source is a cache
    miss under its own ``(source, accuracy)`` key."""
    graph = GRAPHS["ba"]()
    sources = [2, 9, 33, 150]
    with ConcurrentQueryEngine(graph, solver="powerpush",
                               max_workers=4) as engine:
        engine.query_batch(sources)
        assert engine.stats.solver_calls == 1
        assert engine.stats.cache_misses == len(sources)
        # Second round: everything is served from the cache.
        engine.query_batch(sources)
        assert engine.stats.solver_calls == 1
        assert engine.stats.cache_hits == len(sources)


def test_powerpush_blocked_batch_collect_mode():
    """One invalid source in a block degrades that item only; every
    valid item is still byte-identical to a solo solve (the
    ``on_error="collect"`` contract is solver-independent)."""
    graph = GRAPHS["ba"]()
    bad = graph.n + 5
    sources = [1, bad, 2, 1]
    solo = QueryEngine(graph, solver="powerpush", cache_size=0)
    with ConcurrentQueryEngine(graph, solver="powerpush",
                               max_workers=2) as engine:
        outcome = engine.query_batch(sources, on_error="collect")
    assert list(outcome.errors) == [bad]
    assert "out of range" in outcome.errors[bad]
    assert outcome.results[1] is None
    assert outcome.results[3] is outcome.results[0]  # shared duplicate
    for index in (0, 2):
        want = solo.query(sources[index])
        assert (outcome.results[index].estimates.tobytes()
                == want.estimates.tobytes())


def test_powerpush_blocked_identical_across_all_engines():
    """Threaded and multi-process engines answer a PowerPush batch with
    the same bytes as the sequential engine -- the solve placement
    (inline block, pool-worker block) must not matter."""
    from repro.serving import MultiProcessQueryEngine

    graph = GRAPHS["ba"]()
    sources = [0, 7, 42, 7, 150]
    solo = QueryEngine(graph, solver="powerpush", cache_size=0)
    expected = [solo.query(s) for s in sources]
    with ConcurrentQueryEngine(graph, solver="powerpush",
                               max_workers=3) as threads:
        for want, have in zip(expected, threads.query_batch(sources)):
            assert want.estimates.tobytes() == have.estimates.tobytes()
    with MultiProcessQueryEngine(graph, solver="powerpush",
                                 solver_workers=2) as procs:
        for want, have in zip(expected, procs.query_batch(sources)):
            assert want.estimates.tobytes() == have.estimates.tobytes()


def test_topk_cache_hits_preserve_bytes():
    graph = GRAPHS["ba"]()
    accuracy = ACCURACIES["tight-eps"](graph.n)
    with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=9,
                               max_workers=2) as engine:
        cold = engine.top_k(17, 5)
        hot = engine.top_k(17, 5)
        assert hot is cold          # served from the result cache
        assert engine.stats.cache_hits >= 1
