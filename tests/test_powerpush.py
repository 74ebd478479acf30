"""PowerPush solver: accuracy contract, blocked batching, resolution.

Three contracts under test:

* **Definition 1, deterministically.**  PowerPush stops at
  ``r_sum <= eps * delta`` with non-negative residues, so its reserve
  underestimates the true vector by at most ``eps * delta`` per node --
  with probability 1, no walks.  Verified against the power-iteration
  ground truth over three graph families x three accuracy settings, and
  at a near-machine-precision accuracy where the estimates must land
  within ``1e-12`` of the exact fixpoint.

* **Blocked == solo, byte for byte.**  ``powerpush_batch`` solves B
  sources as one ``(n, B)`` blocked sweep; every per-source vector must
  be bit-identical to a solo ``powerpush`` call (which runs the same
  kernel at width 1).  This is the serving tier's determinism contract
  extended to the batch path.

* **Solver resolution.**  ``REPRO_SOLVER`` / ``solver=`` resolve through
  one funnel shared by ``msrwr``, ``QueryEngine`` and the serving
  engines; ``"auto"`` means the paper default (ResAcc).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.power import power_iteration
from repro.core import AccuracyParams, msrwr, powerpush, powerpush_batch
from repro.core.solvers import SOLVER_ENV, get_solver, resolve_solver
from repro.core.resacc import resacc
from repro.errors import ParameterError
from repro.graph import generators
from repro.push.kernels import get_push_cache, release_push_cache

GRAPHS = {
    "ba": lambda: generators.preferential_attachment(300, 3, seed=7),
    "power_law": lambda: generators.directed_power_law(250, 5, seed=11),
    "grid": lambda: generators.grid(12, 12, torus=True),
}

ACCURACIES = {
    "paper": lambda n: AccuracyParams.paper_defaults(n),
    "loose-delta": lambda n: AccuracyParams(eps=0.5, delta=10.0 / n,
                                            p_f=1.0 / n),
    "tight-eps": lambda n: AccuracyParams(eps=0.25, delta=5.0 / n,
                                          p_f=1.0 / n),
}

SOURCES = (0, 17, 99)


def _truth(graph, source, tol=1e-14):
    return power_iteration(graph, source, alpha=0.2, tol=tol,
                           max_iters=100_000).estimates


# ----------------------------------------------------------------------
# Accuracy contract vs. the exact fixpoint
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("accuracy_name", sorted(ACCURACIES))
def test_definition1_deterministic_vs_exact(graph_name, accuracy_name):
    graph = GRAPHS[graph_name]()
    accuracy = ACCURACIES[accuracy_name](graph.n)
    tol = accuracy.eps * accuracy.delta
    for source in SOURCES:
        result = powerpush(graph, source, accuracy=accuracy)
        truth = _truth(graph, source)
        gap = truth - result.estimates
        # Reserve underestimates: non-negative gap, bounded by r_sum.
        assert float(gap.min()) >= -1e-13
        assert float(np.abs(gap).max()) <= tol + 1e-13, (
            f"{graph_name}/{accuracy_name}: source {source} violates "
            f"the deterministic eps*delta bound"
        )
        assert result.walks_used == 0
        assert result.extras["r_sum"] <= tol


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_near_exact_accuracy_matches_fixpoint_1e12(graph_name):
    """Driving the stopping tolerance to ~1e-13 must land the estimates
    within 1e-12 of the exact fixpoint (the PR-4 gated bound)."""
    graph = GRAPHS[graph_name]()
    accuracy = AccuracyParams(eps=1e-10, delta=1e-3, p_f=1.0 / graph.n)
    for source in SOURCES:
        result = powerpush(graph, source, accuracy=accuracy)
        truth = _truth(graph, source)
        assert float(np.abs(truth - result.estimates).max()) <= 1e-12


def test_powerpush_and_resacc_share_the_contract():
    """Both solvers satisfy Definition 1 for the same inputs, so their
    answers can differ by at most the sum of their error budgets."""
    graph = GRAPHS["ba"]()
    accuracy = ACCURACIES["paper"](graph.n)
    tol = accuracy.eps * accuracy.delta
    for source in SOURCES:
        a = powerpush(graph, source, accuracy=accuracy)
        b = resacc(graph, source, accuracy=accuracy, seed=0)
        truth = _truth(graph, source)
        assert float(np.abs(truth - a.estimates).max()) <= tol + 1e-13
        # ResAcc's bound is probabilistic (eps * pi relative); a generous
        # absolute cap suffices to catch a broken solver.
        assert float(np.abs(a.estimates - b.estimates).max()) <= 0.5


def test_mass_is_conserved():
    """Estimates sum to 1 minus the unsettled residue, never more."""
    graph = GRAPHS["ba"]()
    for accuracy_name in sorted(ACCURACIES):
        accuracy = ACCURACIES[accuracy_name](graph.n)
        result = powerpush(graph, 3, accuracy=accuracy)
        missing = 1.0 - float(result.estimates.sum())
        assert -1e-12 <= missing <= result.extras["r_sum"] + 1e-12


def test_phase_structure_and_extras():
    graph = GRAPHS["power_law"]()
    result = powerpush(graph, 5)
    assert result.algorithm == "powerpush"
    assert set(result.phase_seconds) == {"localpush", "power"}
    for key in ("r_sum", "sweeps", "tol", "switched", "local_rounds"):
        assert key in result.extras
    assert result.extras["sweeps"] >= 0


# ----------------------------------------------------------------------
# Blocked batch == solo loop, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("accuracy_name", sorted(ACCURACIES))
def test_blocked_batch_bytes_equal_solo(graph_name, accuracy_name):
    graph = GRAPHS[graph_name]()
    accuracy = ACCURACIES[accuracy_name](graph.n)
    sources = [0, 3, 17, 42, 99, 120, 7, 64]
    solo = [powerpush(graph, s, accuracy=accuracy) for s in sources]
    batch = powerpush_batch(graph, sources, accuracy=accuracy)
    assert len(batch) == len(sources)
    for s, want, got in zip(sources, solo, batch):
        assert got.source == s
        assert want.estimates.tobytes() == got.estimates.tobytes(), (
            f"{graph_name}/{accuracy_name}: blocked source {s} diverges "
            f"from the width-1 solve"
        )
        assert want.extras["sweeps"] == got.extras["sweeps"]


def test_block_width_does_not_change_bytes():
    """Sub-batches of different widths produce the same bytes as the
    full batch -- the kernel's accumulation order is width-independent,
    which is what lets sources drop out of the block early."""
    graph = GRAPHS["ba"]()
    sources = list(range(0, 24))
    full = powerpush_batch(graph, sources)
    for width in (1, 3, 7):
        chunks = [sources[i:i + width]
                  for i in range(0, len(sources), width)]
        partial = [r for c in chunks for r in powerpush_batch(graph, c)]
        for want, got in zip(full, partial):
            assert want.estimates.tobytes() == got.estimates.tobytes()


def test_batch_validates_all_sources_up_front():
    graph = GRAPHS["ba"]()
    with pytest.raises(ParameterError):
        powerpush_batch(graph, [0, graph.n + 1, 2])
    with pytest.raises(ParameterError):
        powerpush_batch(graph, [])


# ----------------------------------------------------------------------
# Scratch lifecycle: pooled blocks retire with the snapshot cache
# ----------------------------------------------------------------------
def test_blocked_scratch_retires_on_release():
    graph = GRAPHS["ba"]()
    powerpush_batch(graph, [0, 1, 2, 3])
    cache = get_push_cache(graph)
    assert len(cache._block_pool) > 0       # leased blocks were returned
    assert len(cache._power_ops) == 1       # cached A^T operator
    release_push_cache(graph)
    assert len(cache._block_pool) == 0
    assert len(cache._power_ops) == 0


def test_mutation_mid_batch_sequence_stays_correct():
    """The serving engine retires the snapshot's pooled block scratch
    inside the write gate; a batch after the mutation must match fresh
    solo solves on the mutated graph bit for bit."""
    from repro.service import QueryEngine
    from repro.serving import ConcurrentQueryEngine

    graph = GRAPHS["ba"]()
    sources = [2, 9, 33, 150]
    with ConcurrentQueryEngine(graph, solver="powerpush",
                               max_workers=3) as engine:
        engine.query_batch(sources)
        assert engine.add_edge(0, 299)
        after = engine.query_batch(sources)
        reference = QueryEngine(engine.graph, solver="powerpush",
                                cache_size=0)
        for s, got in zip(sources, after):
            want = reference.query(s)
            assert want.estimates.tobytes() == got.estimates.tobytes()


# ----------------------------------------------------------------------
# Solver resolution and the MSRWR fast path
# ----------------------------------------------------------------------
def test_resolve_solver_funnel(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV, raising=False)
    assert resolve_solver(None) == "resacc"
    assert resolve_solver("auto") == "resacc"
    assert resolve_solver("resacc") == "resacc"
    assert resolve_solver(" PowerPush ") == "powerpush"
    monkeypatch.setenv(SOLVER_ENV, "powerpush")
    assert resolve_solver(None) == "powerpush"
    assert resolve_solver("resacc") == "resacc"  # explicit beats env
    with pytest.raises(ParameterError):
        resolve_solver("eigensolve")
    monkeypatch.setenv(SOLVER_ENV, "bogus")
    with pytest.raises(ParameterError):
        resolve_solver(None)


def test_get_solver_returns_callables():
    assert get_solver("powerpush") is powerpush
    assert get_solver("resacc") is not powerpush


def test_msrwr_powerpush_uses_blocked_batch():
    graph = GRAPHS["ba"]()
    sources = [0, 17, 99, 42]
    result = msrwr(graph, sources, solver="powerpush")
    batch = powerpush_batch(graph, sources)
    for i, want in enumerate(batch):
        assert result.matrix[i].tobytes() == want.estimates.tobytes()
        assert result.for_source(sources[i]).tobytes() == \
            want.estimates.tobytes()
    with pytest.raises(ParameterError):
        result.for_source(5)


def test_msrwr_env_resolution(monkeypatch):
    graph = GRAPHS["grid"]()
    sources = [0, 5]
    monkeypatch.setenv(SOLVER_ENV, "powerpush")
    via_env = msrwr(graph, sources)
    explicit = msrwr(graph, sources, solver="powerpush")
    assert via_env.matrix.tobytes() == explicit.matrix.tobytes()


def test_query_engine_solver_names(monkeypatch):
    from repro.service import QueryEngine

    graph = GRAPHS["ba"]()
    direct = QueryEngine(graph, solver="powerpush").query(3)
    assert direct.algorithm == "powerpush"
    monkeypatch.setenv(SOLVER_ENV, "powerpush")
    via_env = QueryEngine(graph).query(3)
    assert via_env.estimates.tobytes() == direct.estimates.tobytes()
    monkeypatch.delenv(SOLVER_ENV)
    default = QueryEngine(graph).query(3)
    assert default.algorithm == "resacc"
    with pytest.raises(ParameterError):
        QueryEngine(graph, solver="bogus")
