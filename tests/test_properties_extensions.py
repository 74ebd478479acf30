"""Property-based tests for the extension subsystems (weighted, PPR,
SCC, builder)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ppr import exact_ppr, normalize_preference
from repro.graph import (
    GraphBuilder,
    from_edges,
    strongly_connected_labels,
    weakly_connected_labels,
)
from repro.weighted import (
    from_weighted_edges,
    weighted_forward_push,
    weighted_init_state,
    weighted_power_iteration,
)

ALPHA = 0.2

common = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def unweighted_graphs(draw, min_n=2, max_n=30):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    num_edges = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=num_edges, max_size=num_edges,
    ))
    return from_edges(n, edges)


@st.composite
def weighted_graphs(draw, min_n=2, max_n=25):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    num_edges = draw(st.integers(min_value=0, max_value=3 * n))
    triples = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.floats(min_value=0.01, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=num_edges, max_size=num_edges,
    ))
    return from_weighted_edges(n, triples)


# ----------------------------------------------------------------------
# Weighted kernels
# ----------------------------------------------------------------------
@common
@given(weighted_graphs(), st.integers(0, 10_000))
def test_weighted_push_conserves_mass(wg, seed):
    source = seed % wg.n
    reserve, residue = weighted_init_state(wg, source)
    weighted_forward_push(wg, reserve, residue, ALPHA, 1e-4)
    assert reserve.sum() + residue.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(reserve >= 0) and np.all(residue >= -1e-15)


@common
@given(weighted_graphs(max_n=15), st.integers(0, 10_000))
def test_weighted_power_is_distribution(wg, seed):
    source = seed % wg.n
    result = weighted_power_iteration(wg, source, tol=1e-12)
    assert result.estimates.sum() == pytest.approx(1.0, abs=1e-9)
    assert result.estimates.min() >= 0


@common
@given(weighted_graphs(max_n=15), st.integers(0, 10_000))
def test_weighted_push_invariant_against_power(wg, seed):
    source = seed % wg.n
    reserve, residue = weighted_init_state(wg, source)
    weighted_forward_push(wg, reserve, residue, ALPHA, 1e-3)
    combined = reserve.copy()
    for v in np.flatnonzero(residue > 0):
        combined += residue[v] * weighted_power_iteration(
            wg, int(v), tol=1e-12).estimates
    truth = weighted_power_iteration(wg, source, tol=1e-12).estimates
    assert np.max(np.abs(combined - truth)) < 1e-8


@common
@given(weighted_graphs())
def test_alias_tables_probabilities_valid(wg):
    prob, alias = wg.alias_tables()
    assert np.all(prob >= 0) and np.all(prob <= 1.0 + 1e-12)
    if wg.m:
        assert alias.min() >= 0 and alias.max() < wg.m


# ----------------------------------------------------------------------
# Preference-vector PPR
# ----------------------------------------------------------------------
@common
@given(unweighted_graphs(max_n=15),
       st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
       st.integers(0, 10_000))
def test_exact_ppr_linearity(g, raw_nodes, extra_seed):
    del extra_seed
    nodes = [v % g.n for v in raw_nodes]
    combined = exact_ppr(g, nodes, alpha=ALPHA)
    vector = normalize_preference(g, nodes)
    expected = np.zeros(g.n)
    for v in np.flatnonzero(vector > 0):
        expected += vector[v] * exact_ppr(g, [int(v)], alpha=ALPHA)
    assert np.max(np.abs(combined - expected)) < 1e-9


@common
@given(unweighted_graphs(max_n=15),
       st.lists(st.integers(0, 10_000), min_size=1, max_size=4))
def test_exact_ppr_is_distribution(g, raw_nodes):
    nodes = [v % g.n for v in raw_nodes]
    pi = exact_ppr(g, nodes, alpha=ALPHA)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    assert pi.min() >= 0


# ----------------------------------------------------------------------
# Connectivity structure
# ----------------------------------------------------------------------
@common
@given(unweighted_graphs())
def test_scc_refines_weak_components(g):
    weak = weakly_connected_labels(g)
    strong = strongly_connected_labels(g)
    # Nodes in the same SCC must share a weak component.
    for label in range(int(strong.max()) + 1):
        members = np.flatnonzero(strong == label)
        assert len(set(weak[members].tolist())) == 1


@common
@given(unweighted_graphs())
def test_scc_edges_never_point_to_larger_label(g):
    labels = strongly_connected_labels(g)
    for u, v in g.edges():
        if labels[u] != labels[v]:
            # Tarjan labels are reverse-topological.
            assert labels[u] > labels[v]


@common
@given(unweighted_graphs())
def test_builder_roundtrip_any_graph(g):
    rebuilt = GraphBuilder(graph=g).build()
    assert rebuilt == g


@common
@given(unweighted_graphs(),
       st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                max_size=8))
def test_builder_add_remove_inverse(g, extra_edges):
    builder = GraphBuilder(graph=g)
    added = []
    for u, v in extra_edges:
        u, v = u % g.n, v % g.n
        if u == v:
            continue
        if builder.add_edge(u, v):
            added.append((u, v))
    for u, v in added:
        assert builder.remove_edge(u, v)
    assert builder.build() == g


@st.composite
def edit_sequences(draw, max_len=12):
    """``(kind, u, v)`` engine edits over ids that may lie past ``n``
    (growing adds, out-of-range removals) or be negative."""
    ids = st.integers(-2, 35)
    kinds = st.sampled_from(["add", "add_undirected", "remove",
                             "remove_node"])
    return draw(st.lists(st.tuples(kinds, ids, ids), max_size=max_len))


@common
@given(unweighted_graphs(), st.sampled_from(["absorb", "restart"]),
       edit_sequences())
def test_engine_edits_replay_like_builder(g, dangling, edits):
    """Both engine inputs -- canonicalised in-memory and mmap served
    as-is -- return what a GraphBuilder replay returns and hold its
    bytes after every edit; a rejected add changes nothing."""
    import pathlib
    import tempfile

    from repro.errors import GraphFormatError
    from repro.graph import load_mmap, save_mmap
    from repro.serving import ConcurrentQueryEngine

    g = g.with_dangling(dangling)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "g.rcsr"
        save_mmap(g, path)
        for start in (g, load_mmap(path)):
            reference = GraphBuilder(graph=g)
            with ConcurrentQueryEngine(start, max_workers=1) as engine:
                epoch = 0
                for kind, u, v in edits:
                    if kind == "remove":
                        want = reference.remove_edge(u, v)
                        got = engine.remove_edge(u, v)
                    elif kind == "remove_node":
                        want = reference.remove_node_edges(u)
                        got = engine.remove_node(u)
                    elif u == v or min(u, v) < 0:
                        with pytest.raises(GraphFormatError):
                            engine.add_edge(u, v)
                        continue
                    elif kind == "add":
                        want = reference.add_edge(u, v, grow=True)
                        got = engine.add_edge(u, v)
                    else:
                        want = reference.add_undirected_edge(u, v,
                                                             grow=True)
                        got = engine.add_edge(u, v, undirected=True)
                    assert got == want
                    epoch += bool(want)
                    assert engine.epoch == epoch
                    built, served = reference.build(), engine.graph
                    assert served.n == built.n
                    assert served.dangling == built.dangling
                    assert served.indptr.tobytes() == built.indptr.tobytes()
                    assert (served.indices.tobytes()
                            == built.indices.tobytes())


# ----------------------------------------------------------------------
# Result and report invariants
# ----------------------------------------------------------------------
@common
@given(unweighted_graphs(max_n=20), st.integers(0, 10_000),
       st.integers(0, 100))
def test_serialize_roundtrip_any_result(g, seed, rng_seed):
    from repro.core import AccuracyParams, load_result, resacc, save_result
    import tempfile
    import pathlib

    source = seed % g.n
    acc = AccuracyParams(eps=0.5, delta=0.1, p_f=0.1)
    result = resacc(g, source, accuracy=acc, seed=rng_seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_result(result, pathlib.Path(tmp) / "r.npz")
        loaded = load_result(path)
    assert np.array_equal(loaded.estimates, result.estimates)
    assert loaded.source == result.source


@common
@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                min_size=2, max_size=40),
       st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                min_size=2, max_size=40),
       st.integers(1, 50))
def test_ndcg_permutation_invariance_of_ties(truth_list, est_list, k):
    from repro.metrics import ndcg_at_k

    n = min(len(truth_list), len(est_list))
    truth = np.array(truth_list[:n])
    est = np.array(est_list[:n])
    base = ndcg_at_k(truth, est, k)
    # Scaling by 2 is exact in floating point, so the ranking (including
    # its tie structure) is bit-identical.  (An additive shift would NOT
    # be: it can collapse near-ties and legitimately change the order.)
    scaled = ndcg_at_k(truth, est * 2.0, k)
    assert base == pytest.approx(scaled)


@common
@given(st.lists(st.floats(min_value=1e-9, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=30))
def test_boxplot_summary_ordering(values):
    from repro.metrics import boxplot_summary

    summary = boxplot_summary(values)
    assert summary.minimum <= summary.q1 <= summary.median \
        <= summary.q3 <= summary.maximum
    assert summary.iqr >= 0


# ----------------------------------------------------------------------
# h-HopFWD updating-phase invariant (Appendix-Q scaler)
# ----------------------------------------------------------------------

def test_hhop_updating_phase_conserves_unit_mass():
    """After h-HopFWD's updating phase, ``sum(reserve) + sum(residue)``
    must equal 1 to within 1e-12.

    This pins the Appendix-Q geometric scaler
    ``S = (1 - r1^T) / (1 - r1)`` (DESIGN.md): the form the paper prints
    in Algorithm 3, ``(1 - r1^(T-1)) / (1 - r1)``, breaks exact mass
    conservation, so any regression toward it fails here.  Driven by
    plain ``random`` (no hypothesis) so the trial set is a fixed,
    reproducible sweep over graph shapes, hop depths and thresholds.
    """
    import random as plain_random

    from repro.core.hhop import h_hop_forward
    from repro.push import init_state

    rng = plain_random.Random(20260807)
    for trial in range(40):
        n = rng.randint(2, 60)
        num_edges = rng.randint(0, 4 * n)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(num_edges)]
        dangling = rng.choice(["absorb", "restart"])
        graph = from_edges(n, edges, dangling=dangling)
        source = rng.randrange(n)
        h = rng.randint(0, 3)
        r_max_hop = rng.choice([1e-14, 1e-10, 1e-6])
        method = rng.choice(["frontier", "queue"])
        reserve, residue = init_state(graph, source)
        outcome = h_hop_forward(graph, source, ALPHA, r_max_hop, h,
                                reserve, residue, method=method)
        total = float(reserve.sum() + residue.sum())
        assert abs(total - 1.0) <= 1e-12, (
            f"trial {trial}: mass {total} (n={n}, m={graph.m}, h={h}, "
            f"r_max_hop={r_max_hop}, source={source}, "
            f"dangling={dangling}, scaler={outcome.scaler}, "
            f"T={outcome.num_rounds})"
        )
        assert outcome.num_rounds >= 1
        # The geometric sum of T terms of r1 < 1 is always >= 1.
        assert outcome.scaler >= 1.0
