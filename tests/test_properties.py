"""Property-based tests (hypothesis) on the library's core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.inverse import ExactSolver
from repro.baselines.power import power_iteration
from repro.core import AccuracyParams, resacc, top_k_order
from repro.core.hhop import h_hop_forward
from repro.graph import from_edges, graph_digest, hop_structure
from repro.graph.hop import UNREACHED, expand_ranges
from repro.metrics.ranking import ndcg_at_k
from repro.push import forward_push_loop, init_state, push_thresholds
from repro.walks import walk_terminal_mass

ALPHA = 0.2

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
node_counts = st.integers(min_value=2, max_value=40)


@st.composite
def graphs(draw, min_n=2, max_n=40):
    """Random directed graphs, possibly with dangling nodes."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    num_edges = draw(st.integers(min_value=0, max_value=4 * n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=num_edges, max_size=num_edges,
        )
    )
    return from_edges(n, edges)


common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Graph-structure properties
# ----------------------------------------------------------------------
@common
@given(graphs())
def test_graph_has_no_self_loops_and_valid_targets(g):
    for v in range(g.n):
        nbrs = g.out_neighbors(v)
        assert np.all(nbrs != v)
        if nbrs.size:
            assert nbrs.min() >= 0 and nbrs.max() < g.n


@common
@given(graphs())
def test_reverse_preserves_edge_multiset(g):
    reversed_edges = sorted((int(b), int(a)) for a, b in g.edges())
    assert sorted(g.reverse().edges()) == reversed_edges


@common
@given(graphs())
def test_digest_deterministic(g):
    assert graph_digest(g) == graph_digest(g)


@common
@given(graphs(), st.integers(0, 1_000_000), st.integers(0, 4))
def test_hop_layers_partition_reachable_set(g, seed, max_hops):
    source = seed % g.n
    hops = hop_structure(g, source, max_hops)
    reached = hops.distances >= 0
    union = np.zeros(g.n, dtype=bool)
    for i in range(max_hops + 1):
        layer = hops.layer(i)
        assert not union[layer].any()     # layers are disjoint
        union[layer] = True
    assert np.array_equal(union, reached)  # and they cover the hop set


@common
@given(graphs(), st.integers(0, 1_000_000))
def test_hop_distances_respect_edges(g, seed):
    source = seed % g.n
    hops = hop_structure(g, source, g.n)
    dist = hops.distances
    for u, v in g.edges():
        if dist[u] != UNREACHED:
            assert dist[v] != UNREACHED
            assert dist[v] <= dist[u] + 1


@common
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 6)),
                max_size=20))
def test_expand_ranges_matches_naive(pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    counts = np.array([p[1] for p in pairs], dtype=np.int64)
    naive = [x for s, c in pairs for x in range(s, s + c)]
    assert list(expand_ranges(starts, counts)) == naive


# ----------------------------------------------------------------------
# Push-kernel properties
# ----------------------------------------------------------------------
@common
@given(graphs(), st.integers(0, 1_000_000),
       st.sampled_from([1e-2, 1e-4, 1e-6]),
       st.sampled_from(["frontier", "queue"]))
def test_push_conserves_mass_and_stops(g, seed, r_max, method):
    source = seed % g.n
    reserve, residue = init_state(g, source)
    forward_push_loop(g, reserve, residue, ALPHA, r_max, source=source,
                      method=method)
    assert reserve.sum() + residue.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(residue < push_thresholds(g, r_max))
    assert np.all(reserve >= 0) and np.all(residue >= -1e-15)


@common
@given(graphs(max_n=20), st.integers(0, 1_000_000))
def test_push_invariant_against_power(g, seed):
    source = seed % g.n
    reserve, residue = init_state(g, source)
    forward_push_loop(g, reserve, residue, ALPHA, 1e-3, source=source)
    combined = reserve.copy()
    for v in np.flatnonzero(residue > 0):
        combined += residue[v] * power_iteration(
            g, int(v), alpha=ALPHA, tol=1e-12).estimates
    truth = power_iteration(g, source, alpha=ALPHA, tol=1e-12).estimates
    assert np.max(np.abs(combined - truth)) < 1e-8


@common
@given(graphs(max_n=25), st.integers(0, 1_000_000), st.integers(0, 3))
def test_hhop_preserves_mass(g, seed, h):
    source = seed % g.n
    reserve, residue = init_state(g, source)
    h_hop_forward(g, source, ALPHA, 1e-5, h, reserve, residue)
    assert reserve.sum() + residue.sum() == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# Solver properties
# ----------------------------------------------------------------------
@common
@given(graphs(max_n=25), st.integers(0, 1_000_000))
def test_exact_solver_matches_power_everywhere(g, seed):
    source = seed % g.n
    direct = ExactSolver(g, ALPHA).query(source).estimates
    iterated = power_iteration(g, source, alpha=ALPHA, tol=1e-13).estimates
    assert np.max(np.abs(direct - iterated)) < 1e-9


@common
@given(graphs(max_n=25), st.integers(0, 1_000_000), st.integers(0, 100))
def test_resacc_probability_vector(g, seed, rng_seed):
    source = seed % g.n
    acc = AccuracyParams(eps=0.5, delta=0.05, p_f=0.05)
    result = resacc(g, source, accuracy=acc, seed=rng_seed)
    assert result.estimates.min() >= -1e-12
    assert result.estimates.sum() == pytest.approx(1.0, abs=1e-9)


@common
@given(graphs(max_n=20), st.integers(0, 1_000_000), st.integers(0, 50))
def test_walks_terminate_and_conserve(g, seed, rng_seed):
    source = seed % g.n
    starts = np.full(64, source, dtype=np.int64)
    mass = walk_terminal_mass(g, starts, ALPHA,
                              np.random.default_rng(rng_seed))
    assert mass.sum() == pytest.approx(64.0)


# ----------------------------------------------------------------------
# Top-k ordering
# ----------------------------------------------------------------------
#: Few distinct values, so ties, signed zeros and NaNs are common.
score_pool = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, np.nan])


@st.composite
def score_arrays(draw):
    """Float arrays drawn from ``score_pool`` or from all floats, or
    integer arrays with many ties."""
    n = draw(st.integers(min_value=1, max_value=60))
    kind = draw(st.sampled_from(["pool", "floats", "ints"]))
    if kind == "ints":
        values = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return np.asarray(values, dtype=np.int64)
    elements = score_pool if kind == "pool" else st.floats(width=64)
    values = draw(st.lists(elements, min_size=n, max_size=n))
    return np.asarray(values, dtype=np.float64)


def k_for(n, choice, anywhere):
    """``k`` named by ``choice``: 1, n-1, n, past n, or any in 1..n."""
    return {"1": 1, "n-1": max(n - 1, 1), "n": n, ">n": n + 3,
            "any": 1 + anywhere % n}[choice]


@settings(max_examples=300, deadline=None)
@given(score_arrays(), st.sampled_from(["1", "n-1", "n", ">n", "any"]),
       st.integers(0, 1_000))
@example(np.zeros(7), "any", 2)                            # all equal
@example(np.array([0.0, -0.0, 0.0, -0.0]), "any", 1)       # signed zeros
@example(np.array([0.5, np.nan, np.nan, 0.2]), "any", 2)   # k-th is NaN
@example(np.array([np.nan, np.nan, np.nan]), "1", 0)
@example(np.array([3, 1, 3, 2], dtype=np.int64), "n-1", 0)
def test_top_k_order_matches_stable_argsort(estimates, choice, anywhere):
    k = k_for(estimates.shape[0], choice, anywhere)
    want = np.argsort(-estimates, kind="stable")[:k]
    got = top_k_order(estimates, k)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


# ----------------------------------------------------------------------
# Metric properties
# ----------------------------------------------------------------------
@common
@given(st.integers(2, 60), st.integers(1, 80), st.integers(0, 10_000))
def test_ndcg_bounds_and_perfection(n, k, seed):
    gen = np.random.default_rng(seed)
    truth = gen.random(n)
    estimate = gen.random(n)
    value = ndcg_at_k(truth, estimate, k)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert ndcg_at_k(truth, truth, k) == pytest.approx(1.0)


@common
@given(st.integers(2, 40), st.integers(0, 10_000))
def test_scaling_estimate_keeps_ndcg(n, seed):
    gen = np.random.default_rng(seed)
    truth = gen.random(n)
    estimate = gen.random(n)
    a = ndcg_at_k(truth, estimate, n)
    b = ndcg_at_k(truth, estimate * 7.5, n)
    assert a == pytest.approx(b)
