"""Contract tests for the top-k envelope solver.

The contract under test (``docs/topk.md``), checked against an exact
oracle -- :class:`ExactSolver` under the ``absorb`` dangling policy,
``power_iteration(tol=1e-12)`` under ``restart``:

* the envelope holds: every node's exact score lies in ``[reserve,
  upper]`` at every certificate check (``upper = reserve + residue +
  (r_sum - residue) * b``, the push invariant of Eq. 2 with the
  per-node cap ``b``), and the returned ``lower = values = reserve``;
* ``separated`` is true exactly when ``bound_gap > 0``, and then the
  node *set* equals the exact top-k set;
* every returned value meets Definition 1 from its own bounds,
  ``upper - lower <= eps * max(lower, delta)``;
* answers are pure functions of ``(graph, source, k, accuracy)`` --
  repeated calls are byte-identical and ``seed`` is ignored;
* ties are broken by ascending node id everywhere
  (:func:`repro.core.result.top_k_order` is the library-wide
  contract), and exact ties never separate.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines.inverse import ExactSolver
from repro.baselines.power import power_iteration
from repro.core import AccuracyParams, resacc, top_k_order
from repro.core.result import SSRWRResult
from repro.core.topk_solver import TopKAnswer, answer_top_k
from repro.errors import ParameterError
from repro.graph import from_edges, generators


def _parallel_edge_graph():
    """Edge list with deliberate duplicates (the CSR builder must
    collapse them; the solver sees a simple graph either way)."""
    base = [(u, (u * 7 + 3) % 97) for u in range(97)]
    base += [(u, (u * 3 + 11) % 97) for u in range(97)]
    edges = base + base[::2] + base[:40]     # parallel copies
    return from_edges(97, [e for e in edges if e[0] != e[1]],
                      symmetrize=True)


def _dangling_graph():
    """Directed graph where every 7th node has no out-edges, under the
    ``restart`` policy (dangling mass returns to the source)."""
    rng = np.random.default_rng(3)
    edges = [(u, int(v)) for u in range(160) if u % 7
             for v in rng.integers(0, 160, size=4)]
    return from_edges(160, edges, dangling="restart")


GRAPHS = {
    "ba": lambda: generators.preferential_attachment(300, 3, seed=7),
    "power_law": lambda: generators.directed_power_law(250, 5, seed=11),
    "grid": lambda: generators.grid(12, 12, torus=True),
    "parallel_edge": _parallel_edge_graph,
    "dangling": _dangling_graph,
}

#: Three accuracy regimes: the paper default, a relaxed delta, and a
#: tightened eps.
ACCURACIES = {
    "paper": lambda n: AccuracyParams.paper_defaults(n),
    "loose-delta": lambda n: AccuracyParams.paper_defaults(
        n, delta_scale=10.0),
    "tight-eps": lambda n: AccuracyParams.paper_defaults(
        n, eps=0.2, delta_scale=5.0),
}

KS = (1, 10, 100)
SOURCE = 3


@functools.lru_cache(maxsize=None)
def _oracle(graph_name):
    """``(graph, exact scores of SOURCE)`` for one graph family."""
    graph = GRAPHS[graph_name]()
    if graph.dangling == "absorb":
        exact = ExactSolver(graph).query(SOURCE).estimates
    else:
        exact = power_iteration(graph, SOURCE, tol=1e-12).estimates
    return graph, exact


def _definition1_slack(values, accuracy):
    """``eps * max(value, delta)`` per value, plus float rounding."""
    slack = accuracy.eps * np.maximum(values, accuracy.delta)
    return slack * (1 + 1e-12) + 1e-15


def _answer(graph, k, accuracy_name, **kwargs):
    accuracy = ACCURACIES[accuracy_name](graph.n)
    return answer_top_k(graph, SOURCE, k, accuracy=accuracy, **kwargs)


# ----------------------------------------------------------------------
# The oracle contract: graph families x k x accuracies
# ----------------------------------------------------------------------
class TestTopKProperties:
    @pytest.mark.parametrize("accuracy_name", sorted(ACCURACIES))
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_separated_set_matches_full_solve(self, graph_name, k,
                                              accuracy_name):
        """separated <=> bound_gap > 0, and a separated set is exactly
        the exact solve's top-k set."""
        graph, exact = _oracle(graph_name)
        answer = _answer(graph, k, accuracy_name)
        assert isinstance(answer, TopKAnswer)
        assert answer.path == "topk"
        assert answer.k == min(k, graph.n)
        assert len(answer.nodes) == answer.k
        assert answer.separated == (answer.bound_gap > 0)
        if answer.separated:
            want = set(top_k_order(exact, k).tolist())
            assert set(answer.nodes.tolist()) == want, (
                f"{graph_name}/k={k}/{accuracy_name}: separated top-k set "
                f"diverges from the exact solve"
            )

    def test_dblp_separated_sets_match_exact_solver(self):
        """dblp, 20 ``random_seeds`` sources (seed 0), k=4, eps=0.05:
        every separated set equals the ExactSolver top-k set."""
        from repro.community.seeding import random_seeds
        from repro.datasets import catalog

        graph = catalog.load("dblp")
        accuracy = AccuracyParams.paper_defaults(graph.n, eps=0.05)
        exact = ExactSolver(graph)
        separated = 0
        for source in random_seeds(graph, 20, seed=0):
            answer = answer_top_k(graph, source, 4, accuracy=accuracy)
            if answer.separated:
                separated += 1
                want, _ = exact.query(source).top_k(4)
                assert set(answer.nodes.tolist()) == set(want.tolist()), (
                    f"source {source}: separated top-4 set diverges from "
                    f"the exact solve"
                )
        assert separated > 0

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_bounds_contain_exact_scores(self, graph_name, k):
        """lower <= pi(s, v) <= upper on every returned node, with lower
        = value = reserve, upper - lower <= bound_width = r_sum, and
        upper - lower within Definition 1 of the value."""
        graph, exact = _oracle(graph_name)
        for accuracy_name in sorted(ACCURACIES):
            answer = _answer(graph, k, accuracy_name)
            accuracy = ACCURACIES[accuracy_name](graph.n)
            truth = exact[answer.nodes]
            assert np.all(answer.lower - 1e-12 <= truth), (
                f"{graph_name}/k={k}/{accuracy_name}: lower bound above "
                f"the exact score"
            )
            assert np.all(truth <= answer.upper + 1e-12), (
                f"{graph_name}/k={k}/{accuracy_name}: upper bound below "
                f"the exact score"
            )
            assert answer.lower.tobytes() == answer.values.tobytes()
            assert answer.bound_width == answer.r_sum
            width = answer.upper - answer.lower
            assert np.all(width >= 0)
            assert np.all(width <= answer.r_sum + 1e-15)
            assert np.all(width <= _definition1_slack(answer.lower,
                                                      accuracy))
            assert answer.walks_used == 0

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_repeated_calls_are_byte_identical(self, graph_name):
        """Pure function of (graph, source, k, accuracy): the seed is
        accepted and ignored."""
        graph, _ = _oracle(graph_name)
        for k in KS:
            for accuracy_name in sorted(ACCURACIES):
                first = _answer(graph, k, accuracy_name, seed=13)
                second = _answer(graph, k, accuracy_name, seed=14)
                assert first.separated == second.separated
                assert first.bound_gap == second.bound_gap
                assert first.nodes.tobytes() == second.nodes.tobytes()
                assert first.values.tobytes() == second.values.tobytes()
                assert first.lower.tobytes() == second.lower.tobytes()
                assert first.upper.tobytes() == second.upper.tobytes()
                assert first.pushes == second.pushes


# ----------------------------------------------------------------------
# Bookkeeping and edge cases
# ----------------------------------------------------------------------
class TestTopKAnswer:
    def test_k_at_least_n_is_trivially_separated(self, tiny_graph):
        answer = answer_top_k(tiny_graph, 0, tiny_graph.n + 5)
        assert answer.separated is True
        assert answer.k == tiny_graph.n
        assert answer.bound_gap == float("inf")
        assert sorted(answer.nodes.tolist()) == list(range(tiny_graph.n))

    def test_answer_reports_work_spent(self):
        graph = GRAPHS["ba"]()
        accuracy = ACCURACIES["tight-eps"](graph.n)
        answer = answer_top_k(graph, 0, 1, accuracy=accuracy)
        assert answer.pushes > 0
        assert answer.rounds == answer.extras["checks"] >= 1
        assert answer.extras["sweeps"] >= 0
        assert answer.walks_used == 0
        assert answer.bound_width == answer.r_sum >= 0.0
        width = answer.upper - answer.lower
        assert np.all(width <= _definition1_slack(answer.lower, accuracy))

    def test_tuple_unpacking_back_compat(self):
        graph = GRAPHS["grid"]()
        answer = answer_top_k(graph, 0, 5)
        nodes, values = answer
        assert nodes.tobytes() == answer.nodes.tobytes()
        assert values.tobytes() == answer.values.tobytes()

    def test_full_mode_matches_resacc(self):
        graph = GRAPHS["ba"]()
        accuracy = ACCURACIES["paper"](graph.n)
        answer = answer_top_k(graph, 9, 5, accuracy=accuracy, seed=6,
                              mode="full")
        want_nodes, want_values = resacc(
            graph, 9, accuracy=accuracy, seed=6).top_k(5)
        assert answer.path == "full"
        assert answer.separated is False
        assert answer.nodes.tobytes() == want_nodes.tobytes()
        assert answer.values.tobytes() == want_values.tobytes()

    def test_invalid_mode_raises(self, tiny_graph):
        for mode in ("warp", "fast"):
            with pytest.raises(ParameterError):
                answer_top_k(tiny_graph, 0, 2, mode=mode)

    def test_invalid_k_raises(self, tiny_graph):
        for mode in ("auto", "full"):
            with pytest.raises(ParameterError):
                answer_top_k(tiny_graph, 0, 0, mode=mode)
            with pytest.raises(ParameterError):
                answer_top_k(tiny_graph, 0, -3, mode=mode)


# ----------------------------------------------------------------------
# Tie-breaking: ascending node id, everywhere
# ----------------------------------------------------------------------
class TestTieBreaking:
    def test_top_k_order_breaks_ties_by_node_id(self):
        estimates = np.array([0.25, 0.5, 0.25, 0.5, 0.25])
        order = top_k_order(estimates, 4)
        assert order.tolist() == [1, 3, 0, 2]

    def test_result_top_k_uses_shared_contract(self):
        estimates = np.array([0.2, 0.2, 0.2, 0.4])
        result = SSRWRResult(source=0, estimates=estimates, alpha=0.2)
        nodes, values = result.top_k(3)
        assert nodes.tolist() == [3, 0, 1]
        assert values.tolist() == [0.4, 0.2, 0.2]

    def test_exact_ties_listed_in_ascending_id_order(self):
        """Edgeless graph: every non-source score is exactly 0, so the
        listing after the source must be 0, 1, 2, ... by node id."""
        graph = from_edges(8, [])
        answer = answer_top_k(graph, 3, 5)
        assert answer.nodes[0] == 3              # pi(s, s) = 1
        assert answer.nodes[1:].tolist() == [0, 1, 2, 4]
        full = resacc(graph, 3, seed=8)
        nodes, _ = full.top_k(5)
        assert nodes.tolist() == answer.nodes.tolist()

    def test_exact_ties_never_separate(self):
        """On a torus the source's four neighbours score exactly alike:
        k = 2 splits that tie, so no refinement can certify the set, yet
        the returned values still meet Definition 1."""
        graph, exact = _oracle("grid")
        accuracy = ACCURACIES["paper"](graph.n)
        answer = answer_top_k(graph, SOURCE, 2, accuracy=accuracy)
        assert answer.separated is False
        assert answer.bound_gap <= 0
        truth = exact[answer.nodes]
        assert np.all(np.abs(truth - answer.values) <= accuracy.eps * truth)


# ----------------------------------------------------------------------
# The certificate contract, checked at every certificate check
# ----------------------------------------------------------------------
def _dangling_next_to_source(dangling):
    """Source 0 points at two dangling nodes (1, 2) and into a small
    cycle whose nodes also feed the dangling ones, so mass revisits the
    dangling nodes' in-neighbours before it is absorbed (or, under
    ``restart``, sent back to the source)."""
    edges = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 3), (3, 1), (4, 2),
             (4, 5), (5, 6), (6, 3), (5, 0), (7, 0), (7, 3), (8, 7),
             (6, 8), (9, 4), (8, 9)]
    return from_edges(10, edges, dangling=dangling)


def _restart_star():
    """Nothing points at source 0 and all its out-neighbours are
    dangling: under ``restart`` every unit of mass comes back to the
    source through dangling nodes, not through an in-edge."""
    return from_edges(6, [(0, v) for v in range(1, 6)], dangling="restart")


def _duplicate_csr(dangling):
    """A directly built :class:`CSRGraph` with repeated ``(u, t)``
    entries (multiplicity 2 and 3), which ``from_edges`` would collapse."""
    from repro.graph import CSRGraph

    rows = [[1, 1, 2], [2, 2, 2, 3], [0, 3], [4, 4, 0], [5, 0],
            [], [4, 4, 5, 5, 0]]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows])
    indices = np.asarray([v for r in rows for v in r], dtype=np.int64)
    return CSRGraph(len(rows), indptr, indices, dangling=dangling)


CONTRACT_GRAPHS = {
    "absorb-dangling": lambda: _dangling_next_to_source("absorb"),
    "restart-dangling": lambda: _dangling_next_to_source("restart"),
    "restart-star": _restart_star,
    "duplicate-csr-absorb": lambda: _duplicate_csr("absorb"),
    "duplicate-csr-restart": lambda: _duplicate_csr("restart"),
    "ba": GRAPHS["ba"],
    "dangling": GRAPHS["dangling"],
}


def _exact_scores(graph, source):
    if graph.dangling == "absorb":
        return ExactSolver(graph).query(source).estimates
    return power_iteration(graph, source, tol=1e-14).estimates


class TestTopKContract:
    """The envelope's advertised contract against an exact oracle, at
    every certificate check and for every node -- not only the nodes
    an answer returns."""

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("graph_name", sorted(CONTRACT_GRAPHS))
    def test_every_check_brackets_every_node(self, monkeypatch, graph_name,
                                             k, eps):
        import repro.core.topk_solver as topk_solver

        graph = CONTRACT_GRAPHS[graph_name]()
        source = 0
        exact = _exact_scores(graph, source)
        checks = []
        certify = topk_solver._certify

        def recording(state, bound, *args):
            reserve = state.reserve.copy()
            check = certify(state, bound, *args)
            checks.append((reserve, check.upper.copy(), check))
            return check

        monkeypatch.setattr(topk_solver, "_certify", recording)
        accuracy = AccuracyParams(eps=eps, delta=1.0 / graph.n, p_f=0.1)
        answer = answer_top_k(graph, source, k, accuracy=accuracy)

        assert len(checks) == answer.rounds >= 1
        for i, (reserve, upper, _) in enumerate(checks):
            assert np.all(reserve <= exact + 1e-12), (
                f"{graph_name}: reserve above pi at check {i}")
            assert np.all(exact <= upper + 1e-12), (
                f"{graph_name}: upper below pi at check {i}, nodes "
                f"{np.flatnonzero(exact > upper + 1e-12).tolist()}")
        reserve, upper, last = checks[-1]
        assert answer.nodes.tobytes() == last.order.tobytes()
        assert answer.values.tobytes() == reserve[answer.nodes].tobytes()
        assert answer.upper.tobytes() == upper[answer.nodes].tobytes()
        assert answer.separated == (answer.bound_gap > 0)
        if answer.separated:
            want = set(top_k_order(exact, answer.k).tolist())
            assert set(answer.nodes.tolist()) == want
            if answer.k < graph.n:
                outside = np.ones(graph.n, dtype=bool)
                outside[answer.nodes] = False
                assert answer.values.min() > upper[outside].max()
        # Definition 1 for every returned value, separated or not.
        width = answer.upper - answer.values
        assert np.all(width <= _definition1_slack(answer.values, accuracy))
        truth = exact[answer.nodes]
        assert np.all(truth - answer.values
                      <= eps * np.maximum(truth, accuracy.delta) + 1e-12)

    @pytest.mark.parametrize("graph_name", ["absorb-dangling",
                                            "duplicate-csr-absorb", "ba"])
    def test_score_bound_caps_every_pair(self, graph_name):
        """pi(v, t) <= b[t] for every v != t (absorb: one exact solve
        per source)."""
        from repro.push.kernels import get_push_cache

        graph = CONTRACT_GRAPHS[graph_name]()
        bound = get_push_cache(graph).score_bound(0.2)
        assert not bound.flags.writeable
        solver = ExactSolver(graph)
        for v in range(graph.n):
            pi = solver.query(v).estimates.copy()
            pi[v] = 0.0
            assert np.all(pi <= bound + 1e-12), (
                f"{graph_name}: pi({v}, t) above b(t) at "
                f"{np.flatnonzero(pi > bound + 1e-12).tolist()}")

    def test_score_bound_sums_duplicates_and_caps_dangling(self):
        from repro.push.kernels import get_push_cache

        graph = _duplicate_csr("absorb")
        bound = get_push_cache(graph).score_bound(0.2)
        # Row 2 of the transpose: u=0 (c=1, d=3), u=1 (c=3, d=4).
        assert bound[2] == pytest.approx(0.8 * 3 / 4)
        # Node 4: u=3 (c=2, d=3) and u=6 (c=2, d=5).
        assert bound[4] == pytest.approx(0.8 * 2 / 3)
        # Node 5 is dangling: min(1, (1-a)/a * max(1/2, 2/5)) = 1.
        assert bound[5] == 1.0
        restart = get_push_cache(_duplicate_csr("restart")).score_bound(0.2)
        assert restart[5] == pytest.approx(0.8 * 1 / 2)

    def test_write_releases_score_bound(self):
        from repro.push.kernels import get_push_cache, release_push_cache

        graph = GRAPHS["ba"]()
        cache = get_push_cache(graph)
        first = cache.score_bound(0.2)
        assert cache.score_bound(0.2) is first
        release_push_cache(graph)
        assert cache.score_bound(0.2) is not first
