"""Tests for the PPR extension and the confidence helpers."""

import numpy as np
import pytest

from repro.analysis import (
    achievable_eps,
    achievable_p_f,
    failure_probability,
    required_walks,
    walk_savings_factor,
)
from repro.core import (
    AccuracyParams,
    exact_ppr,
    normalize_preference,
    personalized_pagerank,
    resacc,
)
from repro.errors import ParameterError

ALPHA = 0.2


class TestNormalizePreference:
    def test_node_list_uniform(self, ba_graph):
        vector = normalize_preference(ba_graph, [0, 5, 5])
        assert vector.sum() == pytest.approx(1.0)
        assert vector[5] == pytest.approx(2 / 3)
        assert vector[0] == pytest.approx(1 / 3)

    def test_dict_weights(self, ba_graph):
        vector = normalize_preference(ba_graph, {1: 3.0, 2: 1.0})
        assert vector[1] == pytest.approx(0.75)
        assert vector[2] == pytest.approx(0.25)

    def test_dense_vector_normalized(self, ba_graph):
        raw = np.zeros(ba_graph.n)
        raw[:4] = 2.0
        vector = normalize_preference(ba_graph, raw)
        assert vector.sum() == pytest.approx(1.0)

    def test_validation(self, ba_graph):
        with pytest.raises(ParameterError):
            normalize_preference(ba_graph, [ba_graph.n + 5])
        with pytest.raises(ParameterError):
            normalize_preference(ba_graph, {0: -1.0})
        with pytest.raises(ParameterError):
            normalize_preference(ba_graph, np.zeros(ba_graph.n))


class TestPersonalizedPageRank:
    def test_point_mass_matches_ssrwr(self, ba_graph, exact):
        truth = exact.query(3).estimates
        accuracy = AccuracyParams.paper_defaults(ba_graph.n)
        result = personalized_pagerank(ba_graph, [3], accuracy=accuracy,
                                       seed=1)
        sig = truth > accuracy.delta
        rel = np.abs(result.estimates - truth)[sig] / truth[sig]
        assert rel.max() <= accuracy.eps

    def test_linearity_against_exact(self, ba_graph, exact):
        pref = {2: 0.5, 9: 0.5}
        expected = 0.5 * exact.query(2).estimates \
            + 0.5 * exact.query(9).estimates
        truth = exact_ppr(ba_graph, pref, alpha=ALPHA)
        assert np.max(np.abs(truth - expected)) < 1e-10

    def test_approximate_matches_exact_ppr(self, ba_graph):
        pref = {0: 0.25, 7: 0.75}
        truth = exact_ppr(ba_graph, pref, alpha=ALPHA)
        accuracy = AccuracyParams.paper_defaults(ba_graph.n)
        result = personalized_pagerank(ba_graph, pref, accuracy=accuracy,
                                       seed=2)
        sig = truth > accuracy.delta
        rel = np.abs(result.estimates - truth)[sig] / truth[sig]
        assert rel.max() <= accuracy.eps
        assert result.estimates.sum() == pytest.approx(1.0, abs=1e-9)

    def test_extras(self, ba_graph):
        result = personalized_pagerank(ba_graph, [0, 1, 2], seed=0)
        assert result.extras["support"] == 3
        assert result.algorithm == "ppr"

    def test_restart_policy_rejected(self, ba_graph):
        g = ba_graph.with_dangling("restart")
        with pytest.raises(ParameterError):
            personalized_pagerank(g, [0])
        with pytest.raises(ParameterError):
            exact_ppr(g, [0])

    def test_exact_ppr_with_dangling_nodes(self, web_graph):
        pref = [1, 2]
        truth = exact_ppr(web_graph, pref, alpha=ALPHA)
        assert truth.sum() == pytest.approx(1.0, abs=1e-10)


class TestConfidence:
    def test_bound_decreasing_in_walks(self):
        probs = [failure_probability(0.01, 0.5, n, 0.1)
                 for n in (10, 100, 1_000, 10_000)]
        assert probs == sorted(probs, reverse=True)

    def test_required_walks_matches_accuracy_params(self):
        acc = AccuracyParams(eps=0.5, delta=0.01, p_f=0.01)
        assert required_walks(0.5, 0.01, 0.01, 0.3) == acc.num_walks(0.3)

    def test_theorem3_consistency(self):
        """With Theorem 3's budget the bound at pi = delta equals p_f."""
        eps, delta, p_f, r_sum = 0.5, 0.01, 0.001, 0.2
        n_r = required_walks(eps, delta, p_f, r_sum)
        assert achievable_p_f(eps, delta, n_r, r_sum) <= p_f + 1e-12

    def test_achievable_eps_inverts_bound(self):
        delta, p_f, r_sum = 0.01, 0.01, 0.2
        n_r = required_walks(0.5, delta, p_f, r_sum)
        eps = achievable_eps(delta, p_f, n_r, r_sum)
        assert eps == pytest.approx(0.5, rel=0.02)

    def test_achievable_eps_zero_rsum(self):
        assert achievable_eps(0.01, 0.01, 0, 0.0) == 0.0

    def test_achievable_eps_unreachable(self):
        assert achievable_eps(1e-9, 1e-9, 1, 1.0) == float("inf")

    def test_walk_savings_matches_measured(self, ba_graph):
        from repro.baselines import fora

        accuracy = AccuracyParams.paper_defaults(ba_graph.n)
        res = resacc(ba_graph, 0, accuracy=accuracy, seed=1)
        frs = fora(ba_graph, 0, accuracy=accuracy, seed=1)
        factor = walk_savings_factor(res.extras["r_sum"],
                                     frs.extras["r_sum"])
        measured = frs.walks_used / res.walks_used
        assert factor == pytest.approx(measured, rel=0.25)

    def test_validation(self):
        with pytest.raises(ParameterError):
            failure_probability(0.0, 0.5, 10, 0.1)
        with pytest.raises(ParameterError):
            required_walks(0.5, 0.01, 0.01, -1.0)
        with pytest.raises(ParameterError):
            walk_savings_factor(-1.0, 1.0)
