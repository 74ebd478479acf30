"""Ranking metrics: NDCG and precision (Section VII-A, following [29]).

NDCG@k scores the *ordering* an algorithm induces: the k nodes it ranks
highest are gain-weighted by their **true** RWR values and discounted by
log-position, normalized by the ideal (truth-ordered) DCG.  A method that
orders the important nodes correctly scores 1.0 regardless of the absolute
scale of its estimates.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import top_k_order
from repro.errors import ParameterError


def dcg(gains):
    """Discounted cumulative gain of gains listed in rank order."""
    gains = np.asarray(gains, dtype=np.float64)
    if gains.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, gains.size + 2, dtype=np.float64))
    return float(gains @ discounts)


def ndcg_at_k(truth, estimate, k):
    """NDCG of the estimate's top-k ranking against the true values."""
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if truth.shape != estimate.shape or truth.ndim != 1:
        raise ParameterError("truth/estimate must be equal-length vectors")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    k_eff = min(int(k), truth.shape[0])
    predicted_order = top_k_order(estimate, k_eff)
    ideal_order = top_k_order(truth, k_eff)
    ideal = dcg(truth[ideal_order])
    if ideal == 0.0:
        return 1.0  # no mass to rank: any ordering is vacuously perfect
    return dcg(truth[predicted_order]) / ideal


def precision_at_k(truth, estimate, k):
    """Fraction of the estimate's top-k that belongs to the true top-k."""
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if truth.shape != estimate.shape or truth.ndim != 1:
        raise ParameterError("truth/estimate must be equal-length vectors")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    k_eff = min(int(k), truth.shape[0])
    predicted = set(top_k_order(estimate, k_eff).tolist())
    actual = set(top_k_order(truth, k_eff).tolist())
    return len(predicted & actual) / k_eff


def kendall_tau_top_k(truth, estimate, k):
    """Kendall-tau correlation restricted to the true top-k nodes.

    A finer-grained ordering diagnostic than NDCG used by the extended
    analyses; 1.0 means the estimate orders the true top-k identically.
    """
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    k_eff = min(int(k), truth.shape[0])
    top = top_k_order(truth, k_eff)
    t_vals = truth[top]
    e_vals = estimate[top]
    concordant = 0
    discordant = 0
    for i in range(k_eff):
        for j in range(i + 1, k_eff):
            t_sign = np.sign(t_vals[i] - t_vals[j])
            e_sign = np.sign(e_vals[i] - e_vals[j])
            if t_sign == 0 or e_sign == 0:
                continue
            if t_sign == e_sign:
                concordant += 1
            else:
                discordant += 1
    pairs = concordant + discordant
    return 1.0 if pairs == 0 else (concordant - discordant) / pairs
