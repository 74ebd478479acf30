"""Error metrics for SSRWR estimates (Section VII-A).

The paper's headline accuracy plot (Fig. 4) reports, for
``k in {1, 10, ..., 1e5}``, the absolute error at the node holding the
k-th largest *true* RWR value, averaged over query nodes.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import top_k_order
from repro.errors import ParameterError

DEFAULT_K_GRID = (1, 10, 100, 1_000, 10_000, 100_000)


def _check_pair(truth, estimate):
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if truth.shape != estimate.shape or truth.ndim != 1:
        raise ParameterError(
            f"truth/estimate must be equal-length vectors, got "
            f"{truth.shape} vs {estimate.shape}"
        )
    return truth, estimate


def abs_error_at_kth(truth, estimate, ks=DEFAULT_K_GRID):
    """Absolute error at the node with the k-th largest true value.

    ``ks`` beyond ``n`` are clamped to ``n``.  Returns a dict ``k -> error``.
    """
    truth, estimate = _check_pair(truth, estimate)
    order = top_k_order(truth, max(ks, default=0))
    out = {}
    for k in ks:
        k_eff = min(int(k), truth.shape[0])
        if k_eff < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        node = order[k_eff - 1]
        out[int(k)] = float(abs(truth[node] - estimate[node]))
    return out


def mean_abs_error(truth, estimate):
    """Mean absolute error over all nodes."""
    truth, estimate = _check_pair(truth, estimate)
    return float(np.mean(np.abs(truth - estimate)))


def max_abs_error(truth, estimate):
    """Maximum absolute error over all nodes."""
    truth, estimate = _check_pair(truth, estimate)
    return float(np.max(np.abs(truth - estimate))) if truth.size else 0.0


def max_relative_error(truth, estimate, delta):
    """Largest relative error among nodes with ``truth > delta``.

    This is the quantity Definition 1 bounds by ``eps``.
    """
    truth, estimate = _check_pair(truth, estimate)
    significant = truth > delta
    if not significant.any():
        return 0.0
    rel = np.abs(truth[significant] - estimate[significant]) / truth[significant]
    return float(rel.max())


def guarantee_satisfied(truth, estimate, accuracy):
    """Whether every node above ``delta`` meets the ``eps`` contract."""
    return max_relative_error(truth, estimate, accuracy.delta) <= accuracy.eps


def guarantee_violation_rate(truth, estimate, accuracy):
    """Fraction of significant nodes whose relative error exceeds ``eps``.

    The theory allows this to be positive with probability ``p_f``; the
    empirical rate should be (much) smaller than ``p_f`` per node.
    """
    truth, estimate = _check_pair(truth, estimate)
    significant = truth > accuracy.delta
    count = int(significant.sum())
    if count == 0:
        return 0.0
    rel = (np.abs(truth[significant] - estimate[significant])
           / truth[significant])
    return float((rel > accuracy.eps).sum()) / count
