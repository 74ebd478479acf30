"""The remedy phase (Algorithm 2, lines 5-17).

Given the reserves and residues left by the push phases, the remedy phase
estimates the correction term ``sum_v r(v) * pi(v, t)`` of Equation (3) by
simulating residue-weighted random walks:

* ``n_r = ceil(r_sum * c)`` total walks, where
  ``c = (2 eps / 3 + 2) * ln(2 / p_f) / (eps^2 delta)`` (Theorem 3);
* node ``v`` launches ``n_r(v) = ceil(r(v) * n_r / r_sum)`` of them;
* every walk from ``v`` deposits ``r(v) / n_r(v)`` on its terminal node,
  which equals the paper's ``a(v) * r_sum / n_r``.

The resulting mass vector is unbiased for the correction term (Theorem 1),
so adding it to the reserves yields an unbiased SSRWR estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.omfwd import residue_sum
from repro.errors import ParameterError
from repro.walks.engine import residue_weighted_walks


@dataclass(frozen=True)
class RemedyOutcome:
    """Diagnostics of one remedy run."""

    mass: np.ndarray     # estimated correction term, length n
    walks_used: int
    r_sum: float
    n_r: int             # requested walk budget before per-node ceilings


def remedy(graph, residue, alpha, accuracy, rng, *, source=None,
           walk_scale=1.0, estimator="terminal", trace=None):
    """Run the remedy phase; the residue vector is not modified.

    ``walk_scale`` multiplies ``n_r`` -- the paper's fair-comparison
    experiment (Appendix F) tunes it through ``n_scale`` in
    ``{0, 0.2, ..., 1.0}``; 1.0 gives the theoretical guarantee.

    ``estimator="visits"`` opts into the visit-count sampler (unbiased,
    empirically lower variance; the Theorem-3 constant is proven for the
    default ``"terminal"`` estimator).

    ``trace`` is an optional :class:`repro.obs.QueryTrace`; the walk
    budget and actual walk totals are flushed into it once.
    """
    if walk_scale < 0:
        raise ParameterError(f"walk_scale must be >= 0, got {walk_scale}")
    r_sum = residue_sum(residue)
    n_r = int(np.ceil(accuracy.num_walks(r_sum) * walk_scale))
    if trace is not None:
        trace.add_counters(walk_budget=max(n_r, 0))
    if r_sum <= 0.0 or n_r <= 0:
        return RemedyOutcome(
            mass=np.zeros(graph.n, dtype=np.float64),
            walks_used=0, r_sum=r_sum, n_r=0,
        )
    mass, walks_used = residue_weighted_walks(
        graph, residue, n_r, alpha, rng, source=source, estimator=estimator,
        trace=trace,
    )
    return RemedyOutcome(mass=mass, walks_used=walks_used,
                         r_sum=r_sum, n_r=n_r)
