"""FORA+ (Wang et al. [28]) -- FORA with a precomputed random-walk index.

The offline phase simulates, for every node ``v``, the walks FORA could
ever need from it -- at most ``ceil(r_max * d_out(v) * c)`` since the push
stage leaves ``residue(v) < r_max * d_out(v)`` -- and stores only their
endpoints.  The online phase replaces walk simulation with endpoint
lookups, which makes queries fast at the price of preprocessing time and
index memory (measured in Table IV and rebuilt from scratch per update in
the Fig. 23 experiment).

When a query needs more endpoints from a node than were precomputed (only
possible when the stored budget was capped via ``max_walks_per_node``) the
stored endpoints are reused cyclically; the approximation is recorded in
``extras["endpoint_shortfall"]``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.params import AccuracyParams, fora_r_max
from repro.core.result import SSRWRResult
from repro.errors import ParameterError
from repro.graph.hop import expand_ranges
from repro.push.forward import forward_push_loop, init_state
from repro.walks.engine import walk_endpoints


class ForaPlusIndex:
    """Precomputed-walk index over one graph.

    Parameters
    ----------
    graph, alpha, accuracy:
        Define the query family the index serves.
    r_max:
        Push threshold used at query time (and hence the per-node walk
        budget); defaults to FORA's balanced optimum.
    max_walks_per_node:
        Optional cap on stored endpoints per node.
    seed:
        RNG seed for the offline walks.
    """

    def __init__(self, graph, *, alpha=0.2, accuracy=None, r_max=None,
                 max_walks_per_node=None, seed=0):
        self.graph = graph
        self.alpha = alpha
        self.accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
        self.r_max = r_max if r_max is not None else fora_r_max(
            graph, self.accuracy, alpha
        )
        rng = np.random.default_rng(seed)
        tic = time.perf_counter()
        constant = self.accuracy.walk_constant
        degrees = np.maximum(graph.out_degrees, 1)
        budgets = np.ceil(self.r_max * degrees * constant).astype(np.int64)
        budgets = np.maximum(budgets, 1)
        if max_walks_per_node is not None:
            budgets = np.minimum(budgets, int(max_walks_per_node))
        self._endpoint_indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(budgets, out=self._endpoint_indptr[1:])
        starts = np.repeat(np.arange(graph.n, dtype=np.int64), budgets)
        self._endpoints = walk_endpoints(graph, starts, alpha, rng)
        self.preprocess_seconds = time.perf_counter() - tic

    @property
    def index_bytes(self):
        """Memory footprint of the stored index arrays."""
        return int(self._endpoints.nbytes + self._endpoint_indptr.nbytes)

    def query(self, source, *, method="frontier"):
        """Answer an SSRWR query using the index instead of fresh walks."""
        graph = self.graph
        if not 0 <= source < graph.n:
            raise ParameterError(
                f"source {source} out of range for n={graph.n}"
            )
        reserve, residue = init_state(graph, source)
        tic = time.perf_counter()
        stats = forward_push_loop(
            graph, reserve, residue, self.alpha, self.r_max,
            source=source, method=method,
        )
        t_push = time.perf_counter() - tic

        tic = time.perf_counter()
        positive = np.flatnonzero(residue > 0.0)
        shortfall = 0
        walks_used = 0
        if positive.size:
            r_pos = residue[positive]
            r_sum = float(r_pos.sum())
            n_r = self.accuracy.num_walks(r_sum)
            needed = np.maximum(
                np.ceil(r_pos * (n_r / r_sum)).astype(np.int64), 1
            )
            stored = (self._endpoint_indptr[positive + 1]
                      - self._endpoint_indptr[positive])
            take = np.minimum(needed, stored)
            shortfall = int((needed - take).sum())
            positions = expand_ranges(self._endpoint_indptr[positive], take)
            endpoints = self._endpoints[positions]
            weights = np.repeat(r_pos / take, take)
            correction = np.bincount(endpoints, weights=weights,
                                     minlength=graph.n)
            walks_used = int(take.sum())
            estimates = reserve + correction
        else:
            r_sum = 0.0
            estimates = reserve
        t_lookup = time.perf_counter() - tic

        return SSRWRResult(
            source=int(source), estimates=estimates, alpha=self.alpha,
            algorithm="fora+", walks_used=walks_used, pushes=stats.pushes,
            phase_seconds={"push": t_push, "lookup": t_lookup},
            extras={"r_max": self.r_max, "r_sum": r_sum,
                    "endpoint_shortfall": shortfall},
        )


def expected_index_walks(graph, accuracy, r_max=None, alpha=0.2):
    """How many endpoints a full (uncapped) index stores -- for sizing."""
    r_max = r_max if r_max is not None else fora_r_max(graph, accuracy, alpha)
    degrees = np.maximum(graph.out_degrees, 1)
    budgets = np.maximum(
        np.ceil(r_max * degrees * accuracy.walk_constant), 1
    )
    return int(math.fsum(budgets))
