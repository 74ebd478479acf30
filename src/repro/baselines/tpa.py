"""TPA (Yoon et al. [31]) -- index-oriented two-phase approximation.

TPA splits the RWR vector by walk length: short walks ("family" and
"neighbor" parts) are computed exactly at query time with a truncated
power iteration, and the long-walk tail ("stranger" part) is approximated
by the graph's global PageRank, which the offline phase precomputes.

The approximation is additive (Table I) and degrades on large graphs where
much mass lives in the tail -- the paper's Fig. 5 shows TPA mis-ranking
nodes on Twitter for exactly this reason, and this implementation inherits
that behaviour through the ``local_iterations`` knob: after ``L`` rounds of
:func:`repro.core.cpi.cpi` a ``(1 - alpha)^L`` fraction of the probability
mass is PageRank-guessed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cpi import cpi
from repro.core.result import SSRWRResult
from repro.errors import ConvergenceError, ParameterError
from repro.graph.hop import expand_ranges


class TPAIndex:
    """Precomputed global PageRank serving TPA queries on one graph."""

    def __init__(self, graph, *, alpha=0.2, tol=1e-10, max_iters=4000):
        if not 0.0 < alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
        self.graph = graph
        self.alpha = alpha
        tic = time.perf_counter()
        self.pagerank = _global_pagerank(graph, alpha, tol, max_iters)
        self.preprocess_seconds = time.perf_counter() - tic

    @property
    def index_bytes(self):
        """Memory footprint of the stored PageRank vector."""
        return int(self.pagerank.nbytes)

    def query(self, source, *, local_iterations=8):
        """SSRWR estimate: exact short-walk part + PageRank tail."""
        tic = time.perf_counter()
        # The short-walk part is the cumulative power iteration of the
        # degraded serving tier (which also validates source and rounds);
        # its leftover mass is the tail TPA guesses.
        partial = cpi(self.graph, source, alpha=self.alpha,
                      rounds=local_iterations)
        leftover = partial.extras["error_bound"]
        estimates = partial.estimates + leftover * self.pagerank
        elapsed = time.perf_counter() - tic
        return SSRWRResult(
            source=int(source), estimates=estimates, alpha=self.alpha,
            algorithm="tpa", phase_seconds={"query": elapsed},
            extras={"local_iterations": local_iterations,
                    "tail_mass": leftover},
        )


def _global_pagerank(graph, alpha, tol, max_iters):
    """Standard PageRank with uniform restart (dangling mass spreads
    uniformly), normalized to sum to 1."""
    n = graph.n
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    dangling = degrees == 0
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    uniform = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iters):
        spread_nodes = np.flatnonzero(~dangling & (rank > 0.0))
        new_rank = alpha * uniform
        if spread_nodes.size:
            counts = degrees[spread_nodes]
            positions = expand_ranges(indptr[spread_nodes], counts)
            targets = indices[positions]
            weights = np.repeat(
                (1.0 - alpha) * rank[spread_nodes] / counts, counts
            )
            new_rank += np.bincount(targets, weights=weights, minlength=n)
        dangling_mass = float(rank[dangling].sum())
        if dangling_mass:
            new_rank += (1.0 - alpha) * dangling_mass * uniform
        if float(np.abs(new_rank - rank).sum()) < tol:
            return new_rank / new_rank.sum()
        rank = new_rank
    raise ConvergenceError(
        f"PageRank did not converge to {tol} in {max_iters} iterations"
    )
