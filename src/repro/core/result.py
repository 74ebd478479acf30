"""Result container returned by every SSRWR solver in the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def top_k_order(estimates, k):
    """Ids of the ``k`` largest entries, descending, ties by node id.

    This is the library-wide top-k ordering contract: equal scores are
    broken by **ascending node id** (a stable sort on the negated
    estimates preserves index order within each tied group), so a top-k
    answer is byte-stable across runs, worker threads/processes and
    engines whenever the estimate vector is.  Every consumer --
    :meth:`SSRWRResult.top_k` and the top-k envelope in
    :mod:`repro.core.topk_solver` -- must order
    through this helper rather than sorting ad hoc.

    The answer is ``np.argsort(-estimates, kind="stable")[:k]`` (NaNs
    last), found in O(n): ``np.partition`` finds the k-th value, and
    only the entries not below it (and any NaNs) are stable-sorted.
    """
    neg = -np.asarray(estimates)
    k = min(int(k), neg.shape[0])
    if 0 < k < neg.shape[0]:
        kth = np.partition(neg, k - 1)[k - 1]
        candidates = np.flatnonzero(~(neg > kth))
        return candidates[np.argsort(neg[candidates], kind="stable")[:k]]
    return np.argsort(neg, kind="stable")[:k]


@dataclass
class SSRWRResult:
    """Estimated RWR values of all nodes with respect to one source.

    Attributes
    ----------
    source:
        The query node ``s``.
    estimates:
        Length-``n`` array; ``estimates[t]`` approximates ``pi(s, t)``.
    alpha:
        Restart probability used by the solver.
    algorithm:
        Short solver name (``"resacc"``, ``"fora"``, ...).
    walks_used:
        Number of random walks simulated (0 for deterministic solvers).
    pushes:
        Number of push operations performed (0 for pure-MC solvers).
    phase_seconds:
        Wall-clock breakdown per phase, e.g. ``{"hhopfwd": ..,
        "omfwd": .., "remedy": ..}`` for ResAcc (Table VII).
    extras:
        Solver-specific diagnostics (residue sums, thresholds, ...).
    trace:
        The :class:`repro.obs.QueryTrace` populated during the query, or
        ``None`` when tracing was disabled.
    """

    source: int
    estimates: np.ndarray
    alpha: float
    algorithm: str = ""
    walks_used: int = 0
    pushes: int = 0
    phase_seconds: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    trace: object | None = None

    @property
    def total_seconds(self):
        """Sum of the recorded phase times."""
        return float(sum(self.phase_seconds.values()))

    def top_k(self, k):
        """``(nodes, values)`` of the k largest estimates, descending.

        Equal scores are broken by ascending node id (see
        :func:`top_k_order`), so the returned arrays are byte-stable
        across runs and engines for a byte-identical estimate vector.
        """
        order = top_k_order(self.estimates, k)
        return order, self.estimates[order]

    def value(self, t):
        """The estimate for a single node."""
        return float(self.estimates[t])

    def support(self, threshold=0.0):
        """Number of nodes whose estimate exceeds ``threshold``."""
        return int((self.estimates > threshold).sum())

    def nodes_above(self, threshold):
        """Node ids with estimates above ``threshold``, best first."""
        candidates = np.flatnonzero(self.estimates > threshold)
        order = np.argsort(-self.estimates[candidates], kind="stable")
        return candidates[order]

    def normalized(self):
        """A copy whose estimates sum to exactly 1.

        Useful after ``walk_scale < 1`` runs, whose estimates
        deliberately under-cover by the unexplored residue.
        """
        total = float(self.estimates.sum())
        scaled = self.estimates / total if total > 0 else self.estimates
        return SSRWRResult(
            source=self.source, estimates=scaled, alpha=self.alpha,
            algorithm=self.algorithm, walks_used=self.walks_used,
            pushes=self.pushes, phase_seconds=dict(self.phase_seconds),
            extras={**self.extras, "renormalized_from": total},
            trace=self.trace,
        )

    def __repr__(self):
        return (
            f"SSRWRResult(source={self.source}, n={self.estimates.shape[0]}, "
            f"algorithm={self.algorithm!r}, walks={self.walks_used}, "
            f"pushes={self.pushes})"
        )
