"""Top-K SSRWR queries with separation diagnostics.

TopPPR-style applications only need the K most relevant nodes.  Any
Definition-1 solver already supports this -- take the K largest estimates
-- but a downstream user also wants to know *how trustworthy* that set
is.  :func:`topk_ssrwr` wraps a solver and reports a separation
diagnostic derived from the relative-error contract:

Every node with ``pi > delta`` is within factor ``(1 +/- eps)`` of its
estimate (w.h.p.), so whenever
``estimate[k-th] * (1 - eps) > estimate[(k+1)-th] * (1 + eps)`` the
returned *set* provably cannot have swapped a member with a non-member
(among contract-covered nodes).  ``separation_margin`` quantifies this;
a value above 1 means the set is contract-certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.resacc import resacc
from repro.core.result import top_k_order
from repro.errors import ParameterError


@dataclass
class TopKResult:
    """The top-K set plus trust diagnostics."""

    nodes: np.ndarray
    values: np.ndarray
    k: int
    #: ``est_k (1 - eps) / (est_{k+1} (1 + eps))``; > 1 means the set is
    #: certified by the accuracy contract (for nodes above delta).
    separation_margin: float
    #: the full solver result, for callers needing more
    result: object = field(repr=False, default=None)

    @property
    def certified(self):
        """Whether the membership of the set is contract-certified."""
        return self.separation_margin > 1.0


def topk_ssrwr(graph, source, k, *, solver=None, eps=0.5, **solver_kwargs):
    """Answer a top-K SSRWR query.

    Parameters
    ----------
    solver:
        Any callable ``(graph, source, **kwargs) -> SSRWRResult``;
        defaults to :func:`repro.core.resacc`.
    eps:
        The relative error the solver was configured for (used by the
        separation diagnostic).  If ``solver_kwargs`` carries an
        ``accuracy`` object its ``eps`` wins.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    solver = solver or resacc
    accuracy = solver_kwargs.get("accuracy")
    if accuracy is not None:
        eps = accuracy.eps
    result = solver(graph, source, **solver_kwargs)
    estimates = result.estimates
    k_eff = min(int(k), graph.n)
    # Shared ordering contract: ties break by ascending node id.
    order = top_k_order(estimates, min(k_eff + 1, graph.n))
    nodes = order[:k_eff]
    values = estimates[nodes]
    if k_eff < graph.n and values[-1] > 0:
        runner_up = estimates[order[k_eff]]
        lower = values[-1] * (1.0 - eps)
        upper = runner_up * (1.0 + eps)
        margin = float(lower / upper) if upper > 0 else float("inf")
    else:
        margin = float("inf")
    return TopKResult(nodes=nodes, values=values, k=k_eff,
                      separation_margin=margin, result=result)

