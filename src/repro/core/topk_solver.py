"""Top-k SSRWR answers certified from the PowerPush envelope.

A ``/top_k`` query does not need every node's estimate at Definition-1
accuracy -- it needs the *set* of the k largest scores, and only enough
precision to tell the k-th from the (k+1)-th.  :func:`answer_top_k`
gets both from the bound the push invariant already gives, with no
random walks (bound pruning in the spirit of K-dash, without its
index):

* **Envelope.**  After any number of pushes Equation 2 holds exactly::

      pi(s, t) = reserve(t) + sum_v residue(v) * pi(v, t)

  and since ``0 <= pi(v, t)`` and ``sum_t pi(v, t) <= 1``, every node's
  true score lies in ``[reserve(t), reserve(t) + r_sum]``.  PowerPush
  (:func:`repro.core.powerpush.push_state`) drives ``r_sum`` down to
  ``eps * delta``, so the reserves alone meet Definition 1.

* **Certificate.**  Order the nodes by reserve
  (:func:`repro.core.result.top_k_order`, ties by ascending node id).
  The set is certified when the strict gap::

      bound_gap = reserve_k - (reserve_{k+1} + r_sum)

  is positive: every member's lower bound then beats every outsider's
  upper bound, so the set is the exact top-k set -- a deterministic
  certificate, with no failure probability.

* **Refinement.**  When the gap is not positive, the power sweeps
  continue in place on the same ``(reserve, residue)`` down to
  ``tol / REFINE_FACTOR``; ``r_sum`` shrinks geometrically, so a few
  refinements separate any pair of distinct scores near the boundary.
  Each refinement is a ``"topk_refine"`` trace phase, so deadlines fire
  between them.

* **Ties and the cap.**  Scores that are exactly equal across the
  boundary can never separate.  After :data:`MAX_REFINEMENTS`
  refinements the answer is returned with ``separated=False``; its
  values still meet Definition 1.

See ``docs/topk.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.params import AccuracyParams, ResAccParams
from repro.core.powerpush import push_state
from repro.core.resacc import resacc
from repro.core.result import top_k_order
from repro.errors import ParameterError
from repro.obs.trace import NULL_TRACE

#: Trace phase name of one envelope refinement.
TOPK_PHASE = "topk_refine"

#: Each refinement divides the stopping mass ``tol`` by this factor.
REFINE_FACTOR = 8.0

#: Refinements before an unseparated answer is returned as is.
MAX_REFINEMENTS = 4


@dataclass
class TopKAnswer:
    """Result of a top-k query, from the envelope or the full solve.

    ``nodes`` / ``values`` are the answer (descending score, equal
    scores broken by ascending node id).  On the envelope path
    (``path == "topk"``) ``lower = values = reserve`` and ``upper =
    reserve + r_sum`` bracket each returned node's true score,
    ``bound_width = r_sum``, and ``bound_gap`` is the certificate
    margin ``reserve_k - (reserve_{k+1} + r_sum)``; ``separated`` is
    true exactly when it is positive.  On the full path ``lower`` /
    ``upper`` repeat the point estimates and the bound fields are
    ``None``.  ``pushes`` / ``walks_used`` / ``rounds`` count the work
    spent (``rounds`` = power stages run, refinements included).

    Iterating yields ``(nodes, values)`` so existing
    ``nodes, values = engine.top_k(...)`` call sites keep working.
    """

    source: int
    k: int
    nodes: np.ndarray
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    separated: bool
    #: ``"topk"`` when the envelope answered, ``"full"`` when the full
    #: solve did.
    path: str
    bound_gap: float | None
    bound_width: float | None
    alpha: float
    walks_used: int = 0
    pushes: int = 0
    rounds: int = 0
    r_sum: float = 0.0
    extras: dict = field(default_factory=dict)
    trace: object | None = field(repr=False, default=None)

    def __iter__(self):
        yield self.nodes
        yield self.values

    def __repr__(self):
        return (f"TopKAnswer(source={self.source}, k={self.k}, "
                f"path={self.path!r}, separated={self.separated}, "
                f"rounds={self.rounds}, walks={self.walks_used}, "
                f"pushes={self.pushes})")


def _envelope(graph, source, k, params, accuracy, trace):
    """The certified (or capped) envelope answer; ``path="topk"``."""
    tol = float(accuracy.eps) * float(accuracy.delta)
    trace.note(
        algorithm="topk", source=int(source), n=graph.n, m=graph.m, k=k,
        alpha=params.alpha, eps=accuracy.eps, delta=accuracy.delta,
        tol=tol,
    )
    state, _ = push_state(graph, source, params, tol, trace)
    reserve = state.reserve
    refinements = 0
    while True:
        order = top_k_order(reserve, k + 1)
        if k >= graph.n:
            gap = math.inf
        else:
            gap = float(reserve[order[k - 1]]
                        - (reserve[order[k]] + state.r_sum))
        if gap > 0 or refinements == MAX_REFINEMENTS or state.r_sum == 0:
            break
        tol /= REFINE_FACTOR
        state.drain(tol, trace, TOPK_PHASE)
        refinements += 1
    order = order[:k]
    values = reserve[order]
    trace.note(topk_separated=bool(gap > 0), topk_gap=gap,
               topk_refinements=refinements)
    return TopKAnswer(
        source=int(source), k=k, nodes=order, values=values,
        lower=values.copy(), upper=values + state.r_sum,
        separated=bool(gap > 0), path="topk", bound_gap=gap,
        bound_width=state.r_sum, alpha=params.alpha, walks_used=0,
        pushes=state.stats.pushes, rounds=1 + refinements,
        r_sum=state.r_sum,
        extras={"tol": tol, "sweeps": state.sweeps,
                "refinements": refinements},
    )


def answer_from_result(result, k):
    """Wrap a full-solve :class:`~repro.core.result.SSRWRResult` as a
    :class:`TopKAnswer` with ``path="full"`` (``mode="full"``)."""
    k_eff = min(int(k), result.estimates.shape[0])
    nodes, values = result.top_k(k_eff)
    return TopKAnswer(
        source=int(result.source), k=k_eff, nodes=nodes, values=values,
        lower=values.copy(), upper=values.copy(), separated=False,
        path="full", bound_gap=None, bound_width=None,
        alpha=result.alpha, walks_used=int(result.walks_used),
        pushes=int(result.pushes),
        r_sum=float(result.extras.get("r_sum", 0.0)),
        extras={"algorithm": result.algorithm}, trace=result.trace,
    )


def answer_top_k(graph, source, k, *, params=None, accuracy=None, seed=0,
                 mode="auto", trace=None):
    """Serve a top-k query.

    ``mode``:

    * ``"auto"`` (default) -- the PowerPush envelope, refined until the
      set is certified or :data:`MAX_REFINEMENTS` is reached
      (``path="topk"``).  Deterministic: ``seed`` is accepted and
      ignored, so the answer is a pure function of ``(graph, source, k,
      accuracy)`` and byte-identical across engines and workers.
    * ``"full"`` -- a full ResAcc solve with ``seed``, answered through
      :func:`answer_from_result` (``path="full"``).

    ``k`` must be ``>= 1`` and is clamped to ``n``.  ``trace`` is an
    optional :class:`repro.obs.QueryTrace` (or a deadline proxy): the
    envelope records ``localpush`` / ``power`` phases plus one
    ``"topk_refine"`` phase per refinement, and notes ``topk_separated``
    / ``topk_gap`` / ``topk_refinements``.
    """
    k = int(k)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if mode not in ("auto", "full"):
        raise ParameterError(f"mode must be 'auto' or 'full', got {mode!r}")
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    params = params or ResAccParams()
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    if mode == "full":
        result = resacc(graph, source, params=params, accuracy=accuracy,
                        seed=seed, trace=trace)
        return answer_from_result(result, k)
    answer = _envelope(graph, int(source), min(k, graph.n), params,
                       accuracy, trace if trace is not None else NULL_TRACE)
    answer.trace = trace
    return answer
