"""Top-k SSRWR answers certified from the PowerPush envelope.

A ``/top_k`` query does not need every node's estimate at Definition-1
accuracy -- it needs the *set* of the k largest scores, and only enough
precision to tell the k-th from the (k+1)-th.  :func:`answer_top_k`
gets both from the bound the push invariant already gives, with no
random walks (bound pruning in the spirit of K-dash, without its
index):

* **Per-node envelope.**  After any number of pushes Equation 2 holds
  exactly::

      pi(s, t) = reserve(t) + sum_v residue(v) * pi(v, t)

  With ``pi(t, t) <= 1`` and ``pi(v, t) <= b(t)`` for ``v != t`` (the
  per-snapshot cap of :meth:`repro.push.kernels.SnapshotPushCache.
  score_bound`), every node's true score lies in ``[reserve(t),
  upper(t)]`` with::

      upper(t) = reserve(t) + residue(t) + (r_sum - residue(t)) * b(t)

* **Certificate.**  Take ``S`` as the k nodes with the largest reserve
  (:func:`repro.core.result.top_k_order`, ties by ascending node id).
  The answer is final when the set is separated::

      bound_gap = min reserve[S] - max upper[not S] > 0

  and every member meets Definition 1 from its own bounds,
  ``upper(t) - reserve(t) <= eps * max(reserve(t), delta)``.  A
  separated set is the exact top-k set -- a deterministic certificate,
  with no failure probability.

* **Check schedule.**  PowerPush drains to ``FIRST_CHECK * eps *
  delta`` before the first check.  Each failed check predicts the
  ``r_sum`` at which the worst outsider's and member's margins close
  (reserves held still, widths shrinking with ``r_sum``) and drains to
  it in place -- at least one sweep, at most a factor
  :data:`MAX_STEP` -- as one ``"topk_refine"`` trace phase, so
  deadlines fire between checks.

* **Ties.**  Scores that are exactly equal across the boundary can
  never separate.  Once ``r_sum <= eps * delta / TIE_FLOOR`` the
  answer is returned with ``separated=False``; every width is then
  below ``eps * delta``, so its values still meet Definition 1.

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

#: Trace phase name of the power sweeps between two certificate checks.
TOPK_PHASE = "topk_refine"

#: The first check comes once ``r_sum <= FIRST_CHECK * eps * delta``.
FIRST_CHECK = 16.0

#: A drain between two checks lowers ``r_sum`` by at most this factor.
MAX_STEP = 8.0

#: An answer that never separates (exact ties) stops at ``r_sum <=
#: eps * delta / TIE_FLOOR`` with ``separated=False``.
TIE_FLOOR = 8.0 ** 4

_TINY = np.finfo(np.float64).tiny


@dataclass
class _Check:
    """One certificate check: the top-k set ``order`` by reserve, every
    node's upper bound, the margin ``min reserve[S] - max upper[not S]``
    and the predicted ``r_sum`` factor that closes the worst margin
    (``>= 1`` once every member meets Definition 1)."""

    order: np.ndarray
    upper: np.ndarray
    gap: float
    rho: float

    @property
    def passed(self):
        return self.gap > 0 and self.rho >= 1.0


@dataclass
class TopKAnswer:
    """Result of a top-k query, from the envelope or the full solve.

    ``nodes`` / ``values`` are the answer (descending score, equal
    scores broken by ascending node id).  On the envelope path
    (``path == "topk"``) ``lower = values = reserve`` and ``upper``
    bracket each returned node's true score with the per-node bound
    ``reserve + residue + (r_sum - residue) * b``; ``bound_width =
    r_sum`` is the residue mass left, and ``bound_gap`` is the
    certificate margin ``min reserve[S] - max upper[not S]``.
    ``separated`` is true exactly when that margin is positive (every
    returned value then also meets Definition 1 by ``upper - lower <=
    eps * max(lower, delta)``).  On the full path ``lower`` / ``upper``
    repeat the point estimates and the bound fields are ``None``.
    ``pushes`` / ``walks_used`` / ``rounds`` count the work spent
    (``rounds`` = certificate checks made; ``extras["sweeps"]`` = power
    sweeps run).

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


def _certify(state, bound, k, eps, delta):
    """One certificate check of ``state``; returns a :class:`_Check`.

    Ranks the nodes by reserve, bounds every node's score by its
    per-node envelope ``[reserve, reserve + width]``, and predicts the
    residue-mass factor ``rho`` that closes the worst margin, over
    every outsider whose upper bound still reaches the k-th reserve
    and every member whose width breaks Definition 1.  The prediction
    assumes reserves hold still and widths shrink in proportion to
    ``r_sum``.
    """
    reserve, residue, r_sum = state.reserve, state.residue, state.r_sum
    upper = r_sum - residue                  # the width, until += reserve
    upper *= bound
    upper += residue
    if state.graph.dangling == "restart":
        upper[state.source] = r_sum          # b(s) = 1
    order = top_k_order(reserve, k)
    low = reserve[order]
    rho = float(np.min(eps * np.maximum(low, delta)
                       / np.maximum(upper[order], _TINY)))
    upper += reserve
    gap = math.inf
    if k < reserve.shape[0]:
        kth = low[-1]
        member_upper = upper[order]
        upper[order] = -math.inf
        gap = float(kth - upper.max())
        if gap <= 0:
            blocked = np.flatnonzero(upper >= kth)
            need = kth - reserve[blocked]
            rho = min(rho, float(np.min(
                need / np.maximum(upper[blocked] - reserve[blocked], _TINY))))
        upper[order] = member_upper
    return _Check(order, upper, gap, rho)


def _envelope(graph, source, k, params, accuracy, trace):
    """The certified (or capped) envelope answer; ``path="topk"``."""
    eps, delta = float(accuracy.eps), float(accuracy.delta)
    tol = eps * delta
    floor = tol / TIE_FLOOR
    trace.note(
        algorithm="topk", source=int(source), n=graph.n, m=graph.m, k=k,
        alpha=params.alpha, eps=eps, delta=delta, tol=tol,
    )
    state, _ = push_state(graph, source, params, FIRST_CHECK * tol, trace)
    bound = state.cache.score_bound(params.alpha)
    checks = 0
    while True:
        check = _certify(state, bound, k, eps, delta)
        checks += 1
        if check.passed or state.r_sum <= floor:
            break
        # Each target is below r_sum, so each drain runs a sweep; one
        # sweep already takes r_sum to (1 - alpha) * r_sum or below.
        rho = min(max(check.rho, 1.0 / MAX_STEP), 1.0 - params.alpha)
        state.drain(max(state.r_sum * rho, floor), trace, TOPK_PHASE)
    order = check.order
    values = state.reserve[order]
    trace.note(topk_separated=check.passed, topk_gap=check.gap,
               topk_checks=checks, topk_sweeps=state.sweeps)
    return TopKAnswer(
        source=int(source), k=k, nodes=order, values=values,
        lower=values.copy(), upper=check.upper[order],
        separated=check.passed,
        path="topk", bound_gap=check.gap, bound_width=state.r_sum,
        alpha=params.alpha, walks_used=0, pushes=state.stats.pushes,
        rounds=checks, r_sum=state.r_sum,
        extras={"sweeps": state.sweeps, "checks": checks},
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

    * ``"auto"`` (default) -- the PowerPush envelope, swept until the
      set is certified or the tie floor is reached (``path="topk"``).
      Deterministic: ``seed`` is accepted and ignored, so the answer is
      a pure function of ``(graph, source, k, accuracy)`` and
      byte-identical across engines and workers.
    * ``"full"`` -- a full ResAcc solve with ``seed``, answered through
      :func:`answer_from_result` (``path="full"``).

    ``k`` must be ``>= 1`` and is clamped to ``n``.  ``trace`` is an
    optional :class:`repro.obs.QueryTrace` (or a deadline proxy): the
    envelope records ``localpush`` / ``power`` phases plus one
    ``"topk_refine"`` phase per drain between two certificate checks,
    and notes ``topk_separated`` / ``topk_gap`` / ``topk_checks`` /
    ``topk_sweeps``.
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
