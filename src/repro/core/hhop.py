"""h-HopFWD: forward search with residue accumulation (Algorithm 3).

Plain Forward Search suffers the *looping phenomenon* (Section IV-A): the
source keeps re-acquiring residue through back-edges, and every re-push
replays the same ordering of operations.  h-HopFWD cuts the loop:

1. **Accumulating phase** -- one unconditional push at the source ``s``,
   then pushes restricted to the h-hop induced subgraph ``V_h(s) \\ {s}``
   with threshold ``r_max_hop``.  Residue flowing back to ``s`` (and onto
   the boundary layer ``L_{h+1}(s)``) accumulates instead of triggering
   re-pushes.
2. **Updating phase** -- by Lemma 2 the ``i``-th would-be accumulating
   round is exactly the first round scaled by ``r1^{i-1}`` where
   ``r1 = r^f(s, s)`` after round one.  All ``T`` rounds are therefore
   applied at once: reserves and non-source residues scale by the geometric
   sum ``S = sum_{i=1..T} r1^{i-1} = (1 - r1^T) / (1 - r1)`` and the
   source's residue becomes ``r1^T``.

``T`` is the smallest integer with ``r1^T < r_max_hop * d_out(s)``, i.e.
the first round after which the source fails the push condition (Lemma 3).

Note on the scaler: Algorithm 3 in the paper prints
``S = (1 - r1^(T-1)) / (1 - r1)``, but the paper's own Appendix Q derives
``S = sum_{i=1..T} r1^(i-1) = (1 - r1^T) / (1 - r1)``.  We implement the
Appendix-Q form -- it is the one that preserves the push invariant
*exactly*: the scaled state still satisfies
``pi(s,t) = reserve(t) + sum_v residue(v) pi(v,t)`` (and total mass 1),
which Theorem 1's unbiasedness requires.  The test suite verifies the
invariant against the exact solver.

A nuance the paper's Lemma 2 glosses over: an *explicit* round-by-round
replay (:func:`oaop_reference`) starts each round with the previous
round's sub-threshold leftovers still in place, so its push decisions --
and its final valid fixpoint -- differ from the clean scaled replay by
``O(r_max_hop)`` per node.  Both states satisfy the invariant exactly;
they are different valid stopping points of the same push system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.hop import HopStructure, hop_structure
from repro.push.forward import (
    PushStats,
    forward_push_loop,
    init_state,
    single_push,
)

#: Residues at the source below this are treated as zero in the updating
#: phase; the geometric scaling of values this small is below float64 noise.
_NEGLIGIBLE_RESIDUE = 1e-300


@dataclass
class HHopOutcome:
    """Diagnostics of one h-HopFWD run."""

    hops: HopStructure
    r1_source: float        # source residue after the accumulating phase
    num_rounds: int         # T, the number of (virtual) accumulating rounds
    scaler: float           # S, the geometric factor applied in the update
    stats: PushStats = field(default_factory=PushStats)

    @property
    def boundary_nodes(self):
        """The ``L_{h+1}`` layer whose residues accumulated (for OMFWD)."""
        return self.hops.boundary_layer


def h_hop_forward(graph, source, alpha, r_max_hop, h, reserve, residue, *,
                  method="frontier", max_pushes=None, trace=None):
    """Run h-HopFWD in place on ``(reserve, residue)``.

    ``reserve`` and ``residue`` must be the freshly initialized state
    (:func:`repro.push.init_state`); they are updated to the post-phase
    values for every node in ``V_h(s)`` plus residues on ``L_{h+1}(s)``.

    ``trace`` is an optional :class:`repro.obs.QueryTrace`; push counters
    and subgraph sizes are flushed into it at phase boundaries.

    Returns an :class:`HHopOutcome`.
    """
    hops = hop_structure(graph, source, h + 1)
    stats = PushStats()
    # Line 2: the very first push at s is unconditional.
    single_push(graph, source, reserve, residue, alpha, source=source)
    stats.pushes += 1
    # Lines 3-7: accumulate.  Only V_h \ {s} may push; s and L_{h+1} freeze.
    can_push = hops.within(h)
    can_push[source] = False
    loop_stats = forward_push_loop(
        graph, reserve, residue, alpha, r_max_hop,
        can_push=can_push, source=source, method=method,
        max_pushes=max_pushes, trace=trace,
    )
    stats.merge(loop_stats)
    # Lines 8-18: the closed-form updating phase.
    r1 = float(residue[source])
    num_rounds, scaler = _updating_factors(graph, source, r_max_hop, r1)
    if scaler != 1.0 or num_rounds > 1:
        affected = hops.distances >= 0
        reserve[affected] *= scaler
        residue[affected] *= scaler
        residue[source] = r1 ** num_rounds
    if trace is not None and trace.enabled:
        trace.add_counters(
            pushes=1,  # the unconditional source push above
            hop_nodes=int(can_push.sum()) + 1,
            boundary_nodes=int(hops.boundary_layer.size),
            accumulating_rounds=int(num_rounds),
        )
    return HHopOutcome(hops=hops, r1_source=r1, num_rounds=num_rounds,
                       scaler=scaler, stats=stats)


def _updating_factors(graph, source, r_max_hop, r1):
    """Compute ``(T, S)`` from the accumulated source residue ``r1``."""
    if r1 <= _NEGLIGIBLE_RESIDUE:
        return 1, 1.0
    if r1 >= 1.0:
        raise ConvergenceError(
            f"source residue {r1} >= 1 after the accumulating phase; "
            "the graph violates alpha-absorption assumptions"
        )
    threshold = r_max_hop * max(graph.out_degree(source), 1)
    if r1 < threshold:
        # The source already fails the push condition: one round happened.
        return 1, 1.0
    # Smallest T with r1^T < threshold.
    num_rounds = int(math.ceil(math.log(threshold) / math.log(r1)))
    num_rounds = max(num_rounds, 1)
    while r1 ** num_rounds >= threshold:
        num_rounds += 1
    scaler = (1.0 - r1 ** num_rounds) / (1.0 - r1)
    return num_rounds, scaler


def oaop_reference(graph, source, alpha, r_max_hop, h, *, method="queue",
                   max_rounds=10_000):
    """One-Accumulating-One-Pushing reference (Appendix Q).

    Replays the accumulating rounds explicitly -- push ``s``, accumulate to
    convergence with the round's scaled threshold (Lemma 2), repeat while
    ``s`` still satisfies the original push condition.  Quadratically slower
    than the closed form but trivially correct; used to validate
    :func:`h_hop_forward`.

    Returns ``(reserve, residue, rounds)``.
    """
    hops = hop_structure(graph, source, h + 1)
    reserve, residue = init_state(graph, source)
    can_push = hops.within(h)
    can_push[source] = False
    threshold = r_max_hop * max(graph.out_degree(source), 1)
    rounds = 0
    while rounds == 0 or residue[source] >= threshold:
        rho = float(residue[source]) if rounds else 1.0
        if rho <= _NEGLIGIBLE_RESIDUE:
            break
        single_push(graph, source, reserve, residue, alpha, source=source)
        forward_push_loop(
            graph, reserve, residue, alpha, r_max_hop * rho,
            can_push=can_push, source=source, method=method,
        )
        rounds += 1
        if rounds > max_rounds:
            raise ConvergenceError(
                f"OAOP exceeded {max_rounds} accumulating rounds"
            )
    return reserve, residue, rounds


def residue_sum_bound(alpha, h):
    """Lemma 4's bound: ``r_sum_hop <= (1 - alpha)^h`` when every node of
    ``V_h(s)`` performed at least one push."""
    return (1.0 - alpha) ** h


def hop_residue_sum(residue, hops, h):
    """Total residue held by ``V_h`` and the boundary layer after h-HopFWD."""
    mask = hops.within(h + 1)
    return float(np.sum(residue[mask]))
