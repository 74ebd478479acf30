"""FORA (Wang et al. [28]) -- the state-of-the-art index-free baseline.

FORA = Forward Search with early termination + residue-weighted walks.
The push threshold ``r_max`` balances the two costs
``1/(alpha r_max) + m r_max c / alpha``; the optimum ``1/sqrt(m c)`` is the
default (see :func:`repro.core.params.fora_r_max`).  The walk stage is the
same remedy sampler ResAcc uses, so the two algorithms share their
accuracy guarantee and differ exactly in how small an ``r_sum`` their push
stages achieve -- which is the paper's central comparison.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.params import AccuracyParams, fora_r_max
from repro.core.remedy import remedy
from repro.core.result import SSRWRResult
from repro.errors import ParameterError
from repro.push.forward import forward_push_loop, init_state


def fora(graph, source, *, accuracy=None, alpha=0.2, r_max=None,
         rng=None, seed=0, walk_scale=1.0, method="frontier",
         max_seconds=None):
    """Answer an approximate SSRWR query with FORA.

    ``max_seconds`` implements the paper's Fig. 6(a) protocol: the walk
    stage stops early once the total elapsed time exceeds the budget
    (whatever walks completed still contribute, the rest of the residues
    go unexplored -- exactly the truncated-FORA behaviour measured there).
    """
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    rng = rng if rng is not None else np.random.default_rng(seed)
    if r_max is None:
        r_max = fora_r_max(graph, accuracy, alpha)

    reserve, residue = init_state(graph, source)
    tic = time.perf_counter()
    stats = forward_push_loop(
        graph, reserve, residue, alpha, r_max,
        source=source, method=method,
    )
    t_push = time.perf_counter() - tic

    tic = time.perf_counter()
    if max_seconds is not None and t_push >= max_seconds:
        outcome = _empty_remedy(graph, residue)
    elif max_seconds is not None:
        outcome = _budgeted_remedy(graph, residue, alpha, accuracy, rng,
                                   source, walk_scale,
                                   max_seconds - t_push)
    else:
        outcome = remedy(graph, residue, alpha, accuracy, rng,
                         source=source, walk_scale=walk_scale)
    t_walks = time.perf_counter() - tic

    return SSRWRResult(
        source=int(source), estimates=reserve + outcome.mass, alpha=alpha,
        algorithm="fora", walks_used=outcome.walks_used,
        pushes=stats.pushes,
        phase_seconds={"push": t_push, "walks": t_walks},
        extras={"r_max": r_max, "r_sum": outcome.r_sum, "n_r": outcome.n_r},
    )


def _empty_remedy(graph, residue):
    from repro.core.omfwd import residue_sum
    from repro.core.remedy import RemedyOutcome

    return RemedyOutcome(
        mass=np.zeros(graph.n, dtype=np.float64), walks_used=0,
        r_sum=residue_sum(residue), n_r=0,
    )


def _budgeted_remedy(graph, residue, alpha, accuracy, rng, source,
                     walk_scale, budget_seconds):
    """Remedy walks processed node-by-node until the time budget runs out.

    Nodes are visited in decreasing residue order so that the budget is
    spent where it matters most; nodes never reached contribute nothing
    (FORA "cannot generate random walks from most of the nodes when the
    time is over", Section VII-B3).
    """
    from repro.core.omfwd import residue_sum
    from repro.core.remedy import RemedyOutcome
    from repro.walks.engine import walk_terminal_mass

    r_sum = residue_sum(residue)
    n_r = accuracy.num_walks(r_sum) * walk_scale
    mass = np.zeros(graph.n, dtype=np.float64)
    if r_sum <= 0.0 or n_r <= 0:
        return RemedyOutcome(mass=mass, walks_used=0, r_sum=r_sum, n_r=0)
    order = np.argsort(-residue, kind="stable")
    order = order[residue[order] > 0.0]
    walks_used = 0
    deadline = time.perf_counter() + max(budget_seconds, 0.0)
    chunk = []
    chunk_weights = []
    for v in order:
        if time.perf_counter() >= deadline:
            break
        r_v = residue[v]
        walks_v = int(np.ceil(r_v * n_r / r_sum))
        chunk.append(np.full(walks_v, v, dtype=np.int64))
        chunk_weights.append(np.full(walks_v, r_v / walks_v))
        walks_used += walks_v
        if walks_used and walks_used % 4096 < walks_v:
            starts = np.concatenate(chunk)
            weights = np.concatenate(chunk_weights)
            mass += walk_terminal_mass(graph, starts, alpha, rng,
                                       weights=weights, source=source)
            chunk, chunk_weights = [], []
    if chunk:
        starts = np.concatenate(chunk)
        weights = np.concatenate(chunk_weights)
        mass += walk_terminal_mass(graph, starts, alpha, rng,
                                   weights=weights, source=source)
    return RemedyOutcome(mass=mass, walks_used=walks_used,
                         r_sum=r_sum, n_r=int(n_r))
