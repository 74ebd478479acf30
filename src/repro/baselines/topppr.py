"""TopPPR (Wei et al. [29]) adapted to the SSRWR query.

TopPPR answers top-K queries by combining the three primitives: forward
push for a coarse sketch, random walks to refine it, and backward pushes
from the candidate top-K nodes to certify their values.  Adapting it to a
*full* SSRWR answer (as the paper does in Section VII) keeps that
structure: nodes outside the candidate set keep their coarse estimates --
which is exactly why the paper observes TopPPR mis-ordering the tail
(Fig. 20) and its cost growing with K (Fig. 19).

The per-candidate backward pushes dominate for large K; ``max_candidates``
caps the refinement set so the Python implementation stays usable, with
the cap recorded in the result's extras.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.params import AccuracyParams, fora_r_max
from repro.core.remedy import remedy
from repro.core.result import SSRWRResult, top_k_order
from repro.errors import ParameterError
from repro.push.backward import backward_push
from repro.push.forward import forward_push_loop, init_state


def topppr(graph, source, k, *, alpha=0.2, accuracy=None, r_max=None,
           r_max_b=1e-3, rho=1.2, rng=None, seed=0, walk_scale=0.25,
           max_candidates=512, method="frontier"):
    """Top-K-oriented SSRWR estimate.

    Parameters
    ----------
    k:
        The query's K (the paper sweeps ``{5e3 .. 5e5}`` and defaults to
        ``1e5``); it is clamped to ``n``.
    rho:
        Candidate-set inflation: ``ceil(rho * k)`` nodes enter phase 3.
    walk_scale:
        Fraction of the full remedy budget spent on the coarse sketch
        (TopPPR stops its sampling once the top set is stable, so it uses
        fewer walks than a guarantee-carrying full answer).
    """
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    rng = rng if rng is not None else np.random.default_rng(seed)
    if r_max is None:
        r_max = fora_r_max(graph, accuracy, alpha)
    k = min(int(k), graph.n)

    # Phase 1: coarse forward push.
    reserve, residue = init_state(graph, source)
    tic = time.perf_counter()
    fwd_stats = forward_push_loop(
        graph, reserve, residue, alpha, r_max, source=source, method=method,
    )
    t_push = time.perf_counter() - tic

    # Phase 2: sampling refinement.
    tic = time.perf_counter()
    outcome = remedy(graph, residue, alpha, accuracy, rng, source=source,
                     walk_scale=walk_scale)
    estimates = reserve + outcome.mass
    t_walks = time.perf_counter() - tic

    # Phase 3: backward certification of the candidate set.
    tic = time.perf_counter()
    num_candidates = min(int(np.ceil(rho * k)), graph.n, int(max_candidates))
    candidates = top_k_order(estimates, num_candidates)
    backward_pushes = 0
    for t in candidates:
        reserve_b, residue_b, stats = backward_push(
            graph, int(t), alpha, r_max_b
        )
        backward_pushes += stats.pushes
        refined = reserve_b[source] + float(estimates @ residue_b)
        estimates[t] = refined
    t_backward = time.perf_counter() - tic

    return SSRWRResult(
        source=int(source), estimates=estimates, alpha=alpha,
        algorithm="topppr", walks_used=outcome.walks_used,
        pushes=fwd_stats.pushes + backward_pushes,
        phase_seconds={"push": t_push, "walks": t_walks,
                       "backward": t_backward},
        extras={"k": k, "candidates": int(num_candidates),
                "r_max": r_max, "r_max_b": r_max_b},
    )
