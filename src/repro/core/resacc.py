"""ResAcc: the Residue-Accumulated approach (Algorithm 2).

The paper's primary contribution.  An SSRWR query runs three phases:

1. :func:`repro.core.hhop.h_hop_forward` -- fast reserves/residues inside
   the h-hop induced subgraph of the source, with residue accumulation;
2. :func:`repro.core.omfwd.omfwd` -- drains the accumulated boundary-layer
   residues under the second threshold ``r_max_f``, shrinking ``r_sum``;
3. :func:`repro.core.remedy.remedy` -- residue-weighted random walks that
   turn the leftover residues into an unbiased correction.

The returned estimates satisfy Definition 1: every node with
``pi(s, t) > delta`` is within relative error ``eps`` with probability at
least ``1 - p_f`` (Theorem 3).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.hhop import h_hop_forward, hop_residue_sum
from repro.core.omfwd import omfwd, residue_sum
from repro.core.params import AccuracyParams, ResAccParams
from repro.core.remedy import remedy
from repro.core.result import SSRWRResult
from repro.errors import ParameterError
from repro.obs.trace import NULL_TRACE
from repro.push.forward import init_state


def resacc(graph, source, *, params=None, accuracy=None, rng=None, seed=0,
           walk_scale=1.0, estimator="terminal", trace=None):
    """Answer an approximate SSRWR query with ResAcc.

    Parameters
    ----------
    graph:
        A :class:`repro.graph.CSRGraph`.
    source:
        The query node ``s``.
    params:
        :class:`ResAccParams` (defaults to the paper's Section VII-A
        setting: ``alpha=0.2``, ``h=2``, ``r_max_hop=1e-14``,
        ``r_max_f=1/(10m)``).
    accuracy:
        :class:`AccuracyParams` (defaults to ``eps=0.5``,
        ``delta=p_f=1/n``).
    rng / seed:
        Randomness for the remedy phase; pass an explicit
        ``numpy.random.Generator`` or a seed.
    walk_scale:
        Multiplier on the remedy walk budget (1.0 keeps the guarantee).
    estimator:
        ``"terminal"`` (paper-faithful, Theorem 3's constants) or
        ``"visits"`` (visit-count sampler; unbiased, empirically
        lower-variance, ``"absorb"`` policy only).
    trace:
        Optional :class:`repro.obs.QueryTrace`.  When supplied it is
        populated with per-phase wall time, push/walk counters and
        residue-mass snapshots, and attached to the result's
        ``.trace``.  The estimates are byte-identical either way: the
        trace only observes, it never participates in the arithmetic.

    Returns an :class:`SSRWRResult` whose ``phase_seconds`` carries the
    Table VII breakdown (``hhopfwd`` / ``omfwd`` / ``remedy``).
    """
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    params = params or ResAccParams()
    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    rng_seed = None if rng is not None else int(seed)
    rng = rng if rng is not None else np.random.default_rng(seed)
    r_max_f = params.bound_r_max_f(graph)
    caller_trace = trace
    trace = trace if trace is not None else NULL_TRACE
    trace.note(
        algorithm="resacc", source=int(source), n=graph.n, m=graph.m,
        seed=rng_seed, alpha=params.alpha, h=params.h,
        r_max_hop=params.r_max_hop, r_max_f=r_max_f,
        push_method=params.push_method, eps=accuracy.eps,
        delta=accuracy.delta, p_f=accuracy.p_f,
        walk_scale=walk_scale, estimator=estimator,
    )

    reserve, residue = init_state(graph, source)

    trace.begin_phase("hhopfwd", residue)
    tic = time.perf_counter()
    hhop = h_hop_forward(
        graph, source, params.alpha, params.r_max_hop, params.h,
        reserve, residue, method=params.push_method, trace=trace,
    )
    t_hhop = time.perf_counter() - tic
    trace.end_phase(residue)
    r_sum_hop = hop_residue_sum(residue, hhop.hops, params.h)

    trace.begin_phase("omfwd", residue)
    tic = time.perf_counter()
    om_stats = omfwd(
        graph, reserve, residue, params.alpha, r_max_f,
        boundary_nodes=hhop.boundary_nodes, source=source,
        method=params.push_method, trace=trace,
    )
    t_omfwd = time.perf_counter() - tic
    trace.end_phase(residue)

    trace.begin_phase("remedy", residue)
    tic = time.perf_counter()
    outcome = remedy(graph, residue, params.alpha, accuracy, rng,
                     source=source, walk_scale=walk_scale,
                     estimator=estimator, trace=trace)
    t_remedy = time.perf_counter() - tic
    trace.end_phase(residue)

    estimates = reserve + outcome.mass
    return SSRWRResult(
        source=int(source),
        estimates=estimates,
        alpha=params.alpha,
        algorithm="resacc",
        walks_used=outcome.walks_used,
        pushes=hhop.stats.pushes + om_stats.pushes,
        phase_seconds={
            "hhopfwd": t_hhop,
            "omfwd": t_omfwd,
            "remedy": t_remedy,
        },
        extras={
            "r1_source": hhop.r1_source,
            "num_rounds": hhop.num_rounds,
            "scaler": hhop.scaler,
            "r_sum_hop": r_sum_hop,
            "r_sum": outcome.r_sum,
            "n_r": outcome.n_r,
            "r_max_f": r_max_f,
            "post_remedy_residue": residue_sum(residue),
        },
        # Return the caller's trace object (None when tracing is off)
        # rather than `trace or None`, which would silently depend on
        # NULL_TRACE being falsy after the rebinding above.
        trace=caller_trace,
    )
