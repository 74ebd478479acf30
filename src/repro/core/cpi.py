"""Cumulative power iteration: the TPA-style degraded-accuracy tier.

TPA (Yoon et al., arXiv:1708.02574) observes that truncating the power
expansion of RWR after ``L`` rounds leaves a *known* amount of
probability mass unplaced: the walk mass still "live" after ``L`` steps,
which shrinks geometrically (``(1 - alpha)^L`` on dangling-free graphs).
:func:`cpi` runs exactly that truncated iteration, honoring both
dangling policies, and returns the partial vector *with its computable
error bound*; :class:`repro.baselines.tpa.TPAIndex` runs the same
function and guesses the leftover tail from global PageRank instead.

The bound is elementary: every entry of the exact vector equals the
partial estimate plus some share of the still-live mass that will be
absorbed later, so

    0 <= pi(s, t) - estimate[t] <= leftover      for every t,

where ``leftover`` is the live-mass total after the last round.  The
estimate is therefore a uniform *underestimate* with known worst case --
exactly what the serving tier needs to report a truthful
``accuracy_achieved`` when it degrades a query instead of shedding it
(see :mod:`repro.serving.tiers` and ``docs/scale.md``).

The truncated iteration is PowerPush's power stage with no local stage
in front: a fresh :class:`repro.core.powerpush.PushState` (unit residue
at the source) drained with ``tol = 0`` and the round budget as the
sweep cap, so the leftover is the state's ``r_sum``.  Cost per round is
one SpMV sweep on the snapshot's cached power operator ``(1 - alpha)
A^T D^-1`` -- the operator every PowerPush and top-k envelope sweep
uses -- and ``pushes`` counts ``n`` per sweep, as PowerPush does.
"""

from __future__ import annotations

import time

from repro.core.powerpush import PushState, _drain_states
from repro.core.result import SSRWRResult
from repro.errors import ParameterError
from repro.obs.trace import NULL_TRACE
from repro.push.forward import init_state
from repro.push.kernels import get_push_cache

#: Default round budget of the degraded tier; ``(1 - 0.2)^8 ~ 0.17`` of
#: the mass is still unplaced, which is the accuracy price of a cheap
#: answer (callers see the exact figure in ``extras["error_bound"]``).
DEFAULT_CPI_ROUNDS = 8


def cpi_error_bound(alpha, rounds):
    """Upper bound on the leftover mass after ``rounds`` sweeps.

    ``(1 - alpha)^rounds`` -- attained when no walk terminates early.
    The *actual* leftover returned by :func:`cpi` is never larger.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if rounds < 0:
        raise ParameterError(f"rounds must be >= 0, got {rounds}")
    return (1.0 - alpha) ** rounds


def cpi(graph, source, *, alpha=0.2, rounds=DEFAULT_CPI_ROUNDS,
        trace=None):
    """Truncated cumulative power iteration with a computable bound.

    Parameters
    ----------
    rounds:
        Sweep budget; fewer run when the live mass runs out exactly
        (absorbing dangling nodes can end every walk early).
    trace:
        Observability hook (``repro.obs.trace``) or None; the whole
        solve is one ``cpi`` phase.

    Returns
    -------
    SSRWRResult
        ``algorithm="cpi"`` with ``extras`` carrying ``tier="cpi"``,
        ``rounds`` actually run, and ``error_bound`` -- the exact
        leftover mass, a per-node additive error guarantee.  Estimates
        never exceed the true RWR probabilities.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    if rounds < 0:
        raise ParameterError(f"rounds must be >= 0, got {rounds}")

    if trace is None:
        trace = NULL_TRACE
    tic = time.perf_counter()
    state = PushState(graph, int(source), alpha, *init_state(graph, source),
                      get_push_cache(graph))
    trace.begin_phase("cpi", state.residue)
    _drain_states([state], 0.0, max_sweeps=int(rounds))
    trace.end_phase(state.residue)
    elapsed = time.perf_counter() - tic

    return SSRWRResult(
        source=int(source),
        estimates=state.reserve,
        alpha=alpha,
        algorithm="cpi",
        walks_used=0,
        pushes=state.stats.pushes,
        phase_seconds={"cpi": elapsed},
        extras={
            "tier": "cpi",
            "rounds": state.sweeps,
            "error_bound": state.r_sum,
        },
    )
