"""The solver registry: what each SSRWR solver can do behind the engines.

Every serving engine holds one :class:`SolverEntry` and asks it what the
solver supports instead of comparing solver names:

* ``solve(graph, source, *, accuracy, seed, trace, walk_workers,
  walk_executor)`` answers one source;
* ``solve_batch(graph, sources, *, accuracy, trace)``, when present,
  answers many sources as one blocked solve, byte-identical to a
  ``solve`` loop -- ``blocked_batch`` is true exactly then, and the cold
  misses of ``query_batch`` (and :func:`repro.core.multisource.msrwr`)
  go through it;
* ``topk_fast_path`` lets ``top_k`` run the early-terminating solver of
  :mod:`repro.core.topk_solver` (built on ResAcc's push + walk
  envelope); without it top-k answers come from the full vector;
* ``retention_safe`` lets an incremental engine keep cached answers
  across single-edge mutations (the offset bound of
  :mod:`repro.serving.retention` was derived against ResAcc's contract)
  and solve misses at ``solve_margin * eps`` to create that slack.

The named entries are ``resacc`` (the paper's algorithm, and what
``auto`` resolves to) and ``powerpush``.  A custom callable becomes an
entry with every flag off (:func:`get`).

Entry functions import their solver from its module at call time, so a
caller that patches ``repro.core.powerpush.powerpush`` (or
``powerpush_batch``) sees the patched function on the next solve.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ParameterError

#: Environment variable selecting the solver (``REPRO_PUSH_BACKEND``
#: analogue at the solver level).
SOLVER_ENV = "REPRO_SOLVER"


@dataclass(frozen=True)
class SolverEntry:
    """One solver and the capability flags the engines read."""

    solve: Callable
    solve_batch: Callable | None = None
    topk_fast_path: bool = False
    retention_safe: bool = False

    @property
    def blocked_batch(self):
        """Whether many sources can be solved as one blocked solve."""
        return self.solve_batch is not None


def _resacc(graph, source, *, accuracy=None, seed=0, trace=None,
            walk_workers=1, walk_executor=None):
    from repro.core.resacc import resacc

    return resacc(graph, source, accuracy=accuracy, seed=seed, trace=trace,
                  walk_workers=walk_workers, walk_executor=walk_executor)


def _powerpush(graph, source, *, accuracy=None, seed=0, trace=None,
               walk_workers=1, walk_executor=None):
    # Deterministic with zero walks: the seed and walk pool are moot.
    from repro.core.powerpush import powerpush

    return powerpush(graph, source, accuracy=accuracy, trace=trace)


def _powerpush_batch(graph, sources, *, accuracy=None, trace=None):
    from repro.core.powerpush import powerpush_batch

    return powerpush_batch(graph, sources, accuracy=accuracy, trace=trace)


#: The named entries, by resolved name.
ENTRIES = {
    "resacc": SolverEntry(_resacc, topk_fast_path=True, retention_safe=True),
    "powerpush": SolverEntry(_powerpush, solve_batch=_powerpush_batch),
}

#: Recognized solver names (``auto`` resolves at call time).
SOLVERS = ("auto", *ENTRIES)


def resolve_solver(solver=None):
    """Resolve a solver request to ``"resacc"`` or ``"powerpush"``.

    ``solver=None`` consults :data:`SOLVER_ENV` (default ``auto``);
    ``auto`` resolves to ``resacc``, the paper's algorithm.  Unknown
    names raise :class:`~repro.errors.ParameterError`.  Every engine
    resolves through here, so one engine configuration always maps a
    cache key to exactly one solver.
    """
    name = solver if solver is not None \
        else os.environ.get(SOLVER_ENV, "auto")
    name = str(name).strip().lower() or "auto"
    if name not in SOLVERS:
        raise ParameterError(
            f"unknown solver {name!r}; expected one of {SOLVERS}"
        )
    return "resacc" if name == "auto" else name


def get_solver(solver=None):
    """The plain solver function for a (resolved) solver name."""
    if resolve_solver(solver) == "powerpush":
        from repro.core.powerpush import powerpush

        return powerpush
    from repro.core.resacc import resacc

    return resacc


def get(solver=None):
    """The entry for a solver name (``None`` reads :data:`SOLVER_ENV`).

    A custom callable ``solver(graph, source, accuracy, seed) ->
    SSRWRResult`` becomes an entry with every flag off; it receives no
    trace or walk pool.
    """
    if solver is None or isinstance(solver, str):
        return ENTRIES[resolve_solver(solver)]

    def solve(graph, source, *, accuracy=None, seed=0, **_):
        return solver(graph, source, accuracy, seed)

    return SolverEntry(solve)
