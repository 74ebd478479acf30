"""Multiple-Sources RWR (MSRWR) queries (Section VI-A extension).

The paper extends every SSRWR algorithm to MSRWR by running it once per
source.  :func:`msrwr` wraps that loop, records per-source timings and
exposes the estimates as a ``(|S|, n)`` matrix.  When the named solver
has a blocked batch solve (PowerPush, see :mod:`repro.core.solvers`),
the loop is replaced by one :func:`~repro.core.powerpush.powerpush_batch`
solve -- byte-identical results, one shared global sweep instead of
``|S|``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError


@dataclass
class MSRWRResult:
    """Estimates for a set of sources.

    ``matrix[i]`` is the SSRWR vector of ``sources[i]``.
    """

    sources: list
    matrix: np.ndarray
    per_source_seconds: list = field(default_factory=list)
    results: list = field(default_factory=list)

    def __post_init__(self):
        # source -> row, built once: for_source used to pay an O(|S|)
        # list.index scan per lookup, which made dense consumers
        # (sweeping every source of a big result) accidentally
        # quadratic.
        self._rows = {int(s): i for i, s in enumerate(self.sources)}

    @property
    def total_seconds(self):
        return float(sum(self.per_source_seconds))

    def for_source(self, s):
        """The estimate vector of one source (O(1) lookup)."""
        idx = self._rows.get(int(s))
        if idx is None:
            raise ParameterError(f"source {s} not in this result")
        return self.matrix[idx]


def msrwr(graph, sources, solver=None, *, keep_results=False):
    """Answer an MSRWR query by running ``solver`` once per source.

    ``solver`` is any callable ``solver(graph, source) -> SSRWRResult``
    (e.g. ``functools.partial(resacc, accuracy=...)``), a solver name
    (``"auto"`` / ``"resacc"`` / ``"powerpush"``), or ``None`` to
    resolve via the ``REPRO_SOLVER`` environment variable.  Named
    solvers whose registry entry has a blocked batch solve answer all
    sources at once; callables always run once per source.
    """
    sources = [int(s) for s in sources]
    if not sources:
        raise ParameterError("MSRWR needs at least one source")
    for s in sources:
        if not 0 <= s < graph.n:
            raise ParameterError(f"source {s} out of range for n={graph.n}")
    batch = None
    if solver is None or isinstance(solver, str):
        from repro.core.solvers import get

        entry = get(solver)
        solver = entry.solve
        if entry.blocked_batch:
            tic = time.perf_counter()
            batch = entry.solve_batch(graph, sources)
            share = (time.perf_counter() - tic) / len(sources)
    matrix = np.empty((len(sources), graph.n), dtype=np.float64)
    seconds = []
    kept = []
    for i, s in enumerate(sources):
        if batch is None:
            tic = time.perf_counter()
            result = solver(graph, s)
            seconds.append(time.perf_counter() - tic)
        else:
            result = batch[i]
            seconds.append(share)
        matrix[i] = result.estimates
        if keep_results:
            kept.append(result)
    return MSRWRResult(sources=sources, matrix=matrix,
                       per_source_seconds=seconds, results=kept)
