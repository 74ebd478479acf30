"""Forward Search (Andersen et al. [2]) -- Algorithm 1 of the paper.

Pure local push: the estimate is the reserve vector after all pushes, and
the residues are simply dropped.  For any fixed ``r_max > 0`` the result
carries no output bound (Table I: "Not given"), but the reserves
*underestimate* the truth by at most ``r_sum`` in total, which the tests
exploit.
"""

from __future__ import annotations

import time

from repro.core.result import SSRWRResult
from repro.errors import ParameterError
from repro.push.forward import forward_push_loop, init_state


def forward_search(graph, source, *, alpha=0.2, r_max=1e-8,
                   method="frontier", max_pushes=None):
    """Run Forward Search; returns reserves as the estimate.

    The paper's experiments use ``r_max = 1e-12`` on the real graphs;
    the scaled default here is ``1e-8``.
    """
    if not 0 <= source < graph.n:
        raise ParameterError(f"source {source} out of range for n={graph.n}")
    reserve, residue = init_state(graph, source)
    tic = time.perf_counter()
    stats = forward_push_loop(
        graph, reserve, residue, alpha, r_max,
        source=source, method=method, max_pushes=max_pushes,
    )
    elapsed = time.perf_counter() - tic
    return SSRWRResult(
        source=int(source), estimates=reserve, alpha=alpha,
        algorithm="fwd", pushes=stats.pushes,
        phase_seconds={"push": elapsed},
        extras={"r_max": r_max, "residue": residue,
                "r_sum": float(residue.sum())},
    )
