"""Concurrent batched query serving.

The package splits the problem into three small, separately-testable
pieces:

* :mod:`repro.serving.epoch` -- :class:`EpochGate`, the writer-preferring
  readers-writer lock + graph-epoch counter that lets mutations quiesce
  in-flight queries;
* :mod:`repro.serving.cache` -- :class:`SingleFlightCache`, the
  thread-safe LRU with per-key flight coalescing and generation-fenced
  invalidation;
* :mod:`repro.serving.engine` -- :class:`ConcurrentQueryEngine`, the
  one serving engine: it composes the two behind the familiar
  ``query`` / ``query_batch`` / ``add_edge`` surface and counts into
  :class:`ServiceStats` (:class:`repro.service.QueryEngine` is it with
  one worker);
* :mod:`repro.serving.multiproc` -- :class:`MultiProcessQueryEngine`,
  the same contract dispatched across solver worker *processes* that
  map one shared-memory graph snapshot (breaks the GIL ceiling on
  cache-cold workloads; see ``docs/multiprocess.md``);
* :mod:`repro.serving.retention` -- the offset-bound math that lets
  incremental engines keep cached answers across single-edge mutations
  instead of invalidating everything (see ``docs/dynamic.md``);
* :mod:`repro.serving.tiers` -- the exact/degraded tier vocabulary and
  the :class:`TierPolicy` that lets the HTTP layer downgrade to a
  cheap CPI answer instead of shedding (see ``docs/scale.md``).

See ``docs/serving.md`` for the design and the determinism contract
(batched results are byte-identical to a sequential loop for fixed
seeds -- every engine).
"""

from repro.serving.cache import SingleFlightCache
from repro.serving.engine import (
    WORKER_NAME_PREFIX,
    BatchOutcome,
    ConcurrentQueryEngine,
    ServiceStats,
)
from repro.serving.epoch import EpochGate
from repro.serving.multiproc import MultiProcessQueryEngine
from repro.serving.retention import RetentionMeta
from repro.serving.tiers import (
    TIER_CPI,
    TIER_EXACT,
    TIERS,
    TierPolicy,
    achieved_eps,
    tier_of,
)

__all__ = [
    "BatchOutcome",
    "ConcurrentQueryEngine",
    "EpochGate",
    "MultiProcessQueryEngine",
    "RetentionMeta",
    "ServiceStats",
    "SingleFlightCache",
    "TIER_CPI",
    "TIER_EXACT",
    "TIERS",
    "TierPolicy",
    "WORKER_NAME_PREFIX",
    "achieved_eps",
    "tier_of",
]
