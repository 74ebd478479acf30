"""Local-update push kernels shared by ResAcc and the baselines."""

from repro.push.backward import backward_push
from repro.push.forward import (
    forward_push_loop,
    init_state,
    push_thresholds,
    single_push,
)
from repro.push.kernels import (
    PushStats,
    SnapshotPushCache,
    dense_reference_loop,
    get_push_cache,
    release_push_cache,
)

__all__ = [
    "PushStats",
    "SnapshotPushCache",
    "backward_push",
    "dense_reference_loop",
    "forward_push_loop",
    "get_push_cache",
    "init_state",
    "push_thresholds",
    "release_push_cache",
    "single_push",
]
