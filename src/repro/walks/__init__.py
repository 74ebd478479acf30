"""Vectorized random-walk simulation engine (serial and process-parallel)."""

from repro.walks.engine import (
    MAX_WALK_STEPS,
    residue_weighted_walks,
    sample_walk_endpoints,
    walk_endpoints,
    walk_terminal_mass,
    walk_visit_mass,
    walks_from_single_source,
)
from repro.walks.parallel import ParallelWalkExecutor, SharedCSRGraph

__all__ = [
    "MAX_WALK_STEPS",
    "ParallelWalkExecutor",
    "SharedCSRGraph",
    "residue_weighted_walks",
    "sample_walk_endpoints",
    "walk_endpoints",
    "walk_terminal_mass",
    "walk_visit_mass",
    "walks_from_single_source",
]
