"""Vectorized random-walk simulation engine.

Walks run serially within a query; parallelism lives across queries
(:class:`repro.serving.MultiProcessQueryEngine`).
"""

from repro.walks.engine import (
    MAX_WALK_STEPS,
    residue_weighted_walks,
    sample_walk_endpoints,
    walk_endpoints,
    walk_terminal_mass,
    walk_visit_mass,
    walks_from_single_source,
)

__all__ = [
    "MAX_WALK_STEPS",
    "residue_weighted_walks",
    "sample_walk_endpoints",
    "walk_endpoints",
    "walk_terminal_mass",
    "walk_visit_mass",
    "walks_from_single_source",
]
