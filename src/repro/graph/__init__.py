"""Graph substrate: CSR representation, builders, IO, generators, hop BFS."""

from repro.graph.build import (
    from_adjacency,
    from_edges,
    from_networkx,
    induced_subgraph,
    to_networkx,
)
from repro.graph.biconnected import (
    articulation_points,
    biconnected_core,
    whisker_mask,
)
from repro.graph.builder import GraphBuilder
from repro.graph.components import (
    is_weakly_connected,
    largest_component,
    weakly_connected_components,
    weakly_connected_labels,
)
from repro.graph.csr import CSRGraph
from repro.graph.scc import (
    condensation_edges,
    is_strongly_connected,
    strongly_connected_components,
    strongly_connected_labels,
    terminal_components,
)
from repro.graph.dynamic import (
    add_edges,
    delete_edge,
    delete_edges,
    delete_nodes,
    grow_nodes,
    insert_edge,
    rewire_random_edges,
)
from repro.graph.hop import HopStructure, expand_ranges, hop_structure
from repro.graph.io import (
    graph_digest,
    ingest_edge_list,
    load_mmap,
    load_npz,
    npz_to_mmap,
    read_edge_list,
    save_mmap,
    save_npz,
    write_edge_list,
)
from repro.graph.mmap import MmapCSRGraph, mmap_path_of
from repro.graph.validation import GraphStats, check_consistency, graph_stats

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "GraphStats",
    "HopStructure",
    "MmapCSRGraph",
    "add_edges",
    "articulation_points",
    "biconnected_core",
    "check_consistency",
    "condensation_edges",
    "delete_edge",
    "delete_edges",
    "delete_nodes",
    "expand_ranges",
    "from_adjacency",
    "from_edges",
    "from_networkx",
    "graph_digest",
    "graph_stats",
    "grow_nodes",
    "hop_structure",
    "induced_subgraph",
    "ingest_edge_list",
    "insert_edge",
    "is_strongly_connected",
    "is_weakly_connected",
    "largest_component",
    "load_mmap",
    "load_npz",
    "mmap_path_of",
    "npz_to_mmap",
    "read_edge_list",
    "rewire_random_edges",
    "save_mmap",
    "save_npz",
    "strongly_connected_components",
    "strongly_connected_labels",
    "terminal_components",
    "to_networkx",
    "weakly_connected_components",
    "weakly_connected_labels",
    "whisker_mask",
    "write_edge_list",
]
