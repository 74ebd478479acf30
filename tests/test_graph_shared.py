"""Tests for the shared-memory CSR graph (repro.graph.shared).

The multi-process engine exports each snapshot once with
:class:`SharedCSRGraph` and rebuilds it in every worker with
:func:`attach_csr_graph`; the worker's graph must be the same graph.
"""

import numpy as np

from repro.core.resacc import resacc
from repro.graph import generators
from repro.graph.shared import SharedCSRGraph, attach_csr_graph
from repro.walks import walk_terminal_mass

ALPHA = 0.2


class TestSharedCSRGraph:
    def test_handle_round_trip(self):
        graph = generators.preferential_attachment(300, 3, seed=7)
        with SharedCSRGraph(graph) as shared:
            handle = shared.handle
            assert handle["n"] == graph.n
            assert handle["dangling"] == graph.dangling
            attached = attach_csr_graph(handle)
            assert attach_csr_graph(handle) is attached
            assert np.array_equal(attached.indptr, graph.indptr)
            assert np.array_equal(attached.indices, graph.indices)
            assert np.array_equal(attached.out_degrees, graph.out_degrees)
            # An identical rng stream yields byte-identical walks and
            # byte-identical solves on the attached graph.
            starts = np.zeros(500, dtype=np.int64)
            a = walk_terminal_mass(graph, starts, ALPHA,
                                   np.random.default_rng(1))
            b = walk_terminal_mass(attached, starts, ALPHA,
                                   np.random.default_rng(1))
            assert a.tobytes() == b.tobytes()
            assert (resacc(graph, 5, seed=3).estimates.tobytes()
                    == resacc(attached, 5, seed=3).estimates.tobytes())

    def test_close_is_idempotent(self):
        shared = SharedCSRGraph(generators.grid(4, 4))
        shared.close()
        shared.close()
