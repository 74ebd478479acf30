"""Mmap-backed CSR, ``.rcsr`` serialization and streaming ingestion.

Covers the billion-scale tier's storage layer (see docs/scale.md):

* ``.rcsr`` save/load round trips and the digest's stability across
  the in-RAM, ``.npz`` and mmap representations;
* every corruption path (truncation, bad magic, unknown version);
* streaming ingestion's byte-identity with ``from_edges`` -- including
  symmetrization, implicit ``n`` and block boundaries;
* :class:`MmapCSRGraph` answering solver queries byte-identically to
  the resident :class:`CSRGraph` across all three generator families;
* the shared-memory export path handing workers a file path instead of
  copying the arrays.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    MmapCSRGraph,
    from_edges,
    generators,
    graph_digest,
    ingest_edge_list,
    load_mmap,
    load_npz,
    mmap_path_of,
    npz_to_mmap,
    read_edge_list,
    save_mmap,
    save_npz,
)
from repro.graph.csr import is_file_backed


@pytest.fixture
def random_edges(rng):
    return rng.integers(0, 500, size=(20_000, 2))


@pytest.fixture
def random_graph(random_edges):
    return from_edges(500, random_edges)


@pytest.fixture
def edge_file(tmp_path, random_edges):
    """The edge list as text, with comments and blank lines mixed in."""
    path = tmp_path / "edges.txt"
    with path.open("w") as fh:
        fh.write("# header comment\n\n")
        for u, v in random_edges:
            fh.write(f"{u} {v}\n")
        fh.write("  # trailing comment\n")
    return path


def family_graphs():
    return [
        ("social", generators.preferential_attachment(300, 3, seed=7)),
        ("web", generators.directed_power_law(250, 5.0, seed=11)),
        ("blocks", generators.stochastic_block_model(
            [30] * 10, p_in=0.08, p_out=0.002, seed=3)),
    ]


# ----------------------------------------------------------------------
# Round trips + digest stability
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_read_edge_list_matches_from_edges(self, edge_file,
                                               random_graph):
        assert read_edge_list(edge_file, n=500) == random_graph

    def test_write_read_round_trip(self, tmp_path, random_graph):
        from repro.graph import write_edge_list

        out = tmp_path / "w.txt"
        write_edge_list(random_graph, out)
        assert read_edge_list(out) == random_graph

    def test_mmap_round_trip_is_file_backed(self, tmp_path, random_graph):
        path = tmp_path / "g.rcsr"
        save_mmap(random_graph, path)
        back = load_mmap(path)
        assert isinstance(back, MmapCSRGraph)
        assert is_file_backed(back.indptr)
        assert is_file_backed(back.indices)
        assert mmap_path_of(back) == path
        assert mmap_path_of(random_graph) is None
        assert back.indptr.tobytes() == random_graph.indptr.tobytes()
        assert back.indices.tobytes() == random_graph.indices.tobytes()

    def test_digest_stable_across_representations(self, tmp_path,
                                                  random_graph):
        npz = tmp_path / "g.npz"
        save_npz(random_graph, npz)
        rcsr = npz_to_mmap(npz, tmp_path / "g.rcsr")
        want = graph_digest(random_graph)
        assert graph_digest(load_npz(npz)) == want
        assert graph_digest(load_mmap(rcsr)) == want

    @pytest.mark.parametrize("family,graph", family_graphs(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_all_generator_families_round_trip(self, tmp_path, family,
                                               graph):
        path = tmp_path / f"{family}.rcsr"
        save_mmap(graph, path)
        assert graph_digest(load_mmap(path)) == graph_digest(graph)

    def test_resident_bytes_excludes_mapped_pages(self, tmp_path,
                                                  random_graph):
        path = tmp_path / "g.rcsr"
        save_mmap(random_graph, path)
        back = load_mmap(path)
        assert back.resident_bytes < random_graph.resident_bytes

    def test_empty_graph(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert read_edge_list(empty).n == 0
        ingested = ingest_edge_list(empty, tmp_path / "e.rcsr")
        assert ingested.n == 0 and ingested.m == 0


# ----------------------------------------------------------------------
# Corruption and error paths
# ----------------------------------------------------------------------
class TestFormatErrors:
    @pytest.fixture
    def rcsr_bytes(self, tmp_path, random_graph):
        path = tmp_path / "g.rcsr"
        save_mmap(random_graph, path)
        return path.read_bytes()

    def test_truncated_file_rejected(self, tmp_path, rcsr_bytes):
        path = tmp_path / "t.rcsr"
        path.write_bytes(rcsr_bytes[:-64])
        with pytest.raises(GraphFormatError, match="truncated"):
            load_mmap(path)

    def test_unknown_version_rejected(self, tmp_path, rcsr_bytes):
        head = bytearray(rcsr_bytes[:4096])
        struct.pack_into("<I", head, 4, 99)
        path = tmp_path / "v.rcsr"
        path.write_bytes(bytes(head) + rcsr_bytes[4096:])
        with pytest.raises(GraphFormatError,
                           match="unsupported graph file version 99"):
            load_mmap(path)

    def test_bad_magic_rejected(self, tmp_path, rcsr_bytes):
        path = tmp_path / "m.rcsr"
        path.write_bytes(b"XXXX" + rcsr_bytes[4:])
        with pytest.raises(GraphFormatError):
            load_mmap(path)

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3\n")
        with pytest.raises(GraphFormatError, match=r":2:"):
            read_edge_list(bad)
        bad.write_text("1 2\nx 3\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(bad)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "cols.txt"
        path.write_text("1 2 9\n3 4\n")
        graph = read_edge_list(path)
        assert graph.m == 2
        assert graph.has_edge(1, 2) and graph.has_edge(3, 4)

    def test_ingest_rejects_out_of_range(self, tmp_path, edge_file):
        with pytest.raises(GraphFormatError, match="out of range"):
            ingest_edge_list(edge_file, tmp_path / "oor.rcsr", n=5)


# ----------------------------------------------------------------------
# Streaming ingestion byte-identity
# ----------------------------------------------------------------------
class TestIngest:
    def test_matches_from_edges(self, tmp_path, edge_file, random_graph):
        # An odd block size forces compaction across block boundaries.
        got = ingest_edge_list(edge_file, tmp_path / "i.rcsr", n=500,
                               block_edges=777)
        assert got.indptr.tobytes() == random_graph.indptr.tobytes()
        assert got.indices.tobytes() == random_graph.indices.tobytes()
        assert graph_digest(got) == graph_digest(random_graph)

    def test_symmetrize_matches(self, tmp_path, edge_file, random_edges):
        want = from_edges(500, random_edges, symmetrize=True)
        got = ingest_edge_list(edge_file, tmp_path / "s.rcsr", n=500,
                               symmetrize=True, block_edges=513)
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()

    def test_implicit_n_matches_reader(self, tmp_path, edge_file):
        got = ingest_edge_list(edge_file, tmp_path / "n.rcsr")
        want = read_edge_list(edge_file)
        assert got.n == want.n
        assert got.indices.tobytes() == want.indices.tobytes()

    def test_small_parse_chunks(self, tmp_path, edge_file, random_graph):
        got = ingest_edge_list(edge_file, tmp_path / "c.rcsr", n=500,
                               chunk_bytes=4096)
        assert graph_digest(got) == graph_digest(random_graph)


# ----------------------------------------------------------------------
# Solver byte-identity over mmap graphs
# ----------------------------------------------------------------------
class TestMmapSolves:
    @pytest.mark.parametrize("family,graph", family_graphs(),
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("solver", ["resacc", "powerpush"])
    def test_engine_byte_identical(self, tmp_path, family, graph, solver):
        from repro.serving import ConcurrentQueryEngine

        path = tmp_path / f"{family}.rcsr"
        save_mmap(graph, path)
        mapped = load_mmap(path)
        sources = [0, graph.n // 2, graph.n - 1]
        with ConcurrentQueryEngine(graph, solver=solver, seed=0) as ram, \
                ConcurrentQueryEngine(mapped, solver=solver, seed=0) as mm:
            for source in sources:
                want = ram.query(source).estimates
                got = mm.query(source).estimates
                assert got.tobytes() == want.tobytes(), (family, source)

    def test_top_k_byte_identical(self, tmp_path, ba_graph):
        from repro.serving import ConcurrentQueryEngine

        path = tmp_path / "ba.rcsr"
        save_mmap(ba_graph, path)
        mapped = load_mmap(path)
        with ConcurrentQueryEngine(ba_graph, seed=0) as ram, \
                ConcurrentQueryEngine(mapped, seed=0) as mm:
            for source in (0, 7):
                want = ram.top_k(source, 5)
                got = mm.top_k(source, 5)
                assert np.array_equal(got.nodes, want.nodes)
                assert (np.asarray(got.values).tobytes()
                        == np.asarray(want.values).tobytes())

    def test_mutation_detaches_from_file(self, tmp_path, ba_graph):
        """Engines over mmap graphs stay mutable: the first write
        splices into a resident snapshot and the file is untouched."""
        from repro.serving import ConcurrentQueryEngine

        path = tmp_path / "mut.rcsr"
        save_mmap(ba_graph, path)
        before = path.read_bytes()
        with ConcurrentQueryEngine(load_mmap(path), seed=0) as engine:
            assert engine.add_edge(0, ba_graph.n - 1) or True
            engine.query(0)
        assert path.read_bytes() == before

    def test_shared_export_passes_path(self, tmp_path, ba_graph):
        from repro.graph.shared import SharedCSRGraph, attach_csr_graph

        path = tmp_path / "sh.rcsr"
        save_mmap(ba_graph, path)
        mapped = load_mmap(path)
        shared = SharedCSRGraph(mapped)
        try:
            assert shared.handle["mmap_path"] == str(path)
            attached = attach_csr_graph(shared.handle)
            assert attached.indices.tobytes() == ba_graph.indices.tobytes()
        finally:
            shared.close()

    def test_catalog_mmap_load(self, tmp_path):
        from repro.datasets import catalog

        graph = catalog.load("dblp", scale=0.25, mmap=True,
                             mmap_dir=tmp_path)
        assert isinstance(graph, MmapCSRGraph)
        again = catalog.load("dblp", scale=0.25, mmap=True,
                             mmap_dir=tmp_path)
        assert again.path == graph.path
        resident = catalog.load("dblp", scale=0.25)
        assert graph.indices.tobytes() == resident.indices.tobytes()
