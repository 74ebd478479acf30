"""Memory-mapped CSR graphs: the billion-scale storage tier.

Everything else in the library assumes the graph's CSR arrays are live
numpy allocations.  That is fine up to a few hundred million edges and
hopeless at the paper's largest datasets (Twitter 1.5B, Friendster 2.1B
edges -- Table II), where ``indices`` alone is tens of gigabytes.

:class:`MmapCSRGraph` keeps the exact :class:`repro.graph.CSRGraph`
interface but backs ``indptr`` / ``indices`` with :class:`numpy.memmap`
views over a page-aligned binary file (the ``.rcsr`` layout below), so

* loading a graph is O(1) -- the kernel pages adjacency in on demand;
* several processes serving the same graph share one page cache copy
  (:class:`repro.graph.shared.SharedCSRGraph` detects the backing
  file and ships its *path* instead of copying the arrays into POSIX
  shared memory);
* anonymous (swap-backed) memory stays bounded by the derived caches a
  workload actually touches, reported by
  :attr:`CSRGraph.resident_bytes`.

File layout (version 1)
-----------------------
One 4096-byte header page followed by the two CSR arrays, each aligned
to a 4096-byte boundary so ``np.memmap`` offsets are page-aligned::

    offset 0      magic ``RCSR`` | uint32 version | int64 n | int64 m
                  | int64 dangling (0=absorb, 1=restart)
                  | int64 indptr offset | int64 indices offset
    indptr_off    (n + 1) little-endian int64
    indices_off   m little-endian int64

:func:`repro.graph.io.save_mmap` / :func:`repro.graph.io.load_mmap`
read and write it; :func:`repro.graph.io.ingest_edge_list` builds it
straight from a SNAP-style edge list without ever holding the edge set
in RAM.  See ``docs/scale.md``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import DANGLING_POLICIES, CSRGraph, is_file_backed

#: Magic prefix of the ``.rcsr`` binary layout.
MMAP_MAGIC = b"RCSR"
#: Current layout version; :func:`repro.graph.io.load_mmap` rejects others.
MMAP_FORMAT_VERSION = 1
#: Section alignment: one page, so memmap offsets are page-aligned.
MMAP_ALIGN = 4096

_HEADER_STRUCT = struct.Struct("<4sIqqqqq")


def _align(offset):
    """``offset`` rounded up to the next :data:`MMAP_ALIGN` boundary."""
    return (int(offset) + MMAP_ALIGN - 1) // MMAP_ALIGN * MMAP_ALIGN


def mmap_layout(n, m):
    """``(indptr_offset, indices_offset, file_bytes)`` for a graph size."""
    indptr_off = MMAP_ALIGN
    indices_off = _align(indptr_off + (int(n) + 1) * 8)
    return indptr_off, indices_off, indices_off + int(m) * 8


def pack_header(n, m, dangling):
    """The header page (exactly :data:`MMAP_ALIGN` bytes) for a graph."""
    if dangling not in DANGLING_POLICIES:
        raise GraphFormatError(f"unknown dangling policy {dangling!r}")
    indptr_off, indices_off, _ = mmap_layout(n, m)
    head = _HEADER_STRUCT.pack(
        MMAP_MAGIC, MMAP_FORMAT_VERSION, int(n), int(m),
        DANGLING_POLICIES.index(dangling), indptr_off, indices_off,
    )
    return head.ljust(MMAP_ALIGN, b"\0")


def unpack_header(head, path):
    """Parse and validate a header page; returns a field dict.

    Raises :class:`GraphFormatError` on anything malformed -- wrong
    magic, unsupported version, impossible sizes -- naming ``path`` so
    the error is actionable.
    """
    if len(head) < _HEADER_STRUCT.size:
        raise GraphFormatError(f"{path}: truncated mmap graph header")
    magic, version, n, m, dangling_flag, indptr_off, indices_off = (
        _HEADER_STRUCT.unpack_from(head)
    )
    if magic != MMAP_MAGIC:
        raise GraphFormatError(
            f"{path}: not an mmap graph file (bad magic {magic!r})"
        )
    if version != MMAP_FORMAT_VERSION:
        raise GraphFormatError(
            f"unsupported graph file version {version} in {path}"
        )
    if n < 0 or m < 0:
        raise GraphFormatError(f"{path}: negative graph size in header")
    if not 0 <= dangling_flag < len(DANGLING_POLICIES):
        raise GraphFormatError(
            f"{path}: unknown dangling flag {dangling_flag} in header"
        )
    expect_indptr, expect_indices, _ = mmap_layout(n, m)
    if indptr_off != expect_indptr or indices_off != expect_indices:
        raise GraphFormatError(
            f"{path}: header section offsets do not match the layout"
        )
    return {
        "n": int(n), "m": int(m),
        "dangling": DANGLING_POLICIES[dangling_flag],
        "indptr_offset": int(indptr_off),
        "indices_offset": int(indices_off),
    }


class MmapCSRGraph(CSRGraph):
    """A :class:`CSRGraph` whose CSR arrays are ``np.memmap`` views.

    Constructed by :func:`repro.graph.io.load_mmap` (and the streaming
    ingester); behaves exactly like an in-RAM graph -- every solver,
    engine and kernel sees contiguous ``int64`` arrays and produces
    byte-identical results -- but the adjacency lives in the kernel
    page cache, not in anonymous process memory.

    ``ascontiguousarray`` on an already-contiguous ``int64`` memmap
    returns the memmap itself, so the base constructor keeps the views
    file-backed rather than copying them.  Validation is structural
    only (the O(m) self-loop scan is skipped; the file was validated
    when written).

    Attributes
    ----------
    path:
        The backing ``.rcsr`` file.
    mode:
        The ``np.memmap`` mode the arrays were opened with (``"r"``
        for serving).
    """

    __slots__ = ("path", "mode")

    def __init__(self, n, indptr, indices, *, dangling="absorb",
                 path=None, mode="r"):
        super().__init__(n, indptr, indices, dangling=dangling,
                         validate=False)
        # ascontiguousarray drops the memmap subclass (base-class view of
        # the same pages); keep the original memmap objects so consumers
        # can detect file-backing with a plain isinstance check.
        if isinstance(indptr, np.memmap) and np.may_share_memory(self.indptr, indptr):
            self.indptr = indptr
        if isinstance(indices, np.memmap) and np.may_share_memory(self.indices, indices):
            self.indices = indices
        self.path = None if path is None else Path(path)
        self.mode = mode
        self._validate_cheap()

    def _validate_cheap(self):
        """O(n) structural checks; never materializes O(m) scratch."""
        if self.dangling not in DANGLING_POLICIES:
            raise GraphFormatError(
                f"unknown dangling policy {self.dangling!r}"
            )
        if self.indptr.shape != (self.n + 1,):
            raise GraphFormatError(
                f"indptr has shape {self.indptr.shape}, "
                f"expected ({self.n + 1},)"
            )
        if self.n >= 0 and self.indptr.shape[0]:
            if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
                raise GraphFormatError(
                    "indptr does not span the indices array"
                )
            if np.any(np.diff(self.indptr) < 0):
                raise GraphFormatError("indptr must be non-decreasing")

    def __repr__(self):
        return (
            f"MmapCSRGraph(n={self.n}, m={self.m}, "
            f"dangling={self.dangling!r}, path={str(self.path)!r})"
        )


def mmap_path_of(graph):
    """The backing file of an mmap-backed graph, else ``None``.

    The consumers (shared-memory export, the serving engines) branch on
    this: a non-``None`` path means the CSR arrays can be re-opened by
    path in another process instead of being copied.
    """
    path = getattr(graph, "path", None)
    if path is None:
        return None
    if not is_file_backed(graph.indices):
        return None
    return Path(path)
