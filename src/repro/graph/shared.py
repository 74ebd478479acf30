"""A CSR graph shared across processes without copying it.

:class:`repro.serving.MultiProcessQueryEngine` solves in worker
processes that must all read the *same* graph snapshot.  Pickling the
graph into every task would copy ``indptr`` / ``indices`` per solve, so
the dispatcher exports the snapshot once and workers attach to it:

* an in-memory graph's CSR arrays (``indptr`` / ``indices`` /
  ``out_degrees``) are copied once into named POSIX shared-memory
  blocks, and workers wrap the same pages in numpy views;
* an mmap-backed graph (:mod:`repro.graph.mmap`) is already file-backed,
  so its handle carries the ``.rcsr`` path and every worker maps the
  same file pages.

Only the small picklable :attr:`SharedCSRGraph.handle` crosses the
process boundary; :func:`attach_csr_graph` turns it back into a full
:class:`repro.graph.CSRGraph` inside the worker.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import load_mmap
from repro.graph.mmap import mmap_path_of

#: Arrays exported for each graph, in a fixed order.
_SHARED_ARRAYS = ("indptr", "indices", "out_degrees")


class SharedCSRGraph:
    """A graph's CSR arrays exported into named shared-memory blocks.

    The creating process owns the blocks: :meth:`close` (or the context
    manager) unlinks them.  :attr:`handle` is the small picklable dict
    workers use to attach.
    """

    def __init__(self, graph):
        self._blocks = []
        self._closed = False
        mmap_path = mmap_path_of(graph)
        if mmap_path is not None:
            # The graph is already file-backed: every process can map
            # the same pages straight off the .rcsr file, so the handle
            # carries the *path* instead of copying tens of gigabytes
            # of adjacency into POSIX shared memory.
            self.handle = {
                "n": int(graph.n),
                "dangling": graph.dangling,
                "mmap_path": str(mmap_path),
            }
            return
        arrays = {}
        for name in _SHARED_ARRAYS:
            arr = np.ascontiguousarray(getattr(graph, name))
            shm = shared_memory.SharedMemory(
                create=True, size=max(arr.nbytes, 1)
            )
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            if arr.size:
                view[:] = arr
            self._blocks.append(shm)
            arrays[name] = (shm.name, arr.shape, arr.dtype.str)
        self.handle = {
            "n": int(graph.n),
            "dangling": graph.dangling,
            "arrays": arrays,
        }

    def close(self):
        """Release and unlink every shared block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._blocks:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # already unlinked elsewhere
                pass
        self._blocks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __del__(self):  # best-effort safety net; close() is the API
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker side.  One attachment per (process, graph); the blocks stay
# referenced until the process exits.
# ----------------------------------------------------------------------
_ATTACHED = {}        # handle key -> (CSRGraph, shm blocks it maps)


def _handle_key(handle):
    if "mmap_path" in handle:
        return ("mmap", handle["mmap_path"])
    return tuple(spec[0] for spec in handle["arrays"].values())


def _attach_views(handle):
    """The handle's CSR arrays as numpy views, and the blocks they map."""
    if "mmap_path" in handle:
        graph = load_mmap(handle["mmap_path"])
        views = {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "out_degrees": np.diff(graph.indptr),
        }
        return views, []
    blocks, views = [], {}
    for name in _SHARED_ARRAYS:
        shm_name, shape, dtype = handle["arrays"][name]
        shm = shared_memory.SharedMemory(name=shm_name)
        blocks.append(shm)
        views[name] = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                 buffer=shm.buf)
    return views, blocks


def attach_csr_graph(handle):
    """A full worker-side :class:`repro.graph.CSRGraph` over the shared
    pages (zero-copy, cached per process).

    The CSR arrays come straight out of shared memory: ``ascontiguousarray``
    on an already-contiguous ``int64`` view returns the view itself, so
    no bytes are copied and the worker's graph is the *same* snapshot the
    dispatcher exported.  Validation is skipped -- the creating process
    validated the graph before exporting it.  Derived per-snapshot state
    (out-degree cache, reverse adjacency, push caches) materializes
    lazily inside the worker and is cached here together with the graph,
    so repeated solves against one snapshot pay for it once.
    """
    key = _handle_key(handle)
    cached = _ATTACHED.get(key)
    if cached is None:
        views, blocks = _attach_views(handle)
        graph = CSRGraph(handle["n"], views["indptr"], views["indices"],
                         dangling=handle["dangling"], validate=False)
        graph._out_degrees = views["out_degrees"]
        cached = _ATTACHED[key] = (graph, blocks)
    return cached[0]


def _detach_all():
    for _, blocks in _ATTACHED.values():
        for shm in blocks:
            try:
                shm.close()
            except Exception:
                pass
    _ATTACHED.clear()


atexit.register(_detach_all)
