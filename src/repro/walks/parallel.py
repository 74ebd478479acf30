"""Process-parallel random-walk execution over a shared-memory CSR graph.

The remedy phase dominates ResAcc query time (Table VII), and the
vectorized engine in :mod:`repro.walks.engine` advances every walk on a
single core.  This module shards one walk batch -- the origin runs
produced by :func:`repro.walks.residue_weighted_walks` -- across a
``ProcessPoolExecutor`` so the kernel scales with hardware instead of
being pinned to one core by the interpreter.

Two mechanisms make the fan-out cheap and reproducible:

* **Zero-copy graph sharing.**  :class:`SharedCSRGraph` exports the CSR
  arrays (``indptr`` / ``indices`` / ``out_degrees``) into POSIX shared
  memory once; workers attach by *name* and wrap the same pages in numpy
  views.  The graph is never pickled -- only the tiny handle dict and
  each shard's origin runs ``(origin, count, per-walk weight)`` cross
  the process boundary; the worker expands them with ``np.repeat``.

* **Per-shard RNG streams.**  Shard ``i`` of ``k`` draws from
  ``numpy.random.SeedSequence(seed).spawn(k)[i]`` -- independent,
  non-overlapping streams by construction.  Shard boundaries are a pure
  function of ``(total walks, k)`` and shard masses are reduced in shard
  order, so the result is **byte-identical across runs for a fixed**
  ``(seed, k)`` and statistically equivalent (same estimator, same walk
  budget) across shard counts.  See ``docs/parallel_walks.md`` for the
  full determinism contract.

The executor holds a persistent worker pool (``spawn`` start method, so
it is safe inside threaded services like
:class:`repro.serving.ConcurrentQueryEngine`) and is bound to one graph
snapshot; services re-create it after a mutation.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.errors import ParameterError

#: Arrays exported for each graph, in a fixed order.
_SHARED_ARRAYS = ("indptr", "indices", "out_degrees")


class _GraphView:
    """Worker-side stand-in for :class:`repro.graph.CSRGraph`.

    Exposes exactly the surface the walk kernels touch (``n``,
    ``indptr``, ``indices``, ``out_degrees``, ``dangling``) backed by
    shared-memory numpy views -- no copy, no validation.
    """

    __slots__ = ("n", "indptr", "indices", "out_degrees", "dangling")

    def __init__(self, n, indptr, indices, out_degrees, dangling):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.out_degrees = out_degrees
        self.dangling = dangling


class SharedCSRGraph:
    """A graph's CSR arrays exported into named shared-memory blocks.

    The creating process owns the blocks: :meth:`close` (or the context
    manager) unlinks them.  :attr:`handle` is the small picklable dict
    workers use to attach.
    """

    def __init__(self, graph):
        from repro.graph.mmap import mmap_path_of

        self._blocks = []
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
            self._closed = False
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
        self._closed = False

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
# referenced until the pool shuts the process down.  Two consumers share
# the same blocks: the walk kernels want the minimal ``_GraphView``, the
# multi-process query engine (:mod:`repro.serving.multiproc`) wants a
# full :class:`repro.graph.CSRGraph` so every solver phase (pushes, hop
# structure, walks) runs against the shared pages without a copy.
# ----------------------------------------------------------------------
_ATTACHED = {}        # handle key -> (views dict, shm blocks)
_VIEW_CACHE = {}      # handle key -> _GraphView (walk kernels)
_GRAPH_CACHE = {}     # handle key -> CSRGraph (full solver surface)


def _handle_key(handle):
    if "mmap_path" in handle:
        return ("mmap", handle["mmap_path"])
    return tuple(spec[0] for spec in handle["arrays"].values())


def _attach_views(handle):
    key = _handle_key(handle)
    cached = _ATTACHED.get(key)
    if cached is not None:
        return cached[0]
    if "mmap_path" in handle:
        from repro.graph.io import load_mmap

        graph = load_mmap(handle["mmap_path"])
        views = {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "out_degrees": np.diff(graph.indptr),
        }
        _ATTACHED[key] = (views, [])
        return views
    blocks, views = [], {}
    for name in _SHARED_ARRAYS:
        shm_name, shape, dtype = handle["arrays"][name]
        shm = shared_memory.SharedMemory(name=shm_name)
        blocks.append(shm)
        views[name] = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                 buffer=shm.buf)
    _ATTACHED[key] = (views, blocks)
    return views


def _attach(handle):
    key = _handle_key(handle)
    view = _VIEW_CACHE.get(key)
    if view is None:
        views = _attach_views(handle)
        view = _GraphView(handle["n"], views["indptr"], views["indices"],
                          views["out_degrees"], handle["dangling"])
        _VIEW_CACHE[key] = view
    return view


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
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        from repro.graph.csr import CSRGraph

        views = _attach_views(handle)
        graph = CSRGraph(handle["n"], views["indptr"], views["indices"],
                         dangling=handle["dangling"], validate=False)
        graph._out_degrees = views["out_degrees"]
        _GRAPH_CACHE[key] = graph
    return graph


def _detach_all():
    for _, blocks in _ATTACHED.values():
        for shm in blocks:
            try:
                shm.close()
            except Exception:
                pass
    _ATTACHED.clear()
    _VIEW_CACHE.clear()
    _GRAPH_CACHE.clear()


atexit.register(_detach_all)


def _run_shard(handle, origins, counts, weights, alpha, source, seed_seq,
               estimator, max_steps, chunk_size):
    """One shard's walks; runs inside a pool worker.

    The shard arrives as origin runs -- ``counts[i]`` walks from
    ``origins[i]``, each weighing ``weights[i]`` -- and is expanded here,
    so the task pickles a few bytes per run instead of 16 per walk.
    Returns ``(mass, num_walks)``.  ``seed_seq`` is the shard's spawned
    :class:`numpy.random.SeedSequence` (picklable), turned into a fresh
    generator here so streams never depend on worker scheduling.
    """
    from repro.walks.engine import walk_terminal_mass, walk_visit_mass

    graph = _attach(handle)
    rng = np.random.default_rng(seed_seq)
    starts = np.repeat(origins, counts)
    if weights is not None:
        weights = np.repeat(weights, counts)
    kwargs = {}
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    if estimator == "visits":
        mass = walk_visit_mass(graph, starts, alpha, rng, weights=weights,
                               **kwargs)
    else:
        mass = walk_terminal_mass(graph, starts, alpha, rng,
                                  weights=weights, source=source,
                                  chunk_size=chunk_size, **kwargs)
    return mass, int(starts.shape[0])


def _shard_runs(begins, ends, lo, hi):
    """The runs holding walks ``[lo, hi)`` of the expanded batch: their
    slice, and how many of each run's walks fall inside the range."""
    runs = slice(int(np.searchsorted(ends, lo, side="right")),
                 int(np.searchsorted(begins, hi, side="left")))
    return runs, np.minimum(ends[runs], hi) - np.maximum(begins[runs], lo)


class ParallelWalkExecutor:
    """A persistent process pool bound to one shared graph snapshot.

    Parameters
    ----------
    graph:
        The :class:`repro.graph.CSRGraph` to share (exported once, at
        construction).
    num_workers:
        Pool width; also the default shard count, which is part of the
        determinism key ``(seed, n_shards)``.
    mp_context:
        A multiprocessing context or start-method name.  Defaults to
        ``"spawn"``: fork-safety inside threaded services outweighs the
        one-time worker import cost, and the shared-memory graph makes
        spawn as cheap as fork per task.

    The executor is reusable across any number of :meth:`run` calls
    (services keep one alive per graph epoch) and must be closed --
    use it as a context manager or call :meth:`close`.
    """

    def __init__(self, graph, num_workers, *, mp_context="spawn"):
        if num_workers < 1:
            raise ParameterError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self.num_workers = int(num_workers)
        self._shared = SharedCSRGraph(graph)
        if isinstance(mp_context, str):
            mp_context = get_context(mp_context)
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers, mp_context=mp_context
        )
        self._closed = False

    # ------------------------------------------------------------------
    def run(self, starts, alpha, *, counts=None, weights=None, source=None,
            seed=0, estimator="terminal", max_steps=None, chunk_size=None,
            n_shards=None):
        """Simulate one walk batch across the pool; returns
        ``(mass, shard_sizes)``.

        The batch is given as origin runs: ``counts[i]`` walks start at
        ``starts[i]``, each depositing ``weights[i]`` (default 1).
        ``counts=None`` means one walk per entry of ``starts``.  Shards
        cut the expanded walk sequence at the same points whichever way
        it is given, and ship only the runs they cover.

        ``mass`` is the summed terminal (or visit) mass over all shards,
        reduced in shard order; ``shard_sizes`` lists the number of
        walks each shard ran (the per-shard counters services flush
        into :class:`repro.obs.QueryTrace`).

        ``n_shards`` defaults to :attr:`num_workers`.  For a fixed
        ``(seed, n_shards)`` the result is byte-identical across runs
        and across pool widths -- shard streams come from
        ``SeedSequence(seed).spawn(n_shards)``, never from worker
        identity or scheduling.
        """
        if self._closed:
            raise ParameterError("executor is closed")
        starts = np.asarray(starts, dtype=np.int64)
        if starts.ndim != 1:
            raise ParameterError("starts must be a 1-D array of node ids")
        if counts is None:
            counts = np.ones(starts.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != starts.shape or (counts < 0).any():
                raise ParameterError(
                    "counts must be non-negative and match starts in shape"
                )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != starts.shape:
                raise ParameterError("weights must match starts in shape")
        n_shards = self.num_workers if n_shards is None else int(n_shards)
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
        n = self.handle["n"]
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            return np.zeros(n, dtype=np.float64), [0] * n_shards
        begins = ends - counts
        bounds = np.linspace(0, total, n_shards + 1).astype(np.int64)
        streams = np.random.SeedSequence(int(seed)).spawn(n_shards)
        futures = []
        for i in range(n_shards):
            runs, shard_counts = _shard_runs(begins, ends, bounds[i],
                                             bounds[i + 1])
            futures.append(self._pool.submit(
                _run_shard, self.handle, starts[runs], shard_counts,
                None if weights is None else weights[runs],
                float(alpha), source, streams[i], estimator, max_steps,
                chunk_size,
            ))
        mass = np.zeros(n, dtype=np.float64)
        shard_sizes = []
        # Reduce in shard order: float addition is not associative, and
        # a fixed order is what makes repeated runs byte-identical.
        for future in futures:
            shard_mass, shard_walks = future.result()
            mass += shard_mass
            shard_sizes.append(shard_walks)
        return mass, shard_sizes

    # ------------------------------------------------------------------
    @property
    def handle(self):
        """The picklable shared-graph descriptor (name/shape/dtype)."""
        return self._shared.handle

    def close(self):
        """Shut the pool down and unlink the shared blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._shared.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (f"ParallelWalkExecutor(workers={self.num_workers}, "
                f"n={self.handle['n']}, {state})")
