"""Output-sensitive forward-push kernels (the PowerPush-style core).

The seed frontier scheduler paid two dense costs on every round: an
``n``-length eligibility scan and a fresh ``bincount(minlength=n)``
scatter buffer.  Both are pathological for the local, h-hop-restricted
workload ResAcc runs -- a handful of frontier nodes inside ``V_h(s)``
touching a few hundred edges per round.  This module replaces them with
an output-sensitive loop that mirrors the sparse/dense switching of
PowerPush ("Unifying the Global and Local Approaches"):

* **Candidate tracking.**  A node can become eligible only by receiving
  residue, so the kernel keeps the *dirty set* of nodes that received
  mass since their last eligibility check.  A round checks exactly that
  set; a node dropped as ineligible re-enters only when a later push
  scatters onto it.  An empty candidate set therefore proves no eligible
  node remains -- the same fixpoint condition as a full scan.
* **Density switching.**  Each round classifies itself by its frontier
  edge count ``E_f = sum(out_degree(frontier))``:

  - ``E_f < n / SPARSE_NODE_DIV`` -- *sparse* round: gather the
    frontier's CSR slices, scatter with ``np.add.at``, and sort-dedupe
    the touched targets into the next candidate set.
  - ``E_f >= m / MATVEC_EDGE_DIV`` -- *matvec* round: the frontier
    covers most of the graph, so one cached transpose SpMV
    (``residue += A^T @ share``) beats per-edge gathers; the next round
    rescans densely.
  - otherwise -- *scan* round: gather/scatter like the sparse round but
    skip the dedupe (a full eligibility scan is cheaper than sorting
    that many targets).

* **Frontier-stability reuse.**  h-HopFWD frontiers repeat identically
  for many consecutive rounds (every node of ``V_h`` stays above the
  tiny ``r_max_hop`` threshold while its residue decays geometrically).
  When a round's frontier equals the previous one, the gathered CSR
  positions, targets and deduped target list are reused verbatim.
* **Reusable scratch.**  The matvec share vector and the queue
  scheduler's membership marker are leased from a per-snapshot pool
  instead of being allocated per call.

Per-snapshot state (thresholds, the transpose operator, scratch
buffers) lives in a :class:`SnapshotPushCache` hung off the graph
object and explicitly released by the serving engines inside their
write gates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError

try:
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _csr_matvec = _scipy_sparsetools.csr_matvec
    _csr_matvecs = _scipy_sparsetools.csr_matvecs
except Exception:  # pragma: no cover - scipy builds without the private API
    _csr_matvec = None
    _csr_matvecs = None

#: A round is *sparse* (candidate-tracked, sort-deduped) when its
#: frontier edge count is below ``n / SPARSE_NODE_DIV``.
SPARSE_NODE_DIV = 16

#: A round uses the cached transpose SpMV when its frontier edge count
#: reaches ``m / MATVEC_EDGE_DIV``.
MATVEC_EDGE_DIV = 8

#: Bound on distinct ``r_max`` thresholds cached per snapshot (OAOP
#: replays call with a fresh ``r_max * rho`` every round).
_THRESHOLD_CACHE_SIZE = 8

#: Bound on pooled 2-D scratch blocks per snapshot (blocked sweeps
#: compact into progressively narrower blocks; keep only a few).
_BLOCK_POOL_SIZE = 6

#: Default sweep budget of :func:`power_block_loop`.
MAX_POWER_SWEEPS = 100_000

_attach_lock = threading.Lock()


@dataclass
class PushStats:
    """Work counters for a push run.

    ``max_frontier`` is the largest number of nodes pushed in one round
    (only the frontier scheduler has rounds wider than one node).
    ``sparse_rounds`` / ``dense_rounds`` count how often the frontier
    kernel ran a candidate-tracked round versus a densely-scanned or
    matvec round (single-node schedulers count every push as sparse).
    """

    pushes: int = 0
    rounds: int = 0
    max_frontier: int = 0
    sparse_rounds: int = 0
    dense_rounds: int = 0

    def merge(self, other):
        """Accumulate another run's counters into this one."""
        self.pushes += other.pushes
        self.rounds += other.rounds
        self.max_frontier = max(self.max_frontier, other.max_frontier)
        self.sparse_rounds += other.sparse_rounds
        self.dense_rounds += other.dense_rounds
        return self


class SnapshotPushCache:
    """Push-kernel state shared by every query on one graph snapshot.

    Holds the per-``r_max`` threshold vectors, the transpose operator
    used by matvec rounds, and pools of reusable scratch buffers.  All
    entries are immutable or leased, so concurrent queries on the same
    snapshot (the ``ConcurrentQueryEngine`` read path) can share one
    cache: thresholds and the transpose are created under a lock and
    marked read-only; scratch buffers are checked out exclusively via
    :meth:`lease_share` / :meth:`lease_marker`.
    """

    __slots__ = ("_graph", "_lock", "_thresholds", "_transpose",
                 "_share_pool", "_marker_pool", "_block_pool",
                 "_power_ops", "_score_bounds")

    def __init__(self, graph):
        self._graph = graph
        self._lock = threading.Lock()
        self._thresholds = OrderedDict()
        self._transpose = None
        self._share_pool = []
        self._marker_pool = []
        self._block_pool = []
        self._power_ops = OrderedDict()
        self._score_bounds = OrderedDict()

    def thresholds(self, r_max):
        """Read-only per-node threshold vector for one ``r_max``.

        Cached per distinct ``r_max`` with a small LRU bound, replacing
        the per-call recompute the seed kernels did (h-HopFWD and OMFWD
        each recomputed the same vector on every query).
        """
        key = float(r_max)
        with self._lock:
            vec = self._thresholds.get(key)
            if vec is not None:
                self._thresholds.move_to_end(key)
                return vec
        degrees = self._graph.out_degrees
        vec = key * np.where(degrees > 0, degrees, 1).astype(np.float64)
        vec.flags.writeable = False
        with self._lock:
            self._thresholds[key] = vec
            self._thresholds.move_to_end(key)
            while len(self._thresholds) > _THRESHOLD_CACHE_SIZE:
                self._thresholds.popitem(last=False)
        return vec

    def transpose_operator(self):
        """CSR arrays ``(indptr, indices, data)`` of the transposed
        adjacency, for ``residue += A^T @ share`` matvec rounds."""
        with self._lock:
            if self._transpose is None:
                graph = self._graph
                rev_indptr, rev_indices = graph.reverse_adjacency()
                indptr = np.ascontiguousarray(rev_indptr)
                indices = np.ascontiguousarray(rev_indices)
                data = np.ones(indices.shape[0], dtype=np.float64)
                for arr in (indptr, indices, data):
                    arr.flags.writeable = False
                self._transpose = (indptr, indices, data)
            return self._transpose

    def power_operator(self, alpha):
        """CSR arrays of the *scaled* transpose ``(1-alpha) * A^T D^-1``.

        One application is a full power sweep (``residue_next = P^T @
        residue``): folding the ``(1-alpha)/deg`` edge weights into the
        matrix data removes the per-sweep share-scaling pass the dense
        frontier branch pays.  Cached per distinct ``alpha`` (dangling
        columns have no entries, so no masking is needed).
        """
        key = float(alpha)
        with self._lock:
            ops = self._power_ops.get(key)
            if ops is not None:
                self._power_ops.move_to_end(key)
                return ops
        at_indptr, at_indices, _ = self.transpose_operator()
        degrees = self._graph.out_degrees
        safe = np.where(degrees > 0, degrees, 1).astype(np.float64)
        inv_deg = (1.0 - key) / safe
        data = inv_deg[at_indices]
        data.flags.writeable = False
        ops = (at_indptr, at_indices, data)
        with self._lock:
            self._power_ops[key] = ops
            self._power_ops.move_to_end(key)
            while len(self._power_ops) > _THRESHOLD_CACHE_SIZE:
                self._power_ops.popitem(last=False)
        return ops

    def score_bound(self, alpha):
        """Read-only per-node cap ``b`` with ``pi(v, t) <= b[t]`` for
        every ``v != t`` (the top-k certificate's outsider bound).

        From ``pi(v, t) = (1-alpha) sum_{u in N_in(t)} pi(v, u) c(u, t)
        / d(u)`` and ``sum_u pi(v, u) <= 1``: ``b[t]`` is the largest
        entry of row ``t`` of :meth:`power_operator` once duplicate
        ``(u, t)`` entries are summed into the multiplicity ``c(u, t)``.
        An absorbing dangling ``t`` keeps every unit that reaches it,
        not ``alpha`` of it, so its cap is ``min(1, b[t] / alpha)``.
        Under ``"restart"`` the source's own cap is 1; that per-query
        entry is the caller's to apply.  Built in O(m) on first use,
        cached per ``alpha`` (see ``docs/topk.md``).
        """
        key = float(alpha)
        with self._lock:
            vec = self._score_bounds.get(key)
            if vec is not None:
                self._score_bounds.move_to_end(key)
                return vec
        indptr, indices, data = self.power_operator(key)
        graph = self._graph
        vec = np.zeros(graph.n, dtype=np.float64)
        if data.size:
            # Rows list their sources in ascending order, so duplicate
            # (u, t) entries sit next to each other within a row.
            first = np.ones(data.size, dtype=bool)
            first[1:] = indices[1:] != indices[:-1]
            rows = np.flatnonzero(indptr[1:] > indptr[:-1])
            first[indptr[rows]] = True
            starts = np.flatnonzero(first)
            sums = np.add.reduceat(data, starts)
            row_groups = np.searchsorted(starts, indptr[rows])
            vec[rows] = np.maximum.reduceat(sums, row_groups)
        if graph.dangling == "absorb":
            dangling = graph.out_degrees == 0
            vec[dangling] = np.minimum(1.0, vec[dangling] / key)
        vec.flags.writeable = False
        with self._lock:
            self._score_bounds[key] = vec
            self._score_bounds.move_to_end(key)
            while len(self._score_bounds) > _THRESHOLD_CACHE_SIZE:
                self._score_bounds.popitem(last=False)
        return vec

    def lease_share(self):
        """Borrow an all-zeros float64 scratch vector of length ``n``.

        The lessee must return it zeroed via :meth:`release_share`
        (cheapest done by clearing only the entries it touched).
        """
        with self._lock:
            if self._share_pool:
                return self._share_pool.pop()
        return np.zeros(self._graph.n, dtype=np.float64)

    def release_share(self, buf):
        """Return a share buffer to the pool (must already be zeroed)."""
        with self._lock:
            self._share_pool.append(buf)

    def lease_marker(self):
        """Borrow an all-false membership marker of length ``n``."""
        with self._lock:
            if self._marker_pool:
                return self._marker_pool.pop()
        return np.zeros(self._graph.n, dtype=bool)

    def release_marker(self, buf):
        """Return a marker buffer to the pool (must already be cleared)."""
        with self._lock:
            self._marker_pool.append(buf)

    def lease_block(self, width):
        """Borrow a C-contiguous ``(n, width)`` float64 scratch block.

        Blocked multi-source sweeps (:func:`power_block_loop`) lease
        their residual / share blocks here so batched ``query_batch``
        misses reuse one allocation per snapshot instead of allocating
        per batch.  Contents are *not* zeroed -- every caller overwrites
        the full block before reading it.
        """
        width = int(width)
        with self._lock:
            for i, buf in enumerate(self._block_pool):
                if buf.shape[1] == width:
                    del self._block_pool[i]
                    return buf
        return np.empty((self._graph.n, width), dtype=np.float64)

    def release_block(self, buf):
        """Return a 2-D scratch block to the pool."""
        with self._lock:
            if len(self._block_pool) < _BLOCK_POOL_SIZE:
                self._block_pool.append(buf)

    def release(self):
        """Drop every cached array (write-gate retirement)."""
        with self._lock:
            self._thresholds.clear()
            self._transpose = None
            self._share_pool.clear()
            self._marker_pool.clear()
            self._block_pool.clear()
            self._power_ops.clear()
            self._score_bounds.clear()


def get_push_cache(graph):
    """The :class:`SnapshotPushCache` of ``graph``, created on first use."""
    cache = getattr(graph, "_push_cache", None)
    if cache is None:
        with _attach_lock:
            cache = getattr(graph, "_push_cache", None)
            if cache is None:
                cache = SnapshotPushCache(graph)
                graph._push_cache = cache
    return cache


def release_push_cache(graph):
    """Release a snapshot's push cache if one was ever attached.

    Serving engines call this inside their write gates when a mutation
    retires the snapshot.
    """
    cache = getattr(graph, "_push_cache", None) if graph is not None else None
    if cache is not None:
        cache.release()


def _sort_dedupe(targets):
    """Unique values of ``targets`` (sorted).

    Hand-rolled because ``np.unique`` costs 5x as much on the few-hundred
    element arrays sparse rounds produce (wrapper + return_counts
    machinery dominate at that size).
    """
    flat = np.sort(targets)
    keep = np.empty(flat.size, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _frontier_positions(indptr, nodes, counts, total):
    """Flat CSR positions of every out-edge of ``nodes``.

    Equivalent to ``expand_ranges(indptr[nodes], counts)`` but inlined
    to a single cumsum over a step vector -- the generic helper's extra
    passes cost ~40% of a whole sparse round at typical frontier sizes.
    """
    starts = indptr[nodes]
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    if counts.size > 1:
        bounds = np.cumsum(counts[:-1])
        steps[bounds] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(steps)


def _accumulate_matvec(operator, x, out):
    """``out += A @ x`` for CSR arrays ``operator = (indptr, indices, data)``.

    ``x`` is a vector or a C-order ``(n, B)`` block.  scipy's private CSR
    kernels accumulate straight into ``out`` row by row; builds without
    ``_sparsetools`` fall back to the public ``csr_matrix`` product.

    A width-1 block goes to the 1-D kernel through ``(n,)`` views:
    ``csr_matvecs`` makes one axpy call per nonzero, about twice the
    cost of ``csr_matvec`` on the same arrays.  Both add each row's
    products onto ``out[i]`` one at a time in CSR order, so the bits
    are the same as for that column inside a wider block.
    """
    indptr, indices, data = operator
    n = indptr.shape[0] - 1
    if x.ndim == 2 and x.shape[1] == 1:
        x, out = x.reshape(-1), out.reshape(-1)
    if x.ndim == 1:
        if _csr_matvec is not None:
            _csr_matvec(n, n, indptr, indices, data, x, out)
            return
    elif _csr_matvecs is not None:
        _csr_matvecs(n, n, x.shape[1], indptr, indices, data,
                     x.reshape(-1), out.reshape(-1))
        return
    from scipy.sparse import csr_matrix

    out += csr_matrix((data, indices, indptr), shape=(n, n)) @ x


def frontier_loop(graph, reserve, residue, alpha, r_max, *,
                  can_push=None, source=None, max_pushes=None,
                  stats=None, cache=None):
    """Output-sensitive frontier (Jacobi) push loop.

    Semantics match the seed frontier scheduler exactly: every round
    pushes all currently-eligible nodes simultaneously, so the final
    ``(reserve, residue)`` is the same fixpoint up to floating-point
    summation order.  ``stats`` (a :class:`PushStats`)
    additionally receives ``sparse_rounds`` / ``dense_rounds`` counts.

    A :class:`~repro.errors.ConvergenceError` from ``max_pushes`` is
    raised at a round boundary: all previous rounds are fully applied,
    the current round not at all, so the state still satisfies the push
    invariant and ``sum(reserve) + sum(residue) == 1``.
    """
    if stats is None:
        stats = PushStats()
    if cache is None:
        cache = get_push_cache(graph)
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    n = graph.n
    thresholds = cache.thresholds(r_max)
    spread_scale = 1.0 - alpha
    restart = graph.dangling == "restart"
    sparse_cut = max(n // SPARSE_NODE_DIV, 64)
    matvec_cut = max(int(indptr[-1]) // MATVEC_EDGE_DIV, sparse_cut)
    at_arrays = None
    share = None
    share_dense = False
    inv_deg = dang_f = degrees_f = None

    # Dirty set: nodes that may have become eligible since last checked.
    # ``None`` means "unknown" and forces a full scan for the round.
    cand = np.flatnonzero(residue)
    if can_push is not None:
        cand = cand[can_push[cand]]

    # Frontier-stability cache (previous round's gathered slices).
    prev_active = None
    c_counts = c_positions = c_targets = c_uniq = c_wbase = None

    try:
        while True:
            if cand is None:
                eligible = residue >= thresholds
                if can_push is not None:
                    eligible &= can_push
                if degrees_f is None:
                    degrees_f = degrees.astype(np.float64)
                total = int(degrees_f @ eligible)
                if total >= matvec_cut:
                    # Near-full frontier out of a rescan: stay fully
                    # dense.  Mask arithmetic over all n avoids every
                    # index gather (flatnonzero, degrees[active],
                    # residue[active], ...), which at this frontier
                    # size costs more than the SpMV itself.
                    nnz = int(np.count_nonzero(eligible))
                    if max_pushes is not None \
                            and stats.pushes + nnz > max_pushes:
                        raise ConvergenceError(
                            "forward push exceeded budget of "
                            f"{max_pushes} pushes"
                        )
                    stats.rounds += 1
                    stats.pushes += nnz
                    if nnz > stats.max_frontier:
                        stats.max_frontier = nnz
                    stats.dense_rounds += 1
                    if inv_deg is None:
                        safe = np.where(degrees > 0, degrees,
                                        1).astype(np.float64)
                        inv_deg = spread_scale / safe
                        if (degrees == 0).any():
                            dang_f = (degrees == 0).astype(np.float64)
                            inv_deg[degrees == 0] = 0.0
                    if at_arrays is None:
                        at_arrays = cache.transpose_operator()
                    if share is None:
                        share = cache.lease_share()
                    # share <- pushed residues; ``residue -= share``
                    # then zeroes the eligible entries exactly (x - x)
                    # and leaves the rest bit-identical (x - 0).
                    np.multiply(residue, eligible, out=share)
                    residue -= share
                    reserve += alpha * share
                    if dang_f is not None:
                        dang_pushed = share * dang_f
                        dsum = float(dang_pushed.sum())
                        if dsum != 0.0:
                            if restart:
                                residue[source] += spread_scale * dsum
                            else:
                                reserve += spread_scale * dang_pushed
                    np.multiply(share, inv_deg, out=share)
                    share_dense = True
                    _accumulate_matvec(at_arrays, share, residue)
                    prev_active = None
                    continue
                active = np.flatnonzero(eligible)
            elif cand.size:
                active = cand[residue[cand] >= thresholds[cand]]
            else:
                active = cand
            if active.size == 0:
                return stats
            if max_pushes is not None \
                    and stats.pushes + active.size > max_pushes:
                raise ConvergenceError(
                    f"forward push exceeded budget of {max_pushes} pushes"
                )
            stats.rounds += 1
            stats.pushes += int(active.size)
            if active.size > stats.max_frontier:
                stats.max_frontier = int(active.size)

            stable = (prev_active is not None
                      and active.size == prev_active.size
                      and np.array_equal(active, prev_active))
            counts = c_counts if stable else degrees[active]
            pushed = residue[active]
            residue[active] = 0.0

            dangling = counts == 0
            dang_nodes = None
            if dangling.any():
                spread_nodes = active[~dangling]
                spread_mass = pushed[~dangling]
                dang_nodes = active[dangling]
                dang_mass = pushed[dangling]
                reserve[spread_nodes] += alpha * spread_mass
                if restart:
                    reserve[dang_nodes] += alpha * dang_mass
                    residue[source] += spread_scale * float(dang_mass.sum())
                else:
                    reserve[dang_nodes] += dang_mass
                sp_counts = counts[~dangling]
                stable = False  # cached slices describe spread nodes only
            else:
                spread_nodes = active
                spread_mass = pushed
                reserve[spread_nodes] += alpha * spread_mass
                sp_counts = counts

            total = int(sp_counts.sum()) if spread_nodes.size else 0
            if total == 0:
                # Purely-dangling round: only the source (restart) can
                # have received new residue.
                stats.sparse_rounds += 1
                if restart and dang_nodes is not None and (
                        can_push is None or can_push[source]):
                    cand = np.asarray([source], dtype=np.int64)
                else:
                    cand = np.empty(0, dtype=np.int64)
                prev_active = None
                continue

            if total >= matvec_cut:
                # Near-full frontier: one transpose SpMV beats per-edge
                # gathers; accumulate straight into ``residue``.
                stats.dense_rounds += 1
                if at_arrays is None:
                    at_arrays = cache.transpose_operator()
                if share is None:
                    share = cache.lease_share()
                elif share_dense:
                    share.fill(0.0)  # dense rounds overwrite all of it
                    share_dense = False
                share[spread_nodes] = \
                    spread_scale * spread_mass / sp_counts
                _accumulate_matvec(at_arrays, share, residue)
                share[spread_nodes] = 0.0
                cand = None
                prev_active = None
                continue

            if stable:
                positions, targets = c_positions, c_targets
                uniq = c_uniq
                weights = np.repeat(spread_mass * c_wbase, sp_counts)
            else:
                positions = _frontier_positions(indptr, spread_nodes,
                                                sp_counts, total)
                targets = indices[positions]
                c_wbase = spread_scale / sp_counts
                weights = np.repeat(spread_mass * c_wbase, sp_counts)
                uniq = None
                prev_active = active
                c_counts, c_positions, c_targets = \
                    counts, positions, targets
                c_uniq = None
            # np.add.at honours duplicate targets (parallel edges), unlike
            # fancy-index ``+=`` which silently drops them.
            np.add.at(residue, targets, weights)

            if total >= sparse_cut:
                # Mid-density round: a dense eligibility scan is cheaper
                # than sort-deduping this many targets.
                stats.dense_rounds += 1
                cand = None
                continue
            stats.sparse_rounds += 1
            if uniq is None:
                uniq = _sort_dedupe(targets)
                if can_push is not None:
                    uniq = uniq[can_push[uniq]]
                c_uniq = uniq
            cand = uniq
            if restart and dang_nodes is not None and (
                    can_push is None or can_push[source]):
                # Re-check the source next round -- unless it is already
                # a scatter target (uniq is sorted; duplicates in the
                # candidate list would double-push).
                pos = int(np.searchsorted(uniq, source))
                if pos >= uniq.size or uniq[pos] != source:
                    cand = np.append(cand, source)
    finally:
        if share is not None:
            if share_dense:
                share.fill(0.0)
            cache.release_share(share)


def dense_reference_loop(graph, reserve, residue, alpha, r_max, *,
                         can_push=None, source=None, max_pushes=None,
                         stats=None):
    """The seed frontier scheduler, kept verbatim as a benchmark baseline.

    Every round scans the full residue array for eligibility and
    scatters through ``bincount(minlength=n)``; ``repro-bench push``
    measures the output-sensitive kernels against this loop.
    """
    from repro.graph.hop import expand_ranges

    if stats is None:
        stats = PushStats()
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.out_degrees
    thresholds = r_max * np.where(degrees > 0, degrees, 1).astype(np.float64)
    restart = graph.dangling == "restart"
    while True:
        eligible = residue >= thresholds
        if can_push is not None:
            eligible &= can_push
        active = np.flatnonzero(eligible)
        if active.size == 0:
            return stats
        stats.rounds += 1
        stats.pushes += int(active.size)
        if active.size > stats.max_frontier:
            stats.max_frontier = int(active.size)
        if max_pushes is not None and stats.pushes > max_pushes:
            raise ConvergenceError(
                f"forward push exceeded budget of {max_pushes} pushes"
            )
        pushed = residue[active].copy()
        residue[active] = 0.0
        deg_active = degrees[active]
        dangling = deg_active == 0
        spread_nodes = active[~dangling]
        spread_mass = pushed[~dangling]
        reserve[spread_nodes] += alpha * spread_mass
        if dangling.any():
            dang_nodes = active[dangling]
            dang_mass = pushed[dangling]
            if restart:
                reserve[dang_nodes] += alpha * dang_mass
                residue[source] += (1.0 - alpha) * float(dang_mass.sum())
            else:
                reserve[dang_nodes] += dang_mass
        if spread_nodes.size:
            counts = degrees[spread_nodes]
            positions = expand_ranges(indptr[spread_nodes], counts)
            targets = indices[positions]
            weights = np.repeat((1.0 - alpha) * spread_mass / counts, counts)
            residue += np.bincount(targets, weights=weights,
                                   minlength=graph.n)


def _row_sums(rows):
    """Bit-stable sums of the rows of ``rows`` (block columns, transposed).

    One contiguous copy puts each wanted column of a C-order block in a
    row, and numpy reduces each row of a C-order array with the same
    pairwise summation it applies to a contiguous ``(n,)`` vector, so a
    column's sum has the same bits whatever the block width it lives
    in -- the property that makes blocked sweeps byte-identical to a
    ``B=1`` solo run.
    """
    return np.ascontiguousarray(rows).sum(axis=1)


def power_block_loop(graph, reserves, residues, alpha, tol, sources, *,
                     cache=None, max_sweeps=MAX_POWER_SWEEPS):
    """Global power sweeps over a blocked ``(n, B)`` residual.

    Runs full-frontier Jacobi sweeps (``residue_next = P^T @ residue``
    with ``P^T = (1-alpha) A^T D^-1`` from :meth:`SnapshotPushCache.
    power_operator`) on all ``B`` sources simultaneously until every
    column's residue mass drops to ``tol``: one traversal of the cached
    transpose serves the whole block, so the per-edge index loads the
    solo path pays ``B`` times are amortized into a single
    memory-bandwidth-bound pass.

    ``reserves`` / ``residues`` are sequences of ``B`` per-source 1-D
    float64 vectors; each is updated **in place** with that source's
    fixpoint state.  ``sources`` gives the restart target per column
    (used only under the ``"restart"`` dangling policy).

    Two per-sweep costs are deferred without changing any column's
    final bits:

    * the reserve update ``reserve += alpha * residue_k`` is summed
      lazily -- a running block ``acc = sum_k residue_k`` is kept and
      ``alpha * acc`` is applied once when the column freezes (the
      dangling-absorb share ``(1-alpha) * acc`` likewise);
    * the convergence check is skipped until the sweep where the exact
      geometric decay ``r_sum_k <= r_0 (1-alpha)^k`` first allows
      ``r_sum <= tol`` (minus a safety margin), so most sweeps never
      pay a column reduction.  The prediction uses only per-column
      scalars, so solo and blocked runs skip identically.

    Every live column takes part in every sweep, so a column's sweep
    count is the loop's; the per-sweep bookkeeping is a few whole-block
    array operations, not a Python loop over columns.

    Per-column guarantees:

    * the sweep arithmetic (elementwise block updates, per-row CSR
      accumulation -- ``csr_matvecs``, or ``csr_matvec`` at width 1 --
      and transposed-copy column sums) is bitwise independent of the
      block width, so column ``c`` of a ``B``-wide block matches a
      ``B=1`` run of the same state exactly;
    * a column whose residue mass reaches ``tol`` is frozen at that
      sweep (its vectors written back immediately) and the block is
      compacted once at most half the columns remain, so early
      finishers stop paying for stragglers.

    ``max_sweeps`` is a cap, not an error: a column still above ``tol``
    after that many sweeps is written back the same way and returned
    with its ``r_sum``; callers that need ``tol`` check ``r_sums``.  A
    ``tol <= 0`` is reached only by mass that runs out exactly, which
    needs absorbing dangling nodes (checked every sweep), so with
    prediction on such columns are checked only at the cap.

    Scratch blocks are leased from the snapshot's
    :class:`SnapshotPushCache` and returned on exit; a mutation retires
    them via :func:`release_push_cache` like every other pooled buffer.

    Returns ``(r_sums, sweeps)``: the final residue mass and the number
    of sweeps applied, per source.
    """
    import math

    if cache is None:
        cache = get_push_cache(graph)
    num = len(residues)
    degrees = graph.out_degrees
    alpha = float(alpha)
    spread_scale = 1.0 - alpha
    dang_idx = np.flatnonzero(degrees == 0)
    restart = graph.dangling == "restart"
    operator = cache.power_operator(alpha)
    tol = float(tol)

    r_sums = np.empty(num, dtype=np.float64)
    sweeps = np.zeros(num, dtype=np.int64)
    # Decay is exactly (1-alpha) per sweep under "restart" (all mass
    # recirculates) and at most that under "absorb"; with absorbing
    # dangling nodes it can be faster, so prediction would only delay
    # the check past the true crossing -- check every sweep instead.
    predict = restart or dang_idx.size == 0
    log_decay = math.log(spread_scale) if spread_scale > 0.0 else None
    active, check_from = [], []
    for c in range(num):
        r0 = float(np.ascontiguousarray(residues[c]).sum())
        if r0 <= tol or max_sweeps <= 0:
            r_sums[c] = r0
            continue
        active.append(c)
        if predict and tol <= 0.0:
            check_from.append(max_sweeps)
        elif predict and log_decay is not None and log_decay < 0.0:
            earliest = math.ceil(math.log(tol / r0) / log_decay)
            check_from.append(min(max(1, int(earliest) - 2), max_sweeps))
        else:
            check_from.append(1)
    if not active:
        return r_sums, sweeps

    # Block column j holds source slot cols[j] (restart target
    # col_src[j]); alive[j] clears when it converges, and the column
    # stays frozen in place until the next compaction.
    cols = np.asarray(active, dtype=np.int64)
    col_src = np.asarray(sources, dtype=np.int64)[cols]
    check_at = np.asarray(check_from, dtype=np.int64)
    width = cols.size
    alive = np.ones(width, dtype=bool)
    n_alive = width
    next_check = int(check_at.min())
    rr = cache.lease_block(width)    # current residue block
    nn = cache.lease_block(width)    # next-residue scratch
    acc = cache.lease_block(width)   # running sum of pushed residues
    leased = [rr, nn, acc]
    acc.fill(0.0)
    for j, c in enumerate(active):
        rr[:, j] = residues[c]

    total = 0
    try:
        while n_alive:
            total += 1
            # Full-frontier round: every node pushes its whole residue.
            acc += rr
            nn.fill(0.0)
            if restart and dang_idx.size:
                # Frozen columns get a share too; nothing reads them.
                dsums = _row_sums(rr[dang_idx].T)
                nn[col_src, np.arange(width)] = spread_scale * dsums
            _accumulate_matvec(operator, rr, nn)
            rr, nn = nn, rr
            if total < next_check:
                continue
            due = np.flatnonzero(alive & (check_at <= total))
            rs = _row_sums(rr.T[due])
            # At the cap every live column is due and freezes as it is.
            converged = (rs <= tol) | (total >= max_sweeps)
            done = due[converged]
            for j, value in zip(done.tolist(), rs[converged].tolist()):
                c = int(cols[j])
                r_sums[c] = value
                sweeps[c] = total
                res = reserves[c]
                res += alpha * acc[:, j]
                if dang_idx.size and not restart:
                    res[dang_idx] += spread_scale * acc[dang_idx, j]
                residues[c][:] = rr[:, j]
            if not done.size:
                continue
            alive[done] = False
            n_alive -= done.size
            if n_alive and n_alive <= width // 2:
                keep = np.flatnonzero(alive)
                new_rr = cache.lease_block(n_alive)
                new_nn = cache.lease_block(n_alive)
                new_acc = cache.lease_block(n_alive)
                np.take(rr, keep, axis=1, out=new_rr, mode="clip")
                np.take(acc, keep, axis=1, out=new_acc, mode="clip")
                for buf in leased:
                    cache.release_block(buf)
                rr, nn, acc = new_rr, new_nn, new_acc
                leased = [rr, nn, acc]
                cols, col_src = cols[keep], col_src[keep]
                check_at = check_at[keep]
                width = n_alive
                alive = np.ones(width, dtype=bool)
            if n_alive:
                next_check = int(check_at[alive].min())
    finally:
        for buf in leased:
            cache.release_block(buf)
    return r_sums, sweeps
