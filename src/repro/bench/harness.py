"""Experiment harness: timing, ground truth, and per-source sweeps.

The harness centralizes the machinery every experiment shares:

* :class:`BenchConfig` -- one knob set (graph scale, #sources, the
  ``delta`` relaxation that keeps pure-Python runtimes in seconds);
* :class:`GroundTruthCache` -- exact RWR vectors, computed once per
  (graph, source) via the factorized sparse solver (falling back to power
  iteration on graphs too large to factorize comfortably);
* :func:`run_suite` -- run a dict of solvers over a list of sources,
  collecting times, estimates and accuracy metrics in one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines.inverse import ExactSolver
from repro.baselines.power import power_iteration
from repro.community.seeding import random_seeds
from repro.core.params import AccuracyParams
from repro.errors import ParameterError
from repro.metrics.errors import abs_error_at_kth, mean_abs_error
from repro.metrics.ranking import ndcg_at_k

#: Above this node count the exact sparse factorization is skipped in
#: favour of power iteration (both agree to ~1e-12).  Social-graph
#: adjacencies have no sparse elimination ordering, so LU fill explodes
#: quickly -- power iteration at tol 1e-12 is faster beyond toy sizes.
EXACT_SOLVER_MAX_N = 3_000


@dataclass(frozen=True)
class BenchConfig:
    """Shared experiment configuration.

    ``delta_scale`` relaxes the paper's ``delta = 1/n`` to
    ``delta = delta_scale / n``; the walk counts scale down by the same
    factor, which is the documented concession to pure-Python speed.  All
    comparisons use the *same* accuracy object, so relative standings are
    unaffected.
    """

    scale: float = 1.0
    num_sources: int = 5
    delta_scale: float = 1.0
    eps: float = 0.5
    seed: int = 0
    fast: bool = False

    @classmethod
    def fast_defaults(cls):
        """Settings for the pytest-benchmark runs (seconds, not minutes)."""
        return cls(scale=0.25, num_sources=3, delta_scale=20.0, fast=True)

    def accuracy_for(self, graph):
        """The shared accuracy contract for one graph."""
        return AccuracyParams.paper_defaults(
            graph.n, eps=self.eps, delta_scale=self.delta_scale
        )

    def sources_for(self, graph):
        """Deterministic random query workload (the paper draws 50)."""
        return random_seeds(graph, self.num_sources, seed=self.seed)

    def scaled(self, **overrides):
        """A copy with some fields replaced."""
        return replace(self, **overrides)


class GroundTruthCache:
    """Exact RWR vectors memoized per (graph, source)."""

    def __init__(self, alpha=0.2, tol=1e-12):
        self.alpha = alpha
        self.tol = tol
        self._solvers = {}
        self._vectors = {}

    def truth(self, graph, source):
        """The exact vector for one source (cached)."""
        key = (id(graph), int(source))
        if key not in self._vectors:
            self._vectors[key] = self._compute(graph, int(source))
        return self._vectors[key]

    def _compute(self, graph, source):
        if graph.n <= EXACT_SOLVER_MAX_N and graph.dangling == "absorb":
            solver = self._solvers.get(id(graph))
            if solver is None:
                solver = ExactSolver(graph, self.alpha)
                self._solvers[id(graph)] = solver
            return solver.query(source).estimates
        return power_iteration(graph, source, alpha=self.alpha,
                               tol=self.tol).estimates


@dataclass
class SolverRun:
    """Per-source measurements of one solver on one graph."""

    name: str
    seconds: list = field(default_factory=list)
    estimates: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def mean_seconds(self):
        return float(np.mean(self.seconds)) if self.seconds else float("nan")

    def mean_abs_error_against(self, truths):
        return float(np.mean([
            mean_abs_error(t, e) for t, e in zip(truths, self.estimates)
        ]))

    def mean_abs_error_at_kth(self, truths, ks):
        """Average (over sources) absolute error at each k."""
        per_source = [abs_error_at_kth(t, e, ks)
                      for t, e in zip(truths, self.estimates)]
        return {k: float(np.mean([d[k] for d in per_source])) for k in ks}

    def mean_ndcg_at(self, truths, ks):
        return {
            k: float(np.mean([ndcg_at_k(t, e, k)
                              for t, e in zip(truths, self.estimates)]))
            for k in ks
        }

    def per_source_abs_errors(self, truths):
        return [mean_abs_error(t, e)
                for t, e in zip(truths, self.estimates)]

    def per_source_ndcg(self, truths, k):
        return [ndcg_at_k(t, e, k)
                for t, e in zip(truths, self.estimates)]


def timed(fn, *args, **kwargs):
    """``(result, wall_seconds)`` of one call."""
    tic = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - tic


def run_suite(graph, sources, solvers, *, keep_estimates=True):
    """Run every solver on every source.

    ``solvers`` maps name -> callable ``(graph, source) -> SSRWRResult``.
    Returns ``{name: SolverRun}``.  Results that carry a populated
    ``.trace`` (solvers built with :func:`traced_solver`, or any callable
    that passes a :class:`repro.obs.QueryTrace` itself) have their traces
    collected on the corresponding :class:`SolverRun`.
    """
    runs = {name: SolverRun(name=name) for name in solvers}
    for source in sources:
        for name, solver in solvers.items():
            result, seconds = timed(solver, graph, source)
            runs[name].seconds.append(seconds)
            if keep_estimates:
                runs[name].estimates.append(result.estimates)
            trace = getattr(result, "trace", None)
            if trace is not None:
                runs[name].traces.append(trace)
    return runs


def traced_solver(solver):
    """Wrap ``(graph, source, trace=...)`` so every call gets a fresh
    :class:`repro.obs.QueryTrace` (collected by :func:`run_suite`)."""
    from repro.obs import QueryTrace

    def run(graph, source):
        return solver(graph, source, trace=QueryTrace())
    return run


def suite_traces(runs):
    """All traces across a :func:`run_suite` result, flattened in order."""
    traces = []
    for run in runs.values():
        traces.extend(run.traces)
    return traces


def export_suite_traces(runs, path, *, experiment=None):
    """Write every collected trace as one machine-readable JSON document.

    The document is :func:`repro.obs.export.save_traces` format; per-run
    aggregates (p50/p95 per phase) are embedded in its ``meta`` so a CI
    job can read headline numbers without re-aggregating.
    """
    from repro.obs.export import aggregate_traces, save_traces

    meta = {"experiment": experiment, "solvers": {}}
    for name, run in runs.items():
        if run.traces:
            meta["solvers"][name] = aggregate_traces(run.traces)
    return save_traces(suite_traces(runs), path, meta=meta)


def truths_for(cache, graph, sources):
    """Exact vectors for a source list, in order."""
    return [cache.truth(graph, s) for s in sources]


#: File-format marker written by :func:`serving_benchmark` consumers
#: (``repro-bench serve-batch --json``).
SERVING_BENCH_KIND = "repro-serving-bench"

#: File-format marker written by :func:`push_benchmark` consumers
#: (``repro-bench push --json``).
PUSH_BENCH_KIND = "repro-push-bench"


def push_benchmark(graph, *, num_sources=8, h=1, alpha=0.2, seed=0,
                   repeats=3):
    """Push-kernel benchmark: output-sensitive kernels vs. the seed loop.

    Reconstructs the two push phases of a real ResAcc query -- h-HopFWD
    (push restricted to ``V_h(s) \\ {s}`` at ``r_max_hop``) and OMFWD
    (the boundary drain at ``r_max_f = 1/(10 m)``) -- for
    ``num_sources`` deterministic random sources, and times each phase
    two ways over ``repeats`` runs:

    * ``seed`` -- :func:`repro.push.kernels.dense_reference_loop`, the
      pre-kernel frontier scheduler (dense eligibility scan +
      ``bincount(minlength=n)`` scatter per round);
    * ``kernel`` -- :func:`repro.push.forward.forward_push_loop`, i.e.
      the output-sensitive :func:`repro.push.kernels.frontier_loop`.

    Per-phase and end-to-end speedups use the best (minimum) total over
    the repeats -- the standard estimator for a deterministic CPU-bound
    kernel.  Two correctness probes ride along: ``fixpoint_equivalent``
    (both implementations reach the same fixpoint to within
    ``equivalence_tol = 1e-12``) and ``mass_conserved`` (the kernel's
    ``sum(reserve) + sum(residue)`` equals 1 to within 1e-12 for every
    source).

    Returns a JSON-safe dict (``kind = "repro-push-bench"``).
    """
    from repro.community.seeding import random_seeds
    from repro.core.params import ResAccParams
    from repro.graph.hop import hop_structure
    from repro.push.forward import (
        PushStats,
        forward_push_loop,
        init_state,
        single_push,
    )
    from repro.push.kernels import dense_reference_loop

    params = ResAccParams(alpha=alpha, h=int(h))
    r_max_hop = params.r_max_hop
    r_max_f = params.bound_r_max_f(graph)
    sources = [int(s) for s in random_seeds(graph, num_sources, seed=seed)]

    cases = []
    for source in sources:
        reserve, residue = init_state(graph, source)
        single_push(graph, source, reserve, residue, alpha, source=source)
        hops = hop_structure(graph, source, params.h + 1)
        can_push = hops.within(params.h)
        can_push[source] = False
        cases.append((source, reserve, residue, can_push))

    def run_phases(loop_hhop, loop_omfwd):
        """One timed pass over all sources; returns per-phase seconds
        and the final (reserve, residue) per source."""
        seconds = {"hhop": 0.0, "omfwd": 0.0}
        states = []
        for source, reserve0, residue0, can_push in cases:
            reserve, residue = reserve0.copy(), residue0.copy()
            tic = time.perf_counter()
            loop_hhop(reserve, residue, can_push, source)
            seconds["hhop"] += time.perf_counter() - tic
            tic = time.perf_counter()
            loop_omfwd(reserve, residue, source)
            seconds["omfwd"] += time.perf_counter() - tic
            states.append((reserve, residue))
        return seconds, states

    def seed_hhop(reserve, residue, can_push, source):
        dense_reference_loop(graph, reserve, residue, alpha, r_max_hop,
                             can_push=can_push, source=source)

    def seed_omfwd(reserve, residue, source):
        dense_reference_loop(graph, reserve, residue, alpha, r_max_f,
                             source=source)

    kernel_stats = PushStats()

    def kernel_hhop(reserve, residue, can_push, source):
        stats = forward_push_loop(graph, reserve, residue, alpha, r_max_hop,
                                  can_push=can_push, source=source,
                                  method="frontier")
        kernel_stats.merge(stats)

    def kernel_omfwd(reserve, residue, source):
        stats = forward_push_loop(graph, reserve, residue, alpha, r_max_f,
                                  source=source, method="frontier")
        kernel_stats.merge(stats)

    # Warm-up (transpose build, threshold cache).
    run_phases(kernel_hhop, kernel_omfwd)

    seed_runs, kernel_runs = [], []
    seed_states = kernel_states = None
    for _ in range(repeats):
        seconds, seed_states = run_phases(seed_hhop, seed_omfwd)
        seed_runs.append(seconds)
        kernel_stats.__init__()  # keep counters from the measured run only
        seconds, kernel_states = run_phases(kernel_hhop, kernel_omfwd)
        kernel_runs.append(seconds)

    equivalence_tol = 1e-12
    fixpoint_gap = 0.0
    mass_gap = 0.0
    for (seed_res, seed_rid), (ker_res, ker_rid) in zip(seed_states,
                                                        kernel_states):
        fixpoint_gap = max(
            fixpoint_gap,
            float(np.max(np.abs(seed_res - ker_res))),
            float(np.max(np.abs(seed_rid - ker_rid))),
        )
        mass_gap = max(mass_gap, abs(
            float(ker_res.sum()) + float(ker_rid.sum()) - 1.0))

    def best_total(runs, phase=None):
        if phase is None:
            return min(r["hhop"] + r["omfwd"] for r in runs)
        return min(r[phase] for r in runs)

    seed_best = best_total(seed_runs)
    kernel_best = best_total(kernel_runs)
    doc = {
        "kind": PUSH_BENCH_KIND,
        "graph": {"n": graph.n, "m": graph.m},
        "alpha": alpha,
        "h": int(params.h),
        "r_max_hop": r_max_hop,
        "r_max_f": r_max_f,
        "sources": sources,
        "repeats": int(repeats),
        "seed_seconds": {
            "hhop": best_total(seed_runs, "hhop"),
            "omfwd": best_total(seed_runs, "omfwd"),
            "total": seed_best,
        },
        "kernel_seconds": {
            "hhop": best_total(kernel_runs, "hhop"),
            "omfwd": best_total(kernel_runs, "omfwd"),
            "total": kernel_best,
        },
        "hhop_speedup": (best_total(seed_runs, "hhop")
                         / best_total(kernel_runs, "hhop")),
        "omfwd_speedup": (best_total(seed_runs, "omfwd")
                          / best_total(kernel_runs, "omfwd")),
        "speedup": (seed_best / kernel_best
                    if kernel_best > 0 else float("inf")),
        "sparse_rounds": int(kernel_stats.sparse_rounds),
        "dense_rounds": int(kernel_stats.dense_rounds),
        "pushes": int(kernel_stats.pushes),
        "equivalence_tol": equivalence_tol,
        "fixpoint_gap": fixpoint_gap,
        "mass_gap": mass_gap,
        "fixpoint_equivalent": fixpoint_gap <= equivalence_tol,
        "mass_conserved": mass_gap <= 1e-12,
    }
    return doc


POWERPUSH_BENCH_KIND = "repro-powerpush-bench"


def powerpush_benchmark(graph, *, batch_size=32, repeats=3, accuracy=None,
                        seed=0, equivalence_tol=1e-12):
    """Blocked multi-source PowerPush vs. the per-source loop.

    Times a *cold* batch of ``batch_size`` unique sources two ways over
    identical inputs: one :func:`repro.core.powerpush.powerpush` call
    per source, and one blocked
    :func:`repro.core.powerpush.powerpush_batch` solve in which all
    sources share each global sweep as an ``(n, B)`` transpose-SpMV.
    Both run against the same warm snapshot cache (the cached ``A^T``
    power operator is an index structure, not per-source work), each
    repeated ``repeats`` times with the best run kept, exactly the
    :func:`push_benchmark` convention.

    The accuracy contract is checked the strong way: the blocked
    answers must match the per-source loop within ``equivalence_tol``
    per source (``byte_identical`` reports whether they match bit for
    bit, which the kernel's width-independent accumulation order makes
    the expected outcome -- see ``docs/powerpush.md``).

    Returns a JSON-safe dict (``kind = "repro-powerpush-bench"``).
    """
    from repro.core.powerpush import powerpush, powerpush_batch

    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    sources = [int(s) for s in random_seeds(graph, batch_size, seed=seed)]

    def loop():
        return [powerpush(graph, s, accuracy=accuracy) for s in sources]

    def block():
        return powerpush_batch(graph, sources, accuracy=accuracy)

    # Warm the snapshot cache (thresholds, A^T operator, scratch pools)
    # outside the timed region, as every bench here does.
    powerpush(graph, sources[0], accuracy=accuracy)

    loop_results, t_loop = timed(loop)
    loop_times = [t_loop]
    for _ in range(max(0, int(repeats) - 1)):
        _, t = timed(loop)
        loop_times.append(t)
    block_results, t_block = timed(block)
    block_times = [t_block]
    for _ in range(max(0, int(repeats) - 1)):
        _, t = timed(block)
        block_times.append(t)

    max_gap = max(
        float(np.max(np.abs(a.estimates - b.estimates)))
        for a, b in zip(loop_results, block_results)
    )
    identical = all(
        a.estimates.tobytes() == b.estimates.tobytes()
        for a, b in zip(loop_results, block_results)
    )
    loop_best = min(loop_times)
    block_best = min(block_times)
    return {
        "kind": POWERPUSH_BENCH_KIND,
        "graph": {"n": graph.n, "m": graph.m},
        "accuracy": {"eps": accuracy.eps, "delta": accuracy.delta,
                     "p_f": accuracy.p_f},
        "batch_size": len(sources),
        "sources": sources,
        "seed": seed,
        "repeats": int(repeats),
        "loop_seconds": loop_best,
        "block_seconds": block_best,
        "speedup": (loop_best / block_best
                    if block_best > 0 else float("inf")),
        "sweeps": [int(r.extras["sweeps"]) for r in block_results],
        "equivalence_tol": equivalence_tol,
        "max_abs_gap": max_gap,
        "within_tol": max_gap <= equivalence_tol,
        "byte_identical": identical,
    }


#: Engine choices understood by :func:`serving_benchmark` (and the
#: ``repro-bench serve-batch --engine`` / ``repro-serve --engine`` flags).
SERVING_ENGINES = ("threads", "multiproc")


def make_serving_engine(graph, engine, *, num_workers=4, accuracy=None,
                        seed=0, cache_size=256, **kwargs):
    """Construct the requested serving engine over ``graph``.

    ``engine`` is one of :data:`SERVING_ENGINES`: ``"threads"`` builds a
    :class:`repro.serving.ConcurrentQueryEngine` with ``num_workers``
    pool threads, ``"multiproc"`` builds a
    :class:`repro.serving.MultiProcessQueryEngine` with ``num_workers``
    solver *processes*.  Shared by the bench harness and the two CLIs so
    the flag means the same thing everywhere.
    """
    from repro.serving import ConcurrentQueryEngine, MultiProcessQueryEngine

    if engine == "threads":
        return ConcurrentQueryEngine(
            graph, accuracy=accuracy, seed=seed, cache_size=cache_size,
            max_workers=num_workers, **kwargs,
        )
    if engine == "multiproc":
        return MultiProcessQueryEngine(
            graph, accuracy=accuracy, seed=seed, cache_size=cache_size,
            solver_workers=num_workers, **kwargs,
        )
    raise ParameterError(
        f"engine must be one of {SERVING_ENGINES}, got {engine!r}"
    )


def serving_benchmark(graph, *, num_unique=8, repeat=3, num_workers=4,
                      accuracy=None, seed=0, cache_size=256,
                      engine="threads"):
    """Batched-throughput benchmark: ``query_batch`` vs. sequential loops.

    The request stream models the paper's online-service motivation: a
    hot workload of ``num_unique`` distinct sources, each requested
    ``repeat`` times, interleaved round-robin so duplicates arrive while
    their first computation may still be in flight.  Three answers are
    timed over the *same* request stream:

    * ``sequential_loop`` -- one direct solver call per request, no
      cache (the pre-serving baseline: every request answered
      independently);
    * ``sequential_cached`` -- the single-threaded
      :class:`repro.service.QueryEngine` (cache but no parallelism);
    * ``batch`` -- ``query_batch`` on the engine selected by ``engine``
      (``"threads"`` or ``"multiproc"``, see
      :func:`make_serving_engine`) over ``num_workers`` workers.

    Worker startup is paid outside the timings: the engine answers the
    unique sources once and flushes its cache before the timed runs,
    exactly how long-lived services amortize pool spawn.

    Byte-identity of the batched answers against the sequential loop is
    checked per request position (the determinism contract).  The
    headline ``speedup`` is batch vs. the sequential loop; the
    parallel-only number (unique sources, nothing to dedup) is reported
    as ``unique_workload`` -- for the threaded engine it is ~1.0 on any
    core count (the GIL serializes solves), while the multi-process
    engine is expected to scale it with cores: that is the number the
    CI ``multiproc`` job gates at >= 2x.

    Returns a JSON-safe dict (``kind = "repro-serving-bench"``).
    """
    from repro.core.resacc import resacc
    from repro.service import QueryEngine

    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    unique = [int(s) for s in random_seeds(graph, num_unique, seed=seed)]
    requests = [s for _ in range(repeat) for s in unique]

    def solve(source):
        return resacc(graph, source, accuracy=accuracy,
                      seed=seed + source)

    # Warm the kernels once so no variant pays first-call overheads.
    solve(unique[0])

    sequential, t_loop = timed(lambda: [solve(s) for s in requests])

    cached_engine = QueryEngine(graph, accuracy=accuracy,
                                cache_size=cache_size, seed=seed)
    _, t_cached = timed(lambda: [cached_engine.query(s) for s in requests])

    with make_serving_engine(graph, engine, num_workers=num_workers,
                             accuracy=accuracy, seed=seed,
                             cache_size=cache_size) as svc:
        # Warm-up: spawn workers / import the solver stack outside the
        # timed region (services hold their pools across queries), then
        # flush so the timed hot run really computes.
        if hasattr(svc, "warm_up"):
            svc.warm_up()
        from repro.serving import ServiceStats

        svc.query_batch(unique)
        svc.flush_cache()
        svc.stats = ServiceStats()

        batched, t_batch = timed(svc.query_batch, requests)
        batch_stats = {
            "queries": svc.stats.queries,
            "cache_hits": svc.stats.cache_hits,
            "cache_misses": svc.stats.cache_misses,
            "coalesced": svc.stats.coalesced,
            "solver_calls": svc.stats.solver_calls,
        }

        # Parallel-only control: fresh unique sources, nothing to dedup.
        _, t_unique_seq = timed(lambda: [solve(s) for s in unique])
        svc.flush_cache()
        _, t_unique_batch = timed(svc.query_batch, unique)

    identical = all(
        a.estimates.tobytes() == b.estimates.tobytes()
        for a, b in zip(sequential, batched)
    )
    return {
        "kind": SERVING_BENCH_KIND,
        "graph": {"n": graph.n, "m": graph.m},
        "accuracy": {"eps": accuracy.eps, "delta": accuracy.delta,
                     "p_f": accuracy.p_f},
        "workload": {
            "requests": len(requests),
            "unique_sources": len(unique),
            "repeat": repeat,
            "sources": unique,
            "seed": seed,
        },
        "engine": engine,
        "workers": num_workers,
        "sequential_loop_seconds": t_loop,
        "sequential_cached_seconds": t_cached,
        "batch_seconds": t_batch,
        "speedup": t_loop / t_batch if t_batch > 0 else float("inf"),
        "speedup_vs_cached": (t_cached / t_batch
                              if t_batch > 0 else float("inf")),
        "byte_identical": identical,
        "unique_workload": {
            "requests": len(unique),
            "sequential_loop_seconds": t_unique_seq,
            "batch_seconds": t_unique_batch,
            "speedup": (t_unique_seq / t_unique_batch
                        if t_unique_batch > 0 else float("inf")),
        },
        "engine_stats": batch_stats,
    }


DYNAMIC_BENCH_KIND = "repro-dynamic-bench"


def _latency_percentile(latencies, q):
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


def pick_mutation_site(graph, warm_results, accuracy, solve_margin):
    """``(site, partner)`` for the mixed-workload edit stream.

    The site is the node with the cheapest predicted per-edit error cost
    ``rho_u * pi_upper[u]`` (see :mod:`repro.serving.retention`) across
    the warmed sources: high out-degree (small ``rho``) but little
    cached score mass.  Real dynamic graphs grow at exactly such nodes
    -- prolific, weakly-scored broadcasters -- and an adversarial site
    (a high-score hub) would simply measure the eviction path, which
    ``quiesce`` already covers.  The partner is the lowest-id
    non-neighbor the edit stream toggles the edge against.
    """
    eps_bound = accuracy.eps * solve_margin
    scores = np.max(np.stack([r.estimates for r in warm_results]), axis=0)
    degrees = graph.out_degrees.astype(np.float64)
    rho = 2.0 / np.maximum(degrees, 1.0)
    pi_upper = np.maximum(accuracy.delta, scores / (1.0 - eps_bound))
    cost = np.where(degrees >= 2, rho * pi_upper, np.inf)
    site = int(np.argmin(cost))
    neighbors = set(int(v) for v in graph.out_neighbors(site))
    partner = next(v for v in range(graph.n)
                   if v != site and v not in neighbors)
    return site, partner


def _run_dynamic_variant(graph, *, sources, rounds, write_every, site,
                         partner, accuracy, solve_margin, incremental,
                         num_workers, seed, cache_size, grace):
    """One timed pass of the mixed read/write stream.

    Reads cycle the warmed sources round-robin; after every
    ``write_every`` reads one write toggles the ``(site, partner)``
    edge.  ``grace`` seconds elapse between a write and the next read --
    the streams are independent in a real service, and the grace is
    what gives background repair (or, for ``quiesce``, nothing) a
    chance to run off the read path.  Writes with ``write_every <= 0``
    are skipped entirely (the read-only baseline).  Returns per-read
    latencies plus the engine's retention counters.
    """
    from repro.serving import ConcurrentQueryEngine

    with ConcurrentQueryEngine(
        graph, accuracy=accuracy, seed=seed, cache_size=cache_size,
        max_workers=num_workers, incremental=incremental,
        solve_margin=solve_margin,
    ) as svc:
        svc.query_batch(sources)  # warm the cache outside the timing
        latencies = []
        reads = writes = 0
        edge_present = False
        snapshot = None
        tic = time.perf_counter()
        for _ in range(rounds):
            for source in sources:
                _, elapsed = timed(svc.query, source)
                latencies.append(elapsed)
                reads += 1
                if write_every > 0 and reads % write_every == 0:
                    if edge_present:
                        svc.remove_edge(site, partner)
                    else:
                        svc.add_edge(site, partner)
                    edge_present = not edge_present
                    writes += 1
                    # A later write may evict every entry; the contract
                    # check reads the cache as the last retaining write
                    # left it.
                    if svc.stats.extras["last_mutation"]["retained"]:
                        snapshot = _cache_snapshot(svc)
                    time.sleep(grace)
        total = time.perf_counter() - tic
        stats = svc.stats
        summary = {
            "reads": reads,
            "writes": writes,
            "seconds": total,
            "p50_read_seconds": _latency_percentile(latencies, 50),
            "p95_read_seconds": _latency_percentile(latencies, 95),
            "mean_read_seconds": float(np.mean(latencies)),
            "stats": {
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "coalesced": stats.coalesced,
                "invalidations": stats.invalidations,
                "entries_retained": stats.entries_retained,
                "entries_repaired": stats.entries_repaired,
            },
        }
        contract_ok, checked = None, []
        if incremental and write_every > 0:
            contract_ok, checked = _check_cached_contracts(
                svc, accuracy, snapshot=snapshot)
        summary["retained_within_contract"] = contract_ok
        summary["contract_checks"] = checked
    return summary


def _cache_snapshot(svc):
    """``(graph, entries, retained)``: the engine's graph snapshot, its
    ``(key, answer, meta)`` query cache entries (LRU-first) and the
    sources its last edit retained."""
    last = svc.stats.extras.get("last_mutation") or {}
    entries = [(key, value, svc._cache.get_meta(key))
               for key, value in svc._cache.entries() if key[0] != "topk"]
    return svc.graph, entries, set(last.get("retained_sources", ()))


def _check_cached_contracts(svc, accuracy, *, sample=3, snapshot=None):
    """Check sampled cached answers against Definition 1 on the graph
    they are served for: ``|est - exact| <= eps * exact`` wherever
    ``exact > delta``.  Retained entries get here on the strength of
    their offset bound alone -- they were solved against an earlier
    snapshot.  ``snapshot`` is a :func:`_cache_snapshot` taken earlier
    (default: one taken now).

    Returns ``(ok, entries)``: ``ok`` is true when every sampled entry
    meets the contract (false when none was sampled), and ``entries``
    holds one dict per sampled answer -- its ``source``, ``worst``
    ratio ``error / (eps * exact)`` over the heavy nodes, whether it
    was ``retained`` across the last edit or solved on the current
    snapshot, its tracked ``eps_bound`` and whether it ``passed``.
    Entries retained across the last edit are sampled first; fresh
    solves fill the rest of the sample.
    """
    graph, entries, retained = snapshot or _cache_snapshot(svc)
    entries = sorted(entries, key=lambda entry: entry[0][0] not in retained)
    report = []
    for key, result, meta in entries[:sample]:
        source = int(key[0])
        exact = power_iteration(graph, source, tol=1e-12).estimates
        heavy = exact > accuracy.delta
        errors = np.abs(result.estimates[heavy] - exact[heavy])
        budget = accuracy.eps * exact[heavy]
        report.append({
            "source": source,
            "worst": float((errors / budget).max()) if budget.size else 0.0,
            "retained": source in retained,
            "eps_bound": None if meta is None else float(meta.eps_bound),
            "passed": bool(np.all(errors <= budget)),
        })
    return bool(report) and all(e["passed"] for e in report), report


def dynamic_benchmark(graph, *, num_unique=8, rounds=12, write_every=8,
                      accuracy=None, solve_margin=0.5, num_workers=4,
                      seed=0, cache_size=256, grace_factor=1.5):
    """Mixed read/write serving benchmark for incremental invalidation.

    The workload interleaves cached reads over ``num_unique`` hot
    sources with single-edge writes (one write per ``write_every``
    reads, i.e. >= 10% writes at the default 8) toggling an edge at the
    least-disruptive high-out-degree site
    (:func:`pick_mutation_site`).  Three variants run the identical
    stream on the threaded engine:

    * ``read_only`` -- incremental engine, writes skipped: the p95
      floor;
    * ``quiesce`` -- ``incremental=False``: every write drops the whole
      cache and the next read of each source pays a full solve on the
      read path (the pre-incremental design);
    * ``incremental`` -- offset-bound retention plus background repair:
      reads keep hitting.

    All three solve misses at the same margin-tightened accuracy so
    per-read work is identical; only the invalidation policy differs.
    Headline numbers: ``retention_rate`` (cached entries kept per
    mutation, > 0 is the acceptance bar), ``p95_ratio_vs_read_only``
    (the "p95 barely moves" claim; gate at <= 1.5x) and
    ``p95_speedup_vs_quiesce``.  ``retained_within_contract`` reruns
    Definition 1 for sampled cached answers against an exact solve on
    the post-edit graph; ``contract_checks`` lists each sampled answer
    (see :func:`_check_cached_contracts`).

    Returns a JSON-safe dict (``kind = "repro-dynamic-bench"``).
    """
    from repro.core.resacc import resacc

    accuracy = accuracy or AccuracyParams.paper_defaults(graph.n)
    sources = [int(s) for s in random_seeds(graph, num_unique, seed=seed)]
    solve_accuracy = accuracy.with_eps(accuracy.eps * solve_margin)

    # Site selection + grace sizing need the warm answers and the miss
    # latency; both are measured outside every timed region.
    warm = []
    solve_seconds = 0.0
    for source in sources:
        result, elapsed = timed(resacc, graph, source,
                                accuracy=solve_accuracy,
                                seed=seed + source)
        warm.append(result)
        solve_seconds += elapsed
    mean_solve = solve_seconds / len(sources)
    site, partner = pick_mutation_site(graph, warm, accuracy, solve_margin)
    # Worst case a write evicts every cached source and the GIL
    # serializes their background repairs; the grace between a
    # write and the next read must cover that, or the read stream
    # coalesces with still-running repairs and pays solve latency.
    grace = grace_factor * mean_solve * len(sources)

    common = dict(sources=sources, rounds=rounds, site=site,
                  partner=partner, accuracy=accuracy,
                  solve_margin=solve_margin, num_workers=num_workers,
                  seed=seed, cache_size=cache_size, grace=grace)
    read_only = _run_dynamic_variant(graph, write_every=0,
                                     incremental=True, **common)
    quiesce = _run_dynamic_variant(graph, write_every=write_every,
                                   incremental=False, **common)
    incremental = _run_dynamic_variant(graph, write_every=write_every,
                                       incremental=True, **common)

    retained = incremental["stats"]["entries_retained"]
    evicted = incremental["stats"]["invalidations"]
    retention_rate = (retained / (retained + evicted)
                      if retained + evicted else 0.0)
    # Cache-hit p95s are single-digit microseconds; a raw ratio of two
    # such numbers measures scheduler jitter, not the serving design.
    # Floor both sides at 10% of one solve so the ratio answers the
    # question that matters: did reads fall out of the cache-hit regime
    # and onto the solve path?  (1.0 = both comfortably under the
    # floor; the quiesce variant sits far above it either way.)
    floor = 0.1 * mean_solve
    p95_ratio = (max(incremental["p95_read_seconds"], floor)
                 / max(read_only["p95_read_seconds"], floor))
    p95_speedup = (quiesce["p95_read_seconds"]
                   / max(incremental["p95_read_seconds"], floor))
    return {
        "kind": DYNAMIC_BENCH_KIND,
        "graph": {"n": graph.n, "m": graph.m},
        "accuracy": {"eps": accuracy.eps, "delta": accuracy.delta,
                     "p_f": accuracy.p_f},
        "solve_margin": float(solve_margin),
        "workload": {
            "unique_sources": len(sources),
            "sources": sources,
            "rounds": rounds,
            "write_every": write_every,
            "write_fraction": (1.0 / (write_every + 1)
                               if write_every > 0 else 0.0),
            "mutation_site": {"u": site, "v": partner,
                              "out_degree": int(graph.out_degree(site))},
            "mean_solve_seconds": mean_solve,
            "grace_seconds": grace,
            "seed": seed,
        },
        "workers": num_workers,
        "read_only": read_only,
        "quiesce": quiesce,
        "incremental": incremental,
        "retention_rate": retention_rate,
        "p95_ratio_vs_read_only": p95_ratio,
        "p95_speedup_vs_quiesce": p95_speedup,
        "retained_within_contract":
            incremental["retained_within_contract"],
        "contract_checks": incremental["contract_checks"],
    }


# ----------------------------------------------------------------------
# Scale bench: streaming ingestion peak memory vs the in-RAM loader
# ----------------------------------------------------------------------
SCALE_BENCH_KIND = "repro-scale-bench"

#: Subprocess body for one measured load.  Each variant runs in a fresh
#: interpreter so its peak RSS is attributable: ``VmHWM`` (the process
#: high-water mark) is read right after the imports and again after the
#: load, and the delta is the memory the load itself needed.
_SCALE_WORKER = r"""
import json
import sys

from repro.graph.io import (
    graph_digest, ingest_edge_list, load_mmap, read_edge_list,
)


def _vm(field):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field} not in /proc/self/status")


def main():
    mode, src, out = sys.argv[1], sys.argv[2], sys.argv[3]
    baseline = _vm("VmHWM:")
    if mode == "inram":
        graph = read_edge_list(src)
    elif mode == "stream":
        graph = ingest_edge_list(src, out)
    elif mode == "mmap":
        graph = load_mmap(out)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    peak = _vm("VmHWM:")
    print(json.dumps({
        "mode": mode,
        "n": graph.n,
        "m": graph.m,
        "digest": graph_digest(graph),
        "rss_delta_bytes": max(peak - baseline, 0),
        "resident_bytes": graph.resident_bytes,
    }))


main()
"""


def write_random_edges(path, *, nodes, edges, seed=0, chunk=1 << 20):
    """Write a deterministic random edge list in bounded-memory chunks.

    The file is plain ``source target`` text, the same format
    :func:`repro.graph.io.read_edge_list` and
    :func:`repro.graph.io.ingest_edge_list` parse, so both loaders see
    identical input.  Duplicate edges and self-loops are left in on
    purpose -- deduplication is part of the work being measured.
    """
    if nodes < 2 or edges < 1:
        raise ParameterError(
            f"need nodes >= 2 and edges >= 1, got {nodes}, {edges}"
        )
    rng = np.random.default_rng(seed)
    remaining = int(edges)
    with open(path, "w") as fh:
        while remaining > 0:
            count = min(int(chunk), remaining)
            arr = rng.integers(0, nodes, size=(count, 2))
            fh.write(("%d %d\n" * count) % tuple(arr.ravel()))
            remaining -= count


def _run_scale_worker(mode, src, out):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = pkg_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tic = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SCALE_WORKER, mode, str(src), str(out)],
        capture_output=True, text=True, env=env, check=False,
    )
    elapsed = time.perf_counter() - tic
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale worker ({mode}) failed: {proc.stderr.strip()}"
        )
    doc = json.loads(proc.stdout)
    doc["seconds"] = elapsed
    return doc


def scale_benchmark(*, nodes=100_000, edges=1_000_000, seed=0,
                    workdir=None):
    """Peak-memory comparison: in-RAM edge-list load vs streaming ingest.

    Generates a deterministic ``edges``-line edge list, then loads it
    two ways, each in a **fresh subprocess** so peak RSS is
    attributable to the load alone:

    * ``inram`` -- :func:`repro.graph.io.read_edge_list` (edge array +
      ``from_edges`` sort, everything resident);
    * ``stream`` -- :func:`repro.graph.io.ingest_edge_list` (two-pass
      counting-sort directly into the ``.rcsr`` mmap file, bounded
      peak memory).

    A third subprocess maps the ingested file back
    (:func:`repro.graph.io.load_mmap`) to show the near-zero resident
    cost of re-serving an already-ingested graph.

    Returns a JSON-safe dict (``kind = "repro-scale-bench"``) whose
    headline number is ``memory_advantage`` -- the in-RAM loader's RSS
    delta over the streaming ingester's (higher is better; the CI scale
    job gates on it).  ``digest_match`` certifies both loaders built
    byte-identical CSR (see docs/scale.md).
    """
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        src = Path(tmp) / "edges.txt"
        out = Path(tmp) / "graph.rcsr"
        tic = time.perf_counter()
        write_random_edges(src, nodes=nodes, edges=edges, seed=seed)
        gen_seconds = time.perf_counter() - tic
        stream = _run_scale_worker("stream", src, out)
        inram = _run_scale_worker("inram", src, out)
        remap = _run_scale_worker("mmap", src, out)
        file_bytes = out.stat().st_size
        edge_file_bytes = src.stat().st_size

    digest_match = (inram["digest"] == stream["digest"]
                    == remap["digest"])
    advantage = (inram["rss_delta_bytes"]
                 / max(stream["rss_delta_bytes"], 1))
    return {
        "kind": SCALE_BENCH_KIND,
        "workload": {
            "nodes": int(nodes), "edges_written": int(edges),
            "seed": int(seed),
            "edge_file_bytes": edge_file_bytes,
            "generate_seconds": gen_seconds,
        },
        "graph": {"n": inram["n"], "m": inram["m"],
                  "rcsr_bytes": file_bytes},
        "inram": inram,
        "stream": stream,
        "mmap": remap,
        "digest_match": bool(digest_match),
        "memory_advantage": float(advantage),
    }
