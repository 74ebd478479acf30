"""Server metrics: counters + latency quantiles, rendered for Prometheus.

:class:`ServerMetrics` is the single sink every request handler reports
into; :meth:`ServerMetrics.families` assembles the Prometheus metric
families from three sources:

* the server's own counters (requests by endpoint/status, sheds,
  rate-limits, deadline misses) and a sliding window of request
  latencies (p50/p95 as a Prometheus *summary*);
* the engine's :class:`repro.serving.ServiceStats` (cache behaviour,
  solver calls, epoch);
* when engine tracing is on, the :mod:`repro.obs` per-phase aggregates
  (p50/p95 wall seconds per solver phase).

The text rendering itself lives in
:func:`repro.obs.export.render_prometheus` so other tools (the bench
harness, tests) can emit the same format without a server.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.obs.export import render_prometheus


class LatencyWindow:
    """Sliding window of recent request latencies with quantile readout."""

    def __init__(self, capacity=2048):
        self._samples = deque(maxlen=int(capacity))
        self._count = 0
        self._total = 0.0

    def observe(self, seconds):
        self._samples.append(float(seconds))
        self._count += 1
        self._total += float(seconds)

    @property
    def count(self):
        return self._count

    @property
    def total_seconds(self):
        return self._total

    def quantiles(self, qs=(0.5, 0.95)):
        """``{q: seconds}`` over the window (empty dict with no samples)."""
        if not self._samples:
            return {}
        arr = np.asarray(self._samples, dtype=np.float64)
        return {q: float(np.percentile(arr, 100.0 * q)) for q in qs}


class ServerMetrics:
    """Thread-safe metric sink for the HTTP service."""

    def __init__(self, *, latency_window=2048):
        self._lock = threading.Lock()
        self._requests = {}         # (endpoint, status) -> count
        self._latency = LatencyWindow(latency_window)
        self.shed_total = 0
        self.rate_limited_total = 0
        self.deadline_exceeded_total = 0
        self.mutations_total = 0
        self.topk_fast_total = 0
        self.topk_full_total = 0
        self.degraded_total = {}    # tier -> count

    def observe_request(self, endpoint, status, seconds):
        """Record one finished request (any endpoint, any status)."""
        status = int(status)
        with self._lock:
            key = (str(endpoint), status)
            self._requests[key] = self._requests.get(key, 0) + 1
            if endpoint in ("/query", "/query_batch", "/top_k"):
                self._latency.observe(seconds)
            if status == 503:
                self.shed_total += 1
            elif status == 429:
                self.rate_limited_total += 1
            elif status == 504:
                self.deadline_exceeded_total += 1

    def observe_mutation(self):
        with self._lock:
            self.mutations_total += 1

    def observe_top_k(self, path):
        """Record which solver path answered a ``/top_k`` request
        (``"topk"`` = the PowerPush envelope, ``"full"`` = full solve;
        cache hits count the path of the cached answer)."""
        with self._lock:
            if path == "topk":
                self.topk_fast_total += 1
            else:
                self.topk_full_total += 1

    def observe_degraded(self, tier):
        """Record one query answered below the exact tier (an overload
        or tight-deadline downgrade; ``tier`` is the label the response
        carried, e.g. ``"cpi"``)."""
        with self._lock:
            tier = str(tier)
            self.degraded_total[tier] = self.degraded_total.get(tier, 0) + 1

    def snapshot(self):
        """JSON-safe copy of the server-side counters (for tests/bench)."""
        with self._lock:
            quantiles = self._latency.quantiles()
            return {
                "requests": {
                    f"{endpoint} {status}": count
                    for (endpoint, status), count in
                    sorted(self._requests.items())
                },
                "query_latency": {
                    "count": self._latency.count,
                    "total_seconds": self._latency.total_seconds,
                    **{f"p{int(q * 100)}": v
                       for q, v in quantiles.items()},
                },
                "shed_total": self.shed_total,
                "rate_limited_total": self.rate_limited_total,
                "deadline_exceeded_total": self.deadline_exceeded_total,
                "mutations_total": self.mutations_total,
                "topk_fast_total": self.topk_fast_total,
                "topk_full_total": self.topk_full_total,
                "degraded_total": dict(self.degraded_total),
            }

    # ------------------------------------------------------------------
    # Prometheus assembly
    # ------------------------------------------------------------------
    def families(self, *, engine=None, inflight=0, ready=True):
        """Metric-family dicts for :func:`render_prometheus`."""
        with self._lock:
            request_samples = [
                ("", {"endpoint": endpoint, "status": str(status)}, count)
                for (endpoint, status), count in
                sorted(self._requests.items())
            ]
            latency_quantiles = self._latency.quantiles()
            latency_count = self._latency.count
            latency_total = self._latency.total_seconds
            shed = self.shed_total
            limited = self.rate_limited_total
            deadline_http = self.deadline_exceeded_total
            mutations = self.mutations_total
            topk_paths = [("", {"path": "topk"}, self.topk_fast_total),
                          ("", {"path": "full"}, self.topk_full_total)]
            degraded = [("", {"tier": tier}, count)
                        for tier, count in sorted(self.degraded_total.items())]

        latency_samples = [
            ("", {"quantile": f"{q:g}"}, seconds)
            for q, seconds in sorted(latency_quantiles.items())
        ]
        latency_samples += [
            ("_count", None, latency_count),
            ("_sum", None, latency_total),
        ]
        families = [
            {"name": "repro_http_requests_total", "type": "counter",
             "help": "HTTP requests served, by endpoint and status.",
             "samples": request_samples},
            {"name": "repro_http_query_latency_seconds", "type": "summary",
             "help": "Query-endpoint latency over a sliding window.",
             "samples": latency_samples},
            {"name": "repro_http_shed_total", "type": "counter",
             "help": "Requests shed by admission control (503).",
             "samples": [("", None, shed)]},
            {"name": "repro_http_rate_limited_total", "type": "counter",
             "help": "Requests rejected by the per-client limiter (429).",
             "samples": [("", None, limited)]},
            {"name": "repro_http_deadline_exceeded_total", "type": "counter",
             "help": "Requests answered 504 after their deadline expired.",
             "samples": [("", None, deadline_http)]},
            {"name": "repro_http_mutations_total", "type": "counter",
             "help": "Successful graph mutations applied over HTTP.",
             "samples": [("", None, mutations)]},
            {"name": "repro_http_top_k_answers_total", "type": "counter",
             "help": "/top_k answers by solver path (topk = PowerPush "
                     "envelope, full = full solve).",
             "samples": topk_paths},
            {"name": "repro_http_degraded_answers_total", "type": "counter",
             "help": "Queries answered by a degraded tier instead of "
                     "being shed (503) or timed out (504), by tier.",
             "samples": degraded},
            {"name": "repro_http_inflight", "type": "gauge",
             "help": "Requests admitted and not yet answered.",
             "samples": [("", None, inflight)]},
            {"name": "repro_http_ready", "type": "gauge",
             "help": "1 while serving, 0 while draining or mutating.",
             "samples": [("", None, 1 if ready else 0)]},
        ]
        if engine is not None:
            families += _engine_families(engine)
        return families

    def render(self, *, engine=None, inflight=0, ready=True):
        """The full ``/metrics`` page (Prometheus text format)."""
        return render_prometheus(
            self.families(engine=engine, inflight=inflight, ready=ready)
        )


def _engine_families(engine):
    """Families drawn from the engine: ServiceStats, epoch, phase times."""
    stats = engine.stats
    families = [
        {"name": "repro_graph_epoch", "type": "gauge",
         "help": "Current graph epoch (bumped by every mutation).",
         "samples": [("", None, engine.epoch)]},
        {"name": "repro_engine_queries_total", "type": "counter",
         "help": "Queries answered by the engine.",
         "samples": [("", None, stats.queries)]},
        {"name": "repro_engine_cache_hits_total", "type": "counter",
         "help": "Queries served from the result cache.",
         "samples": [("", None, stats.cache_hits)]},
        {"name": "repro_engine_cache_misses_total", "type": "counter",
         "help": "Queries that computed a fresh result.",
         "samples": [("", None, stats.cache_misses)]},
        {"name": "repro_engine_coalesced_total", "type": "counter",
         "help": "Queries that joined another caller's in-flight compute.",
         "samples": [("", None, stats.coalesced)]},
        {"name": "repro_engine_deadline_exceeded_total", "type": "counter",
         "help": "Queries cancelled cooperatively at a phase boundary.",
         "samples": [("", None, stats.deadline_exceeded)]},
        {"name": "repro_engine_solver_calls_total", "type": "counter",
         "help": "Actual solver invocations (post-dedup).",
         "samples": [("", None, stats.solver_calls)]},
        {"name": "repro_engine_solver_seconds_total", "type": "counter",
         "help": "Wall seconds spent inside the solver.",
         "samples": [("", None, stats.solver_seconds)]},
        {"name": "repro_engine_worker_restarts_total", "type": "counter",
         "help": "Solver-pool respawns after a worker process crash "
                 "(multi-process engine only).",
         "samples": [("", None, stats.worker_restarts)]},
        {"name": "repro_engine_topk_queries_total", "type": "counter",
         "help": "Top-k queries answered (cache hits included).",
         "samples": [("", None, stats.topk_queries)]},
        {"name": "repro_engine_topk_unseparated_total", "type": "counter",
         "help": "Computed top-k envelope answers whose set is not "
                 "certified.",
         "samples": [("", None, stats.topk_unseparated)]},
        {"name": "repro_engine_updates_total", "type": "counter",
         "help": "Graph mutations applied by the engine.",
         "samples": [("", None, stats.updates)]},
        {"name": "repro_engine_invalidations_total", "type": "counter",
         "help": "Cache entries dropped by mutations/flushes.",
         "samples": [("", None, stats.invalidations)]},
        {"name": "repro_engine_entries_retained_total", "type": "counter",
         "help": "Cache entries kept across mutations because their "
                 "offset bound still met the accuracy contract "
                 "(incremental engines only).",
         "samples": [("", None, stats.entries_retained)]},
        {"name": "repro_engine_entries_repaired_total", "type": "counter",
         "help": "Evicted entries recomputed in the background after a "
                 "mutation (incremental engines only).",
         "samples": [("", None, stats.entries_repaired)]},
        {"name": "repro_engine_tier_downgrades_total", "type": "counter",
         "help": "Queries answered by the degraded CPI tier "
                 "(query_cheap calls; see docs/scale.md).",
         "samples": [("", None, stats.tier_downgrades)]},
    ]
    graph = getattr(engine, "graph", None)
    resident = getattr(graph, "resident_bytes", None)
    if resident is not None:
        families.append({
            "name": "repro_graph_resident_bytes", "type": "gauge",
            "help": "Graph state held in anonymous RAM (file-backed "
                    "mmap pages excluded; see docs/scale.md).",
            "samples": [("", None, resident)],
        })
    summary = engine.trace_summary() if getattr(
        engine, "_trace_enabled", False) else None
    if summary:
        samples = []
        for phase, entry in summary["phases"].items():
            for quantile, key in ((0.5, "p50_seconds"),
                                  (0.95, "p95_seconds")):
                if key in entry:
                    samples.append((
                        "",
                        {"phase": phase, "quantile": f"{quantile:g}"},
                        entry[key],
                    ))
            samples.append(("_count", {"phase": phase}, entry["count"]))
            samples.append(("_sum", {"phase": phase},
                            entry["total_seconds"]))
        families.append({
            "name": "repro_phase_seconds", "type": "summary",
            "help": "Per-phase solver wall seconds (traced queries).",
            "samples": samples,
        })
    return families
