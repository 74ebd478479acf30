"""Off-the-clock answer checker: in-process reference solves.

Every sampled response is compared with the solver run in this process
on the graph as of the epoch the response reports, with the engine's
seed rule (``seed + source``).  The graph at epoch ``E`` is rebuilt from
the start graph by replaying the ``/mutate`` log in the order of the
epochs those responses returned, through :class:`GraphBuilder` rather
than the CSR splices the server uses.

A query's epoch field is read after its solve, so a mutation landing in
between makes the field newer than the snapshot that was solved.  Any
epoch from the newest one already confirmed when the request was sent
up to the reported one is therefore accepted; an answer older than that
floor is a stale cache entry and fails.
"""

from __future__ import annotations

import json

import numpy as np

#: repro-serve's default ``--seed``, the base of the engine's seed rule.
ENGINE_SEED = 0


class Checker:
    """Reference answers for one workload's server configuration."""

    def __init__(self, graph, *, solver, k, query_top_k):
        self._base = graph
        self._solver = solver
        self._k = int(k)
        self._query_top_k = query_top_k
        self._log = []          # (epoch, op, u, v) from mutate responses
        self._graphs = {0: graph}
        self._answers = {}
        self.checked = 0
        self.covered = set()    # (phase, op kind) with an answer checked
        self.mismatches = []

    # -- graph at an epoch -------------------------------------------------
    def _graph_at(self, epoch):
        if epoch not in self._graphs:
            from repro.graph.builder import GraphBuilder

            editor = GraphBuilder(graph=self._base)
            for applied, op, u, v in self._log:
                if applied > epoch:
                    break
                if op == "add_edge":
                    editor.add_edge(u, v, grow=True)
                else:
                    editor.remove_edge(u, v)
            self._graphs[epoch] = editor.build()
        return self._graphs[epoch]

    # -- reference solves --------------------------------------------------
    def _full(self, source, epoch):
        key = ("full", source, epoch)
        if key not in self._answers:
            from repro.core.params import AccuracyParams

            graph = self._graph_at(epoch)
            accuracy = AccuracyParams.paper_defaults(graph.n)
            if self._solver == "powerpush":
                from repro.core.powerpush import powerpush

                result = powerpush(graph, source, accuracy=accuracy)
            else:
                from repro.core.resacc import resacc

                result = resacc(graph, source, accuracy=accuracy,
                                seed=ENGINE_SEED + source)
            self._answers[key] = result
        return self._answers[key]

    def _topk(self, source, epoch):
        key = ("topk", source, epoch)
        if key not in self._answers:
            from repro.core.params import AccuracyParams
            from repro.core.topk_solver import answer_top_k

            graph = self._graph_at(epoch)
            self._answers[key] = answer_top_k(
                graph, source, self._k,
                accuracy=AccuracyParams.paper_defaults(graph.n),
                seed=ENGINE_SEED + source, mode="auto",
            )
        return self._answers[key]

    def _matches(self, kind, doc, source, epoch):
        if kind == "topk":
            ref = self._topk(source, epoch)
            return (doc["nodes"] == [int(v) for v in ref.nodes]
                    and doc["values"] == [float(v) for v in ref.values])
        result = self._full(source, epoch)
        if kind == "query" and self._query_top_k:
            nodes, values = result.top_k(int(self._query_top_k))
            return (doc["nodes"] == [int(v) for v in nodes]
                    and doc["values"] == [float(v) for v in values])
        return np.array_equal(np.asarray(doc["estimates"], dtype=np.float64),
                              result.estimates)

    # -- entry point -------------------------------------------------------
    def check(self, records):
        """Check ``records``; returns the set of ids of failed records."""
        failed = set()
        mutations = sorted(
            (r for r in records if r.op.kind == "mutate" and r.ok),
            key=lambda r: r.fields.get("epoch", -1),
        )
        for rec in mutations:
            doc = json.loads(rec.body)
            op, u, v = rec.op.edge
            self._count(rec)
            # Each effective edit advances the epoch by exactly one.
            if (not doc.get("changed") or doc.get("op") != op
                    or doc.get("epoch") != len(self._log) + 1):
                self._mismatch(rec, f"mutation {op} {u}->{v} answered {doc}")
                failed.add(id(rec))
                continue
            self._log.append((doc["epoch"], op, u, v))
        for rec in records:
            if rec.op.kind == "mutate" or rec.body is None:
                continue
            self._count(rec)
            doc = json.loads(rec.body)
            reported = int(doc.get("epoch", -1))
            epochs = range(reported, rec.epoch_floor - 1, -1)
            if rec.op.kind == "batch":
                items = doc.get("results") or []
                ok = (len(items) == len(rec.op.sources) and not doc["errors"]
                      and all(item and item["source"] == s and any(
                          self._matches("full", item, s, e) for e in epochs)
                          for item, s in zip(items, rec.op.sources)))
            else:
                source = rec.op.sources[0]
                ok = (doc.get("source") == source and any(
                    self._matches(rec.op.kind, doc, source, e)
                    for e in epochs))
            if not ok:
                self._mismatch(rec, f"{rec.op.kind} {rec.op.sources} at "
                                    f"epoch {reported} differs from the "
                                    f"reference")
                failed.add(id(rec))
        return failed

    def _count(self, rec):
        self.checked += 1
        self.covered.add((rec.phase, rec.op.kind))

    def _mismatch(self, rec, message):
        self.mismatches.append(f"[{rec.phase}] {message}")
