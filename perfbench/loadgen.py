"""Seeded operation streams and a two-connection HTTP load generator.

One client process drives the server over at most two keep-alive
connections (``http.client``), one thread each.  Every response is read
to its last byte on the clock; JSON is decoded later, off the clock, and
only for the responses the answer checker samples.

* :func:`zipf_exponent` derives the Zipf exponent of the popular-source
  workloads from the share of requests the cache-sized head receives.
* :class:`OpStream` turns a workload manifest entry and a seed into a
  deterministic sequence of requests (op kind, source(s), payload).
* :meth:`LoadGenerator.closed` runs a closed loop: each connection sends its
  next request when the previous one completes.
* :meth:`LoadGenerator.open` runs an open loop over a precomputed arrival
  schedule and times each request from when it was due.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time

import numpy as np

_FIELDS = {name: re.compile(rb'"%s":(-?\d+)' % name.encode())
           for name in ("epoch", "pushes", "walks_used")}
_HEADERS = {"Content-Type": "application/json"}

ENDPOINTS = {"query": "/query", "topk": "/top_k", "mutate": "/mutate",
             "batch": "/query_batch"}

#: Answers kept for the checker per (phase, op kind); a batch keeps one
#: answer per source.  Every mutation is kept: the checker replays them.
CHECK_CAP = 16


def zipf_exponent(n, head, share):
    """The exponent ``s`` at which ranks ``1..head`` of a Zipf law over
    ``n`` ranks (P(rank r) ~ r**-s) receive ``share`` of all requests."""
    ranks = np.arange(1, n + 1, dtype=float)
    lo, hi = 0.0, 8.0
    for _ in range(60):     # the head's share grows with s
        s = (lo + hi) / 2
        weights = ranks ** -s
        if weights[:head].sum() / weights.sum() < share:
            lo = s
        else:
            hi = s
    return (lo + hi) / 2


class Op:
    """One request of a workload's stream."""

    __slots__ = ("kind", "path", "body", "sources", "edge", "mutation")

    def __init__(self, kind, payload, *, sources, edge=None, mutation=None):
        self.kind = kind
        self.path = ENDPOINTS[kind]
        self.body = json.dumps(payload, separators=(",", ":")).encode()
        self.sources = sources
        self.edge = edge            # (op, u, v) for mutations
        self.mutation = mutation    # index among this phase's mutations


class Record:
    """What the client saw for one op (times are ``perf_counter``)."""

    __slots__ = ("op", "phase", "due", "t_send", "t_done", "late", "status",
                 "body", "fields", "epoch_floor")

    @property
    def latency(self):
        """Seconds from when the request was due (open loop) or sent."""
        start = self.due if self.due is not None else self.t_send
        return self.t_done - start

    @property
    def roundtrip(self):
        return self.t_done - self.t_send

    @property
    def ok(self):
        return self.status == 200


class OpStream:
    """Deterministic request stream for one phase of one workload.

    ``order`` is a node permutation shared by every phase: the Zipf
    rank-to-node map (so the hot set is the same in warm-up and in the
    timed phases), or the visiting order for ``"unique"`` sources, where
    each phase starts at its own ``offset`` so phases never share a
    source.  ``exponent`` is the Zipf exponent of ``"zipf"`` sources.
    """

    def __init__(self, spec, graph, order, *, seed, phase, offset=0,
                 exponent=None):
        self._spec = spec
        self._graph = graph
        self._order = order
        self._rng = np.random.default_rng([seed, phase])
        self._cursor = offset
        # The mix is a block of op counts, shuffled per block: every
        # block holds the exact mix, so short runs do not drift from it.
        self._block = [kind for kind, count in sorted(spec["mix"].items())
                       for _ in range(int(count))]
        self._queue = []
        if spec["sources"] == "zipf":
            ranks = np.arange(1, graph.n + 1, dtype=float)
            cdf = np.cumsum(ranks ** -float(exponent))
            self._cdf = cdf / cdf[-1]
        self._pending_remove = None
        self._mutations = 0

    def _source(self):
        if self._spec["sources"] == "zipf":
            rank = int(np.searchsorted(self._cdf, self._rng.random()))
            return int(self._order[min(rank, len(self._order) - 1)])
        source = int(self._order[self._cursor % len(self._order)])
        self._cursor += 1
        return source

    def _non_edge(self):
        graph = self._graph
        while True:
            u, v = (int(x) for x in self._rng.integers(0, graph.n, size=2))
            row = graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
            if u != v and not np.any(row == v):
                return u, v

    def _mutation(self):
        """Alternate add of a fresh non-edge and its removal, so every
        pair returns n and m to their start values."""
        if self._pending_remove is None:
            u, v = self._non_edge()
            self._pending_remove = (u, v)
            edge = ("add_edge", u, v)
        else:
            u, v = self._pending_remove
            self._pending_remove = None
            edge = ("remove_edge", u, v)
        return edge

    def closing_ops(self):
        """The removal that restores the start graph, if one is owed."""
        if self._pending_remove is None:
            return []
        return [self._make("mutate")]

    def next(self):
        if not self._queue:
            self._queue = [self._block[i] for i in
                           self._rng.permutation(len(self._block))]
        return self._make(self._queue.pop())

    def _make(self, kind):
        spec = self._spec
        if kind == "mutate":
            op, u, v = self._mutation()
            index = self._mutations
            self._mutations += 1
            return Op(kind, {"op": op, "u": u, "v": v}, sources=(),
                      edge=(op, u, v), mutation=index)
        if kind == "batch":
            sources = []
            while len(sources) < int(spec["batch_size"]):
                s = self._source()
                if s not in sources:
                    sources.append(s)
            return Op(kind, {"sources": sources}, sources=tuple(sources))
        source = self._source()
        if kind == "topk":
            payload = {"source": source, "k": int(spec["k"])}
        else:
            payload = {"source": source}
            if spec.get("query_top_k"):
                payload["top_k"] = int(spec["query_top_k"])
        return Op(kind, payload, sources=(source,))

    def schedule(self, rate, seconds):
        """Evenly spaced arrivals at ``rate``/s over ``seconds``:
        ``(offsets, ops)``.  Only the ops depend on the seed, so queueing
        comes from service times, not from the arrival draw."""
        count = int(round(rate * seconds))
        return ([i / rate for i in range(count)],
                [self.next() for _ in range(count)])


class LoadGenerator:
    """Issues ops over ``connections`` keep-alive connections.

    Mutations of a phase are sent strictly in stream order (each waits
    for the previous one's response), so an add and its removal can
    never be reordered across connections.
    """

    def __init__(self, port, *, connections=2, timeout=60.0):
        self._conns = [http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=timeout)
                       for _ in range(connections)]
        self.records = []
        self._lock = threading.Lock()
        self._turn = threading.Condition()
        self._mutations_done = 0
        self._epoch_floor = 0
        self._kept = {}

    def close(self):
        for conn in self._conns:
            conn.close()

    def _keep(self, op, phase):
        """Whether a 200 body goes to the checker: every mutation, and
        the first ``CHECK_CAP`` answers of each (phase, op kind)."""
        if op.mutation is not None:
            return True
        key = (phase, op.kind)
        with self._lock:
            kept = self._kept.get(key, 0)
            if kept >= CHECK_CAP:
                return False
            self._kept[key] = kept + len(op.sources)
        return True

    def _issue(self, conn, op, phase, due=None, late=0.0):
        if op.mutation is not None:
            with self._turn:
                while self._mutations_done < op.mutation:
                    self._turn.wait()
        floor = self._epoch_floor
        t_send = time.perf_counter()
        try:
            conn.request("POST", op.path, op.body, _HEADERS)
            response = conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            conn.close()    # the next request opens a fresh connection
            status, body = None, b""
        t_done = time.perf_counter()
        rec = Record()
        rec.op, rec.phase, rec.due, rec.late = op, phase, due, late
        rec.t_send, rec.t_done, rec.status = t_send, t_done, status
        # The newest epoch a mutation response had confirmed before this
        # request was sent: no correct answer can be older.
        rec.epoch_floor = floor
        # A batch answer carries only the epoch, first; searching it for
        # the solve counters would scan every estimate vector.
        names = ("epoch",) if op.kind == "batch" else _FIELDS
        rec.fields = {name: int(m.group(1)) for name in names
                      if (m := _FIELDS[name].search(body))}
        rec.body = body if status == 200 and self._keep(op, phase) else None
        if op.mutation is not None:
            with self._turn:
                self._mutations_done += 1
                if status == 200 and "epoch" in rec.fields:
                    self._epoch_floor = max(self._epoch_floor,
                                            rec.fields["epoch"])
                self._turn.notify_all()
        with self._lock:
            self.records.append(rec)
        return rec

    def _start_phase(self):
        with self._turn:
            self._mutations_done = 0

    def _run(self, worker):
        threads = [threading.Thread(target=worker, args=(conn,))
                   for conn in self._conns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def closed(self, stream, phase, *, seconds=None, count=None):
        """Closed loop for ``seconds`` or ``count`` ops; returns the
        ``(start, end)`` window (end = when the last op completed)."""
        self._start_phase()
        state = {"issued": 0}
        start = time.perf_counter()
        stop = start + seconds if seconds is not None else None

        def worker(conn):
            while True:
                with self._lock:
                    if count is not None and state["issued"] >= count:
                        return
                    if stop is not None and time.perf_counter() >= stop:
                        return
                    state["issued"] += 1
                    op = stream.next()
                self._issue(conn, op, phase)

        self._run(worker)
        self._restore(stream, phase)
        end = max([r.t_done for r in self.records if r.phase == phase],
                  default=start)
        return start, end

    def open(self, stream, offsets, ops, phase):
        """Open loop: op ``i`` is due ``offsets[i]`` seconds after start.
        Returns the ``(start, end)`` window like :meth:`closed`."""
        self._start_phase()
        t0 = time.perf_counter() + 0.005
        dues = [t0 + off for off in offsets]
        state = {"next": 0}

        def worker(conn):
            while True:
                with self._lock:
                    i = state["next"]
                    if i >= len(ops):
                        return
                    state["next"] = i + 1
                free = time.perf_counter()
                if dues[i] > free:
                    time.sleep(dues[i] - free)
                late = time.perf_counter() - max(dues[i], free)
                self._issue(conn, ops[i], phase, due=dues[i], late=late)

        self._run(worker)
        self._restore(stream, phase)
        end = max([r.t_done for r in self.records if r.phase == phase],
                  default=t0)
        return t0, end

    def _restore(self, stream, phase):
        """Undo a phase's unpaired add, outside the timed window."""
        for op in stream.closing_ops():
            self._issue(self._conns[0], op, phase + "-restore")
