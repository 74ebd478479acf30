"""Traced ``repro-serve``: span timers around each layer's public functions.

Usage::

    python3 perfbench/traced_serve.py SPANS.json -- <repro-serve arguments>

Before handing control to :func:`repro.server.app.main`, every function
named in ``install`` is replaced at the name its caller resolves (a
module global for ``from x import f`` callers, a module attribute for
call-time imports, a class attribute for methods).  Each wrapper records
one span ``(layer, start, duration, self)`` in memory, where *self* is the
duration minus the time covered by nested spans on the same thread;
events that only need counting are zero-length ``count.*`` spans.  The
spans are written to ``SPANS.json`` once the server has drained after
SIGTERM.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer):
        """Open a span; returns a token for :meth:`leave` (or None when a
        span of the same layer is already open on this thread)."""
        stack = self._stack()
        if any(frame[0] == layer for frame in stack):
            return None
        frame = [layer, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def leave(self, frame):
        if frame is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][1] += duration
        # list.append is atomic under the GIL; no lock on the hot path.
        self.spans.append((frame[0], frame[2], duration,
                           duration - frame[1]))

    def wrap(self, layer, fn, *, when=None, observe=None):
        """``fn`` timed as ``layer``; ``when(*args)`` false skips the span,
        ``observe(result)`` sees every result."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = (self.enter(layer) if when is None or when(*args, **kwargs)
                     else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if observe is not None:
                observe(result)
            return result
        return timed

    def count(self, event):
        self.spans.append((event, time.perf_counter(), 0.0, 0.0))

    def dump(self, path):
        Path(path).write_text(json.dumps({"spans": self.spans}))


class _TimedEnter:
    """Context manager whose ``__enter__`` (the wait) is one span."""

    __slots__ = ("_cm", "_tracer")

    def __init__(self, cm, tracer):
        self._cm = cm
        self._tracer = tracer

    def __enter__(self):
        frame = self._tracer.enter("serving.gate_wait")
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.leave(frame)

    def __exit__(self, *exc_info):
        return self._cm.__exit__(*exc_info)


def install(tracer):
    """Patch every traced entry point; returns nothing."""
    from repro.serving.epoch import EpochGate

    # import_module: some package __init__s re-export a function under
    # its submodule's name (repro.core.resacc, repro.core.powerpush).
    (powerpush, remedy, resacc, topk_solver, catalog, dynamic, kernels, app,
     walks) = (importlib.import_module(f"repro.{name}") for name in (
        "core.powerpush", "core.remedy", "core.resacc", "core.topk_solver",
        "datasets.catalog", "graph.dynamic", "push.kernels", "server.app",
        "walks.engine"))

    wrap = tracer.wrap

    # server: the engine call each handler hands to the dispatch pool,
    # and response encoding (handlers resolve app.json_body).
    original_in_pool = app.SSRWRServer._in_pool

    async def _in_pool(self, fn):
        return await original_in_pool(self, wrap("server.engine_call", fn))

    app.SSRWRServer._in_pool = _in_pool
    app.json_body = wrap("server.encode", app.json_body)

    # serving: time to enter the epoch gate (readers wait for writers,
    # writers wait for readers to drain).
    for name in ("read", "write"):
        original = getattr(EpochGate, name)

        def gate(self, _original=original):
            return _TimedEnter(_original(self), tracer)

        setattr(EpochGate, name, gate)

    # core: ResAcc phases as resolved inside repro.core.resacc.
    resacc.h_hop_forward = wrap("core.hhop", resacc.h_hop_forward)
    resacc.omfwd = wrap("core.omfwd", resacc.omfwd)
    resacc.remedy = wrap("core.remedy", resacc.remedy)

    def count_topk(answer):
        tracer.count("count.topk_attempt")
        if answer.path == "topk":
            tracer.count("count.topk_certified")

    # The engine imports these at call time from their modules.
    topk_solver.answer_top_k = wrap("core.topk", topk_solver.answer_top_k,
                                    observe=count_topk)
    powerpush.powerpush = wrap("core.powerpush", powerpush.powerpush)
    powerpush.powerpush_batch = wrap("core.powerpush_batch",
                                     powerpush.powerpush_batch)

    # push: the blocked power kernel, and building per-snapshot push
    # state (attaching the cache, then its lazily built arrays).
    powerpush.power_block_loop = wrap("push.power_block",
                                      powerpush.power_block_loop)

    def no_cache_yet(graph, *args, **kwargs):
        return getattr(graph, "_push_cache", None) is None

    kernels.get_push_cache = wrap("push.cache_build", kernels.get_push_cache,
                                  when=no_cache_yet)
    powerpush.get_push_cache = wrap("push.cache_build",
                                    powerpush.get_push_cache,
                                    when=no_cache_yet)
    cache_cls = kernels.SnapshotPushCache
    cache_cls.thresholds = wrap(
        "push.cache_build", cache_cls.thresholds,
        when=lambda self, r_max: float(r_max) not in self._thresholds)
    cache_cls.transpose_operator = wrap(
        "push.cache_build", cache_cls.transpose_operator,
        when=lambda self: self._transpose is None)
    cache_cls.power_operator = wrap(
        "push.cache_build", cache_cls.power_operator,
        when=lambda self, alpha: float(alpha) not in self._power_ops)

    # walks: remedy's sampler and the top-k fast path's walk batches
    # (both end in walk_terminal_mass; nested same-layer spans merge).
    remedy.residue_weighted_walks = wrap("walks", remedy.residue_weighted_walks)
    walks.walk_terminal_mass = wrap("walks", walks.walk_terminal_mass)

    # graph: single-edge CSR splices on mutation, and the dataset load.
    dynamic.insert_edge = wrap("graph.splice", dynamic.insert_edge)
    dynamic.delete_edge = wrap("graph.splice", dynamic.delete_edge)
    catalog.load = wrap("graph.load", catalog.load)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_serve.py SPANS.json -- <repro-serve args>",
              file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.server import app

    code = app.main(serve_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
