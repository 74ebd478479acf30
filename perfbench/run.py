"""End-to-end HTTP benchmark of ``repro-serve``, with a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-write --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # every workload

The server runs as its own process (the ``repro-serve`` entry point,
``repro.server.app.main``, with ``--port 0``) and this process is the
only client, over two keep-alive connections.  A run is:

1. set-up, timed ``SETUPS`` times: server spawn to the first 200 from
   ``/readyz`` (imports, graph load or map, engine construction); the
   last server stays up;
2. an untimed warm-up of ``warmup_ops`` requests;
3. a closed loop for ``CLOSED_SHARE`` of ``--seconds`` (throughput);
4. an open loop for the rest, evenly spaced arrivals at the workload's
   fixed ``open_rate``, each request timed from when it was due
   (latency);
5. off the clock: the first answers of each phase and op kind, and every
   mutation, are compared with an in-process reference solve
   (``checker.py``).  A run is correct only if no timed op failed and
   every op kind of every timed phase had an answer checked.

With ``--trace 1`` the same workload runs once against plain
``repro-serve`` (closed loop only, the tracing-overhead baseline) and
once against ``traced_serve.py``, and the run reports per-layer metrics
and prints the per-layer self-time breakdown of the round trip.

Workloads, their server flags, op mixes, source distributions, open-loop
rates, tail percentiles and the layer predictions live in
``workloads.json``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MANIFEST = json.loads((HERE / "workloads.json").read_text())

SETUPS = 5              # servers started per run; setup_s is their median
CLOSED_SHARE = 0.3      # share of --seconds spent in the closed loop
STARTUP_TIMEOUT = 120.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro-serve`` process on an ephemeral port."""

    def __init__(self, args, *, spans=None):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   TMPDIR=str(WORK / "tmp"))
        env.pop("REPRO_SOLVER", None)   # server defaults, not the shell's
        if spans is None:
            # What the repro-serve console script runs.
            cmd = [sys.executable, "-c", "import sys; from repro.server.app "
                   "import main; sys.exit(main())"]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   str(spans), "--"]
        cmd += [*args, "--port", "0"]
        tic = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     cwd=ROOT, text=True)
        try:
            self.port = self._read_port()
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - tic

    def _read_port(self):
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(STARTUP_TIMEOUT):
                raise RuntimeError("server did not print its port in time")
        line = self.proc.stdout.readline()
        if "port=" not in line:
            raise RuntimeError(f"server failed to start: {line!r}")
        return int(line.split("port=")[1].split()[0])

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _wait_ready(self):
        deadline = time.perf_counter() + STARTUP_TIMEOUT
        while time.perf_counter() < deadline:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.001)
        raise RuntimeError("server never became ready")

    def counters(self):
        """Unlabelled samples of the ``/metrics`` page."""
        status, page = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        values = {}
        for line in page.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().split(
                "\n"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self):
        """SIGTERM, then wait for the graceful drain."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain within 60 s") from None
        if "drained cleanly" not in out:
            raise RuntimeError(f"server exited {self.proc.returncode} "
                               f"without draining: {out!r}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# One measured run against one server
# ----------------------------------------------------------------------
def zipf_of(spec, graph):
    """The Zipf exponent of a ``"zipf"`` workload (else None): the one at
    which as many top-ranked sources as the server caches receive the
    manifest's ``zipf_head_share`` of requests."""
    if spec["sources"] != "zipf":
        return None
    from loadgen import zipf_exponent
    from repro.server.app import build_parser

    head = build_parser().parse_args(spec["server"]).cache_size
    return zipf_exponent(graph.n, head, MANIFEST["zipf_head_share"])


def measure(spec, graph, seed, seconds, *, setups, spans=None,
            closed_only=False):
    """Start servers, drive the phases; returns a dict of raw results."""
    import numpy as np

    from loadgen import LoadGenerator, OpStream

    # A Zipf workload's popularity ranking is fixed, like its graph: the
    # seed draws the requests, not which nodes are hot.  The hot nodes'
    # cold-solve cost after each invalidation otherwise moved read-write
    # throughput by up to 30% between seeds.
    rank_seed = 0 if spec["sources"] == "zipf" else seed
    order = np.random.default_rng([rank_seed, 0]).permutation(graph.n)
    exponent = zipf_of(spec, graph)

    def stream(phase):
        # Unique sources: each phase walks its own third of the order.
        return OpStream(spec, graph, order, seed=seed, phase=phase,
                        offset=(phase - 1) * graph.n // 3,
                        exponent=exponent)

    closed_s = seconds * (1.0 if closed_only else CLOSED_SHARE)
    open_stream = stream(3)
    offsets, open_ops = open_stream.schedule(float(spec["open_rate"]),
                                             seconds - closed_s)
    setup_times, server = [], None
    try:
        for i in range(setups):
            server = Server(spec["server"], spans=spans)
            setup_times.append(server.setup_s)
            if i < setups - 1:
                server.stop()
                server = None
        gen = LoadGenerator(server.port, connections=MANIFEST["connections"])
        gen.closed(stream(1), "warmup", count=int(spec["warmup_ops"]))
        before = server.counters()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        closed = gen.closed(stream(2), "closed", seconds=closed_s)
        window = closed
        if not closed_only:
            gen.open(open_stream, offsets, open_ops, "open")
            window = (closed[0], max(r.t_done for r in gen.records))
        cpu1, wall1 = time.process_time(), time.perf_counter()
        after = server.counters()
        rss = server.peak_rss_mb()
        gen.close()
        server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    return {
        "records": gen.records, "setup": setup_times, "rss_mb": rss,
        "closed": closed, "window": window, "before": before,
        "after": after, "cpu_share": (cpu1 - cpu0) / (wall1 - wall0),
    }


def check(spec, graph, records):
    """Check the answers the load generator kept; returns ``(attempted,
    failed, correct, checker)`` over the timed ops of one server's run."""
    from checker import Checker

    checker = Checker(graph, solver=spec["solver"], k=spec["k"],
                      query_top_k=spec.get("query_top_k"))
    wrong = checker.check(records)
    timed = [r for r in records if r.phase in TIMED]
    failed = sum(1 for r in timed if not r.ok or id(r) in wrong)
    covered = {(r.phase, r.op.kind) for r in timed} <= checker.covered
    return len(timed), failed, bool(timed) and not failed and covered, checker


def quantile(values, pct):
    import numpy as np

    return float(np.percentile(np.asarray(values), pct)) if values else 0.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
TIMED = ("closed", "closed-restore", "open", "open-restore")


def end_to_end(spec, res, fail_ratio):
    records = res["records"]
    start, end = res["closed"]
    ms = {}
    ms["setup_s"] = (statistics.median(res["setup"]), "s")
    ms["rss_mb"] = (res["rss_mb"], "MB")
    # Over the whole closed loop: a short window holds too few of the
    # slow ops (batches, cold solves) for its count to be steady.
    completed = sum(1 for r in records if r.phase == "closed")
    ms["throughput_ops"] = (completed / (end - start), "ops/s")
    named = {}
    for slot, kind in (("query", "query"), ("other", spec["other_op"])):
        lat = [r.latency * 1e3 for r in records
               if r.phase == "open" and r.op.kind == kind]
        tail = spec["tail_percentile"][kind]
        ms[f"{slot}_p50_ms"] = (quantile(lat, 50), "ms")
        ms[f"{slot}_tail_ms"] = (quantile(lat, tail), "ms")
        named[f"{kind}_p50_ms"] = ms[f"{slot}_p50_ms"][0]
        named[f"{kind}_p{tail}_ms"] = ms[f"{slot}_tail_ms"][0]
        named[f"{kind}_samples"] = len(lat)
    named["fail_ratio"] = fail_ratio
    return ms, named


#: Breakdown rows: span layer -> what its self time covers.
BREAKDOWN = {
    "server.encode": "JSON encode (json_body)",
    "server.engine_call": "serving: cache, single-flight, stats",
    "serving.gate_wait": "serving: epoch-gate wait",
    "core.hhop": "core: h-HopFWD",
    "core.omfwd": "core: OMFWD",
    "core.remedy": "core: remedy (excl. walks)",
    "core.topk": "core: top-k fast path (excl. walks)",
    "core.powerpush": "core: PowerPush local stage",
    "core.powerpush_batch": "core: PowerPush batch set-up",
    "push.power_block": "push: power_block_loop",
    "push.cache_build": "push: snapshot cache build",
    "walks": "walks: walk sampling",
    "graph.splice": "graph: CSR splice",
}


def per_layer(res, base, spans_doc):
    records = res["records"]
    timed = [r for r in records if r.phase in TIMED]
    ops = max(len(timed), 1)
    lo, hi = res["window"]
    total, self_time = {}, {}
    markers = {}
    load_ms = 0.0
    for layer, start, duration, own in spans_doc["spans"]:
        if layer == "graph.load":
            load_ms += duration * 1e3
            continue
        if not lo <= start <= hi:
            continue
        if layer.startswith("count."):
            markers[layer] = markers.get(layer, 0) + 1
            continue
        total[layer] = total.get(layer, 0.0) + duration
        self_time[layer] = self_time.get(layer, 0.0) + own

    def per_op(layer):
        return total.get(layer, 0.0) * 1e3 / ops

    roundtrip = sum(r.roundtrip for r in timed) * 1e3 / ops
    delta = {k: res["after"].get(k, 0.0) - res["before"].get(k, 0.0)
             for k in res["after"]}
    mutations = sum(1 for r in timed if r.op.kind == "mutate")
    queries = delta.get("repro_engine_queries_total", 0.0)
    attempts = markers.get("count.topk_attempt", 0)
    late = [r.late * 1e3 for r in records if r.phase == "open"]
    # Means, not medians: where hits and cold solves each make up about
    # half the ops, the median jumps between the two.
    traced_rt = statistics.fmean(
        r.roundtrip for r in records if r.phase == "closed") * 1e3
    base_rt = statistics.fmean(
        r.roundtrip for r in base["records"] if r.phase == "closed") * 1e3
    attributed = sum(self_time.values()) * 1e3 / ops
    m = {
        "server.roundtrip_ms": (roundtrip, "ms"),
        "server.engine_call_ms": (per_op("server.engine_call"), "ms"),
        "server.overhead_ms": (roundtrip - per_op("server.engine_call"),
                               "ms"),
        "server.encode_ms": (per_op("server.encode"), "ms"),
        "server.http_errors": (sum(1 for r in timed if not r.ok), "count"),
        "serving.cache_hit_ratio": (
            delta.get("repro_engine_cache_hits_total", 0.0)
            / max(queries, 1.0), "ratio"),
        "serving.coalesced": (delta.get("repro_engine_coalesced_total", 0.0),
                              "count"),
        "serving.solver_calls": (
            delta.get("repro_engine_solver_calls_total", 0.0) / ops, "1/op"),
        "serving.solver_ms": (
            delta.get("repro_engine_solver_seconds_total", 0.0) * 1e3 / ops,
            "ms"),
        "serving.gate_wait_ms": (per_op("serving.gate_wait"), "ms"),
        "serving.invalidations": (
            delta.get("repro_engine_invalidations_total", 0.0)
            / max(mutations, 1), "1/mutation"),
        "core.hhop_ms": (per_op("core.hhop"), "ms"),
        "core.omfwd_ms": (per_op("core.omfwd"), "ms"),
        "core.remedy_ms": (per_op("core.remedy"), "ms"),
        "core.topk_ms": (per_op("core.topk"), "ms"),
        "core.topk_fast_ratio": (
            markers.get("count.topk_certified", 0) / max(attempts, 1),
            "ratio"),
        "core.powerpush_ms": (per_op("core.powerpush"), "ms"),
        "core.powerpush_batch_ms": (per_op("core.powerpush_batch"), "ms"),
        "push.cache_build_ms": (per_op("push.cache_build"), "ms"),
        "push.power_block_ms": (per_op("push.power_block"), "ms"),
        "push.pushes": (sum(r.fields.get("pushes", 0) for r in timed) / ops,
                        "1/op"),
        "walks.walks": (sum(r.fields.get("walks_used", 0) for r in timed)
                        / ops, "1/op"),
        "walks.ms": (per_op("walks"), "ms"),
        "graph.splice_ms": (per_op("graph.splice"), "ms"),
        "graph.load_ms": (load_ms, "ms"),
        "loadgen.late_p99_ms": (quantile(late, 99), "ms"),
        "loadgen.cpu_share": (res["cpu_share"], "ratio"),
        "trace.overhead_ms": (traced_rt - base_rt, "ms"),
        "breakdown.unattributed_ms": (roundtrip - attributed, "ms"),
    }
    rows = [(label, self_time.get(layer, 0.0) * 1e3 / ops)
            for layer, label in BREAKDOWN.items()]
    rows.append(("unattributed: socket, HTTP parse, admission, pool hop, "
                 "list building", roundtrip - attributed))
    errors = {}
    for r in timed:
        if not r.ok:
            key = str(r.status) if r.status is not None else "timeout"
            errors[key] = errors.get(key, 0) + 1
    extra = {"rows": rows, "roundtrip": roundtrip, "traced_rt": traced_rt,
             "base_rt": base_rt, "errors": errors}
    return m, extra


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def prepare(spec):
    """Client-side set-up, untimed: the reference graph, and the mmap
    file the server maps (built once per checkout)."""
    from repro.datasets import catalog

    if spec.get("mmap"):
        catalog.load(spec["dataset"], mmap=True,
                     mmap_dir=WORK / "tmp" / "repro-mmap")
    return catalog.load(spec["dataset"])


def run(name, seed, seconds, trace):
    spec = MANIFEST["workloads"][name]
    graph = prepare(spec)
    if trace:
        spans = WORK / f"spans-{name}-{seed}-{os.getpid()}.json"
        base = measure(spec, graph, seed, seconds * CLOSED_SHARE, setups=1,
                       closed_only=True)
        res = measure(spec, graph, seed, seconds, setups=1, spans=spans)
        spans_doc = json.loads(spans.read_text())
        spans.unlink()
        runs = [base, res]
    else:
        res = measure(spec, graph, seed, seconds, setups=SETUPS)
        runs = [res]
    # Each server has its own epochs: check each run on its own.
    attempted, n_failed, correct, checked, mismatches = 0, 0, True, 0, []
    for one in runs:
        one_attempted, one_failed, one_correct, checker = check(
            spec, graph, one["records"])
        attempted += one_attempted
        n_failed += one_failed
        correct = correct and one_correct
        checked += checker.checked
        mismatches += checker.mismatches

    print(f"workload {name}  seed {seed}  {seconds:g} s  "
          f"server: repro-serve {' '.join(spec['server'])}")
    print(f"  why: {spec['why']}")
    if spec["sources"] == "zipf":
        print(f"  zipf exponent {zipf_of(spec, graph):.4f} (the cache-sized "
              f"head takes {MANIFEST['zipf_head_share']:.0%} of requests)")
    print(f"  checked {checked} answers, {len(mismatches)} mismatches; "
          f"{n_failed} failed timed ops of {attempted}")
    for line in mismatches[:5]:
        print(f"  MISMATCH {line}")
    if trace:
        metrics, extra = per_layer(res, base, spans_doc)
        print(f"  per-layer self time, share of server.roundtrip_ms "
              f"({extra['roundtrip']:.3f} ms/op):")
        for label, value in extra["rows"]:
            share = 100.0 * value / extra["roundtrip"]
            print(f"    {label:<62} {value:9.4f} ms {share:6.1f} %")
        print(f"  tracing overhead: closed-loop mean round trip "
              f"{extra['traced_rt']:.3f} ms traced vs "
              f"{extra['base_rt']:.3f} ms untraced")
        if extra["errors"]:
            print(f"  http errors by status: {extra['errors']}")
        late, cpu = (metrics["loadgen.late_p99_ms"][0],
                     metrics["loadgen.cpu_share"][0])
    else:
        metrics, named = end_to_end(spec, res, n_failed / max(attempted, 1))
        for key, value in named.items():
            print(f"  {key:<22} {value:12.4f}")
        late = quantile([r.late * 1e3 for r in res["records"]
                         if r.phase == "open"], 99)
        cpu = res["cpu_share"]
    for key, (value, unit) in metrics.items():
        print(f"  {key:<28} {value:14.4f} {unit}")
    if late > MANIFEST["valid_late_p99_ms"] or cpu > MANIFEST[
            "valid_cpu_share"]:
        print(f"  INVALID RUN: the load generator saturated "
              f"(late p99 {late:.2f} ms, client cpu share {cpu:.2f})")
    return {"correct": correct, "attempted": attempted, "failed": n_failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    # workloads.json fixes rates and tail percentiles for 45 s runs.
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "server" / "app.py").is_file():
        fail(f"no repro sources under {SRC}; run from a repository checkout")
    names = list(MANIFEST["workloads"])
    if args.workload == "all":
        code = 0
        for name in names:
            code |= subprocess.call([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)])
        return code
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {names}")
    sys.path[:0] = [str(SRC), str(HERE)]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
