"""Command-line entry point: regenerate any paper table or figure.

Examples::

    repro-bench list
    repro-bench run table3 --fast
    repro-bench run fig4 --scale 0.5 --sources 10
    repro-bench run all --fast
    repro-bench query dblp 0 --top 5 --trace
    repro-bench query pokec 42 --scale 0.25 --trace-json trace.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import ALL_EXPERIMENTS, BenchConfig, render_all
from repro.errors import ParameterError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the ResAcc paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    datasets_cmd = sub.add_parser(
        "datasets", help="describe the dataset catalog"
    )
    datasets_cmd.add_argument("--scale", type=float, default=1.0)
    compare_cmd = sub.add_parser(
        "compare", help="diff two exported JSON runs"
    )
    compare_cmd.add_argument("baseline")
    compare_cmd.add_argument("candidate")
    compare_cmd.add_argument("--min-ratio", type=float, default=1.25)
    query_cmd = sub.add_parser(
        "query", help="answer one SSRWR query (optionally traced)"
    )
    query_cmd.add_argument("dataset", help="dataset name from the catalog")
    query_cmd.add_argument("source", type=int, help="query node id")
    query_cmd.add_argument("--scale", type=float, default=1.0,
                           help="dataset scale factor")
    query_cmd.add_argument("--top", type=int, default=10,
                           help="number of top estimates to print")
    query_cmd.add_argument("--seed", type=int, default=0)
    query_cmd.add_argument("--delta-scale", type=float, default=1.0,
                           help="relax delta to this multiple of 1/n")
    query_cmd.add_argument("--trace", action="store_true",
                           help="print the per-phase trace breakdown")
    query_cmd.add_argument("--trace-json", metavar="PATH", default=None,
                           help="write the full QueryTrace as JSON")
    serve_cmd = sub.add_parser(
        "serve-batch",
        help="benchmark concurrent batched serving vs. a sequential loop",
    )
    serve_cmd.add_argument("dataset", help="dataset name from the catalog")
    serve_cmd.add_argument("--sources", type=int, default=8,
                           help="number of distinct query sources")
    serve_cmd.add_argument("--repeat", type=int, default=3,
                           help="requests per source (hot workload)")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="worker-pool width (threads for "
                                "--engine threads, solver processes "
                                "for --engine multiproc)")
    serve_cmd.add_argument("--engine", choices=("threads", "multiproc"),
                           default="threads",
                           help="serving engine answering the batch")
    serve_cmd.add_argument("--scale", type=float, default=1.0,
                           help="dataset scale factor")
    serve_cmd.add_argument("--seed", type=int, default=0)
    serve_cmd.add_argument("--delta-scale", type=float, default=1.0,
                           help="relax delta to this multiple of 1/n")
    serve_cmd.add_argument("--json", metavar="PATH", default=None,
                           help="write the benchmark document "
                                "(e.g. BENCH_serving.json)")
    serve_cmd.add_argument("--min-speedup", type=float, default=None,
                           help="exit non-zero unless batch speedup vs. "
                                "the sequential loop reaches this")
    serve_cmd.add_argument("--min-unique-speedup", type=float, default=None,
                           help="exit non-zero unless the unique-source "
                                "(cache-cold) speedup reaches this -- the "
                                "parallelism-only gate for --engine "
                                "multiproc")
    push_cmd = sub.add_parser(
        "push",
        help="benchmark the output-sensitive push kernels vs the seed loop",
    )
    push_cmd.add_argument("dataset", help="dataset name from the catalog")
    push_cmd.add_argument("--sources", type=int, default=8,
                          help="number of deterministic random sources")
    push_cmd.add_argument("--h", type=int, default=None,
                          help="hop parameter (default: the bench h "
                               "for the dataset)")
    push_cmd.add_argument("--repeats", type=int, default=3,
                          help="timed passes per variant (best reported)")
    push_cmd.add_argument("--scale", type=float, default=1.0,
                          help="dataset scale factor")
    push_cmd.add_argument("--seed", type=int, default=0)
    push_cmd.add_argument("--json", metavar="PATH", default=None,
                          help="write the benchmark document "
                               "(e.g. BENCH_push.json)")
    push_cmd.add_argument("--min-speedup", type=float, default=None,
                          help="exit non-zero unless the end-to-end "
                               "hhop+omfwd speedup reaches this")
    pp_cmd = sub.add_parser(
        "powerpush",
        help="benchmark blocked multi-source PowerPush vs. the "
             "per-source loop (see docs/powerpush.md)",
    )
    pp_cmd.add_argument("dataset", help="dataset name from the catalog")
    pp_cmd.add_argument("--batch", type=int, default=32,
                        help="unique cold sources per batch")
    pp_cmd.add_argument("--repeats", type=int, default=3,
                        help="timed passes per variant (best reported)")
    pp_cmd.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor")
    pp_cmd.add_argument("--seed", type=int, default=0)
    pp_cmd.add_argument("--delta-scale", type=float, default=1.0,
                        help="relax delta to this multiple of 1/n")
    pp_cmd.add_argument("--json", metavar="PATH", default=None,
                        help="write the benchmark document "
                             "(e.g. BENCH_powerpush.json)")
    pp_cmd.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero unless the blocked-vs-loop "
                             "speedup reaches this")
    dyn_cmd = sub.add_parser(
        "dynamic",
        help="benchmark incremental cache retention under a mixed "
             "read/write workload (see docs/dynamic.md)",
    )
    dyn_cmd.add_argument("dataset", help="dataset name from the catalog")
    dyn_cmd.add_argument("--sources", type=int, default=8,
                         help="number of distinct (hot) query sources")
    dyn_cmd.add_argument("--rounds", type=int, default=12,
                         help="passes over the source set")
    dyn_cmd.add_argument("--write-every", type=int, default=8,
                         help="one edge toggle per this many reads "
                              "(8 -> ~11%% writes)")
    dyn_cmd.add_argument("--solve-margin", type=float, default=0.5,
                         help="misses solve at eps * margin so cached "
                              "answers have slack to survive edits")
    dyn_cmd.add_argument("--workers", type=int, default=4,
                         help="engine thread-pool size")
    dyn_cmd.add_argument("--scale", type=float, default=1.0,
                         help="dataset scale factor")
    dyn_cmd.add_argument("--seed", type=int, default=0)
    dyn_cmd.add_argument("--delta-scale", type=float, default=1.0,
                         help="relax delta to this multiple of 1/n "
                              "(retention needs headroom; see "
                              "docs/dynamic.md)")
    dyn_cmd.add_argument("--grace-factor", type=float, default=1.5,
                         help="post-write pause as a multiple of "
                              "(one solve x hot sources) -- lets "
                              "background repair land off the read path")
    dyn_cmd.add_argument("--json", metavar="PATH", default=None,
                         help="write the benchmark document "
                              "(e.g. BENCH_dynamic.json)")
    dyn_cmd.add_argument("--min-retention", type=float, default=None,
                         help="exit non-zero unless the incremental "
                              "engine's retention rate reaches this")
    dyn_cmd.add_argument("--max-p95-ratio", type=float, default=None,
                         help="exit non-zero if incremental p95 read "
                              "latency exceeds this multiple of the "
                              "read-only baseline")
    scale_cmd = sub.add_parser(
        "scale",
        help="benchmark streaming ingestion peak memory against the "
             "in-RAM edge-list loader (see docs/scale.md)",
    )
    scale_cmd.add_argument("--nodes", type=int, default=100_000,
                           help="node-id range of the generated edge list")
    scale_cmd.add_argument("--edges", type=int, default=1_000_000,
                           help="edge lines to generate (duplicates and "
                                "self-loops included; dedup is part of "
                                "the measured work)")
    scale_cmd.add_argument("--seed", type=int, default=0)
    scale_cmd.add_argument("--workdir", default=None,
                           help="directory for the temporary edge list "
                                "and .rcsr file (default: $TMPDIR)")
    scale_cmd.add_argument("--json", metavar="PATH", default=None,
                           help="write the benchmark document "
                                "(e.g. BENCH_scale.json)")
    scale_cmd.add_argument("--min-memory-advantage", type=float,
                           default=None,
                           help="exit non-zero unless the in-RAM "
                                "loader's peak RSS is at least this "
                                "multiple of the streaming ingester's")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     help="experiment id from 'list', or 'all'")
    run.add_argument("--fast", action="store_true",
                     help="small graphs, few sources (seconds per table)")
    run.add_argument("--scale", type=float, default=None,
                     help="dataset scale factor (default 1.0, fast: 0.25)")
    run.add_argument("--sources", type=int, default=None,
                     help="query nodes per dataset (default 5, fast: 3)")
    run.add_argument("--delta-scale", type=float, default=None,
                     help="relax delta to this multiple of 1/n "
                          "(default 50, fast: 200)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write the artifacts as a JSON document "
                          "(for 'all': one file per experiment, suffixed "
                          "with the experiment id)")
    return parser


def config_from_args(args):
    base = BenchConfig.fast_defaults() if args.fast else BenchConfig()
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.sources is not None:
        overrides["num_sources"] = args.sources
    if args.delta_scale is not None:
        overrides["delta_scale"] = args.delta_scale
    overrides["seed"] = args.seed
    return base.scaled(**overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    if args.command == "datasets":
        _print_datasets(args.scale)
        return 0
    runner = {
        "query": _run_query,
        "serve-batch": _run_serve_batch,
        "push": _run_push_bench,
        "powerpush": _run_powerpush_bench,
        "dynamic": _run_dynamic_bench,
        "scale": _run_scale_bench,
    }.get(args.command)
    if runner is not None:
        try:
            return runner(args)
        except ParameterError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.command == "compare":
        from repro.bench.compare import compare_files

        comparisons = compare_files(args.baseline, args.candidate,
                                    min_ratio_of_interest=args.min_ratio)
        print(render_all(comparisons))
        return 0
    if args.experiment == "all":
        names = list(ALL_EXPERIMENTS)
    elif args.experiment in ALL_EXPERIMENTS:
        names = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {', '.join(ALL_EXPERIMENTS)} or 'all'",
              file=sys.stderr)
        return 2
    cfg = config_from_args(args)
    for name in names:
        tic = time.perf_counter()
        artifacts = ALL_EXPERIMENTS[name](cfg)
        elapsed = time.perf_counter() - tic
        print(render_all(artifacts))
        print(f"[{name} completed in {elapsed:.1f}s]\n")
        if args.json:
            from pathlib import Path

            from repro.bench.export import export_json

            target = Path(args.json)
            if len(names) > 1:
                target = target.with_name(
                    f"{target.stem}-{name}{target.suffix or '.json'}"
                )
            export_json(artifacts, target, experiment=name)
    return 0


def _run_query(args):
    from repro.core.params import AccuracyParams
    from repro.core.resacc import resacc
    from repro.datasets import catalog
    from repro.obs import QueryTrace, save_traces

    graph = catalog.load(args.dataset, scale=args.scale)
    accuracy = AccuracyParams.paper_defaults(
        graph.n, delta_scale=args.delta_scale
    )
    trace = QueryTrace() if (args.trace or args.trace_json) else None
    result = resacc(graph, args.source, accuracy=accuracy,
                    seed=args.seed, trace=trace)
    nodes, values = result.top_k(args.top)
    print(f"{args.dataset} (n={graph.n}, m={graph.m}) "
          f"source={args.source} seed={args.seed}")
    for node, value in zip(nodes, values):
        print(f"  {int(node):>10d}  {float(value):.6e}")
    if args.trace:
        print()
        print(trace.render())
    if args.trace_json:
        path = save_traces([trace], args.trace_json,
                           meta={"dataset": args.dataset,
                                 "scale": args.scale})
        print(f"\ntrace written to {path}")
    return 0


def _run_serve_batch(args):
    from repro.bench.harness import serving_benchmark
    from repro.core.params import AccuracyParams
    from repro.datasets import catalog

    graph = catalog.load(args.dataset, scale=args.scale)
    accuracy = AccuracyParams.paper_defaults(
        graph.n, delta_scale=args.delta_scale
    )
    doc = serving_benchmark(
        graph, num_unique=args.sources, repeat=args.repeat,
        num_workers=args.workers, accuracy=accuracy, seed=args.seed,
        engine=args.engine,
    )
    workload = doc["workload"]
    print(f"{args.dataset} (n={graph.n}, m={graph.m})  "
          f"{workload['requests']} requests over "
          f"{workload['unique_sources']} sources, "
          f"{doc['workers']} {doc['engine']} workers")
    print(f"  sequential loop    {doc['sequential_loop_seconds']:8.3f} s")
    print(f"  sequential cached  {doc['sequential_cached_seconds']:8.3f} s")
    print(f"  query_batch        {doc['batch_seconds']:8.3f} s  "
          f"({doc['speedup']:.2f}x vs loop, "
          f"{doc['speedup_vs_cached']:.2f}x vs cached)")
    print(f"  unique-source control: "
          f"{doc['unique_workload']['speedup']:.2f}x "
          f"(parallelism only, no reuse)")
    print(f"  byte-identical to sequential: {doc['byte_identical']}")
    return _finish(doc, args.json, [
        None if doc["byte_identical"]
        else "batched results diverge from the sequential loop",
        _below("speedup", doc["speedup"], args.min_speedup),
        _below("unique-source speedup", doc["unique_workload"]["speedup"],
               args.min_unique_speedup),
    ])


def _run_push_bench(args):
    from repro.bench.harness import push_benchmark
    from repro.datasets import catalog

    graph = catalog.load(args.dataset, scale=args.scale)
    h = args.h if args.h is not None else catalog.bench_h(args.dataset)
    doc = push_benchmark(
        graph, num_sources=args.sources, h=h, seed=args.seed,
        repeats=args.repeats,
    )
    print(f"{args.dataset} (n={graph.n}, m={graph.m})  h={doc['h']}, "
          f"{len(doc['sources'])} sources")
    for phase in ("hhop", "omfwd"):
        print(f"  {phase:<6} seed {doc['seed_seconds'][phase]:8.4f} s   "
              f"kernel {doc['kernel_seconds'][phase]:8.4f} s   "
              f"({doc[f'{phase}_speedup']:.2f}x)")
    print(f"  total  seed {doc['seed_seconds']['total']:8.4f} s   "
          f"kernel {doc['kernel_seconds']['total']:8.4f} s   "
          f"({doc['speedup']:.2f}x)")
    print(f"  rounds: {doc['sparse_rounds']} sparse / "
          f"{doc['dense_rounds']} dense; {doc['pushes']} pushes")
    print(f"  fixpoint gap {doc['fixpoint_gap']:.2e} "
          f"(tol {doc['equivalence_tol']:.0e}), "
          f"mass gap {doc['mass_gap']:.2e}")
    return _finish(doc, args.json, [
        None if doc["fixpoint_equivalent"]
        else "kernel fixpoint diverged from the seed loop",
        None if doc["mass_conserved"]
        else "reserve + residue mass drifted from 1",
        _below("speedup", doc["speedup"], args.min_speedup),
    ])


def _run_powerpush_bench(args):
    from repro.bench.harness import powerpush_benchmark
    from repro.core.params import AccuracyParams
    from repro.datasets import catalog

    graph = catalog.load(args.dataset, scale=args.scale)
    accuracy = AccuracyParams.paper_defaults(
        graph.n, delta_scale=args.delta_scale,
    )
    doc = powerpush_benchmark(
        graph, batch_size=args.batch, repeats=args.repeats,
        accuracy=accuracy, seed=args.seed,
    )
    print(f"{args.dataset} (n={graph.n}, m={graph.m})  "
          f"batch={doc['batch_size']}, eps={doc['accuracy']['eps']:g}, "
          f"delta={doc['accuracy']['delta']:g}")
    print(f"  per-source loop    {doc['loop_seconds']:8.4f} s")
    print(f"  blocked batch      {doc['block_seconds']:8.4f} s  "
          f"({doc['speedup']:.2f}x)")
    print(f"  sweeps per source: min {min(doc['sweeps'])}, "
          f"max {max(doc['sweeps'])}")
    print(f"  max |blocked - loop| {doc['max_abs_gap']:.2e} "
          f"(tol {doc['equivalence_tol']:.0e}), "
          f"byte-identical: {doc['byte_identical']}")
    return _finish(doc, args.json, [
        None if doc["within_tol"]
        else f"blocked answers diverged from the per-source loop by "
             f"{doc['max_abs_gap']:.2e}",
        _below("speedup", doc["speedup"], args.min_speedup),
    ])


def _run_dynamic_bench(args):
    from repro.bench.harness import dynamic_benchmark
    from repro.core.params import AccuracyParams
    from repro.datasets import catalog

    graph = catalog.load(args.dataset, scale=args.scale)
    accuracy = AccuracyParams.paper_defaults(
        graph.n, delta_scale=args.delta_scale)
    doc = dynamic_benchmark(
        graph, num_unique=args.sources, rounds=args.rounds,
        write_every=args.write_every, accuracy=accuracy,
        solve_margin=args.solve_margin, num_workers=args.workers,
        seed=args.seed, grace_factor=args.grace_factor,
    )
    workload = doc["workload"]
    site = workload["mutation_site"]
    print(f"{args.dataset} (n={graph.n}, m={graph.m})  "
          f"{workload['unique_sources']} sources x "
          f"{workload['rounds']} rounds, "
          f"write_fraction={workload['write_fraction']:.1%}, "
          f"eps={doc['accuracy']['eps']:g}, "
          f"delta={doc['accuracy']['delta']:.2e}, "
          f"margin={doc['solve_margin']:g}")
    print(f"  mutation site: edge ({site['u']}, {site['v']}), "
          f"out_degree={site['out_degree']}")
    for name in ("read_only", "quiesce", "incremental"):
        variant = doc[name]
        print(f"  {name:<12} p50 {variant['p50_read_seconds'] * 1e3:8.3f} ms"
              f"  p95 {variant['p95_read_seconds'] * 1e3:8.3f} ms"
              f"  ({variant['reads']} reads, {variant['writes']} writes)")
    stats = doc["incremental"]["stats"]
    print(f"  retention: {stats['entries_retained']} retained / "
          f"{stats['invalidations']} evicted "
          f"(rate {doc['retention_rate']:.2f}), "
          f"{stats['entries_repaired']} repaired in background")
    print(f"  incremental p95 vs read-only: "
          f"{doc['p95_ratio_vs_read_only']:.2f}x  "
          f"(vs quiesce-everything: "
          f"{doc['p95_speedup_vs_quiesce']:.2f}x faster)")
    print(f"  retained answers meet the contract vs exact solve: "
          f"{doc['retained_within_contract']}")
    ratio = doc["p95_ratio_vs_read_only"]
    return _finish(doc, args.json, [
        _contract_failure(doc),
        _below("retention rate", doc["retention_rate"], args.min_retention,
               unit=""),
        None if args.max_p95_ratio is None or ratio <= args.max_p95_ratio
        else f"incremental p95 is {ratio:.2f}x the read-only baseline, "
             f"above the allowed {args.max_p95_ratio:.2f}x",
    ])


def _run_scale_bench(args):
    from repro.bench.harness import scale_benchmark

    doc = scale_benchmark(nodes=args.nodes, edges=args.edges,
                          seed=args.seed, workdir=args.workdir)
    graph = doc["graph"]
    print(f"edge list: {doc['workload']['edges_written']} lines "
          f"({doc['workload']['edge_file_bytes'] >> 20} MiB)  ->  "
          f"graph n={graph['n']}, m={graph['m']} "
          f"({graph['rcsr_bytes'] >> 20} MiB .rcsr)")
    for name, label in (("inram", "read_edge_list (in-RAM)"),
                        ("stream", "ingest_edge_list (stream)"),
                        ("mmap", "load_mmap (re-serve)")):
        run = doc[name]
        print(f"  {label:<26} peak RSS "
              f"{run['rss_delta_bytes'] / 2**20:8.1f} MiB   "
              f"{run['seconds']:6.2f} s")
    print(f"  memory advantage: {doc['memory_advantage']:.2f}x  "
          f"(digest match: {doc['digest_match']})")
    return _finish(doc, args.json, [
        None if doc["digest_match"]
        else "streaming ingestion did not reproduce the in-RAM "
             "loader's graph",
        _below("memory advantage", doc["memory_advantage"],
               args.min_memory_advantage),
    ])


def _finish(doc, path, failures):
    """Write a benchmark document and turn its gates into an exit code.

    ``path`` is the ``--json`` target (``None`` writes nothing).
    ``failures`` holds one entry per gate, in the order they are
    checked: the stderr message when the gate failed, else ``None``.
    Only the first failure is printed; any failure exits 1.
    """
    if path:
        import json
        from pathlib import Path

        from repro.obs.export import _json_safe

        path = Path(path)
        path.write_text(json.dumps(_json_safe(doc), indent=2) + "\n",
                        encoding="utf-8")
        print(f"  written to {path}")
    for message in failures:
        if message is not None:
            print(message, file=sys.stderr)
            return 1
    return 0


def _below(label, value, floor, *, unit="x"):
    """The failure message of a ``--min-*`` gate, or ``None`` when the
    gate is unset or ``value`` reaches ``floor``."""
    if floor is None or value >= floor:
        return None
    return f"{label} {value:.2f}{unit} below required {floor:.2f}{unit}"


def _contract_failure(doc):
    """The dynamic bench's contract failure, one line per failed entry."""
    if doc["retained_within_contract"] is not False:
        return None
    lines = ["a cached answer violated its accuracy contract against the "
             "exact solve"]
    for entry in doc["contract_checks"]:
        if entry["passed"]:
            continue
        origin = ("retained across edits" if entry["retained"]
                  else "solved on the current snapshot")
        lines.append(f"  source {entry['source']}: worst error/(eps*exact) "
                     f"{entry['worst']:.3f}, {origin}, tracked eps_bound "
                     f"{entry['eps_bound']}")
    return "\n".join(lines)


def _print_datasets(scale):
    from repro.bench.report import Table
    from repro.datasets import catalog
    from repro.graph.validation import graph_stats

    table = Table(
        title=f"dataset catalog (scale={scale:g})",
        headers=["name", "kind", "n", "m", "m/n", "h (paper)",
                 "description"],
    )
    for name in catalog.names():
        entry = catalog.spec(name)
        stats = graph_stats(catalog.load(name, scale=scale))
        table.add_row(name, entry.kind, stats.n, stats.m,
                      round(stats.density, 1), entry.h, entry.description)
    print(table.render())


if __name__ == "__main__":
    raise SystemExit(main())
