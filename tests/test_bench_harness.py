"""Tests for the bench harness, solver factories and CLI plumbing."""

import numpy as np
import pytest

from repro.bench import ALL_EXPERIMENTS, BenchConfig, GroundTruthCache
from repro.bench.harness import SolverRun, run_suite, timed, truths_for
from repro.bench.solvers import (
    make_fora,
    make_mc,
    make_power,
    make_resacc,
    rng_for,
)
from repro.cli import build_parser, config_from_args, main
from repro.core import AccuracyParams
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.preferential_attachment(200, 3, seed=1)


class TestBenchConfig:
    def test_defaults_are_paper_settings(self):
        cfg = BenchConfig()
        assert cfg.delta_scale == 1.0
        assert cfg.eps == 0.5

    def test_fast_defaults(self):
        cfg = BenchConfig.fast_defaults()
        assert cfg.fast
        assert cfg.scale < 1.0

    def test_accuracy_for(self, graph):
        cfg = BenchConfig()
        acc = cfg.accuracy_for(graph)
        assert acc.delta == pytest.approx(1 / graph.n)
        assert acc.p_f == pytest.approx(1 / graph.n)

    def test_sources_deterministic(self, graph):
        cfg = BenchConfig(num_sources=4)
        assert cfg.sources_for(graph) == cfg.sources_for(graph)
        assert len(cfg.sources_for(graph)) == 4

    def test_scaled_override(self):
        cfg = BenchConfig().scaled(num_sources=9)
        assert cfg.num_sources == 9
        assert cfg.delta_scale == 1.0


class TestGroundTruthCache:
    def test_caches_and_matches_power(self, graph):
        from repro.baselines import power_iteration

        cache = GroundTruthCache()
        a = cache.truth(graph, 0)
        b = cache.truth(graph, 0)
        assert a is b
        iterated = power_iteration(graph, 0, tol=1e-13).estimates
        assert np.max(np.abs(a - iterated)) < 1e-9


class TestRunSuite:
    def test_collects_times_and_estimates(self, graph):
        acc = AccuracyParams.paper_defaults(graph.n)
        solvers = {
            "MC": make_mc(acc, seed=0),
            "ResAcc": make_resacc(acc, 1, seed=0),
        }
        runs = run_suite(graph, [0, 5], solvers)
        assert set(runs) == {"MC", "ResAcc"}
        assert len(runs["MC"].seconds) == 2
        assert runs["ResAcc"].estimates[0].shape == (graph.n,)
        assert runs["MC"].mean_seconds > 0

    def test_metric_helpers(self, graph):
        acc = AccuracyParams.paper_defaults(graph.n)
        cache = GroundTruthCache()
        runs = run_suite(graph, [0], {"FORA": make_fora(acc, seed=0)})
        truths = truths_for(cache, graph, [0])
        run = runs["FORA"]
        errs = run.mean_abs_error_at_kth(truths, (1, 10))
        assert set(errs) == {1, 10}
        ndcg = run.mean_ndcg_at(truths, (10,))
        assert 0 <= ndcg[10] <= 1
        assert len(run.per_source_abs_errors(truths)) == 1

    def test_timed(self):
        value, seconds = timed(lambda: 42)
        assert value == 42
        assert seconds >= 0

    def test_solver_run_empty(self):
        run = SolverRun(name="x")
        assert np.isnan(run.mean_seconds)


class TestSolverFactories:
    def test_rng_for_deterministic(self):
        a = rng_for(1, 2).random(3)
        b = rng_for(1, 2).random(3)
        c = rng_for(1, 3).random(3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_power_factory(self, graph):
        result = make_power(tol=1e-8)(graph, 0)
        assert result.algorithm == "power"

    def test_resacc_factory_h(self, graph):
        acc = AccuracyParams.paper_defaults(graph.n)
        result = make_resacc(acc, 2, seed=0)(graph, 0)
        assert result.algorithm == "resacc"


class TestCLI:
    def test_experiment_registry_complete(self):
        expected = {
            "table2", "table3", "table4", "table5", "table6", "table7",
            "fig1", "fig3", "fig4", "fig5", "fig6", "fig7-10", "fig11",
            "fig12-13", "fig14-15", "fig16-17", "fig18-20", "fig21",
            "fig22", "fig23", "fig24",
            "ext-alpha", "ext-estimator", "ext-scheduling", "ext-weighted",
        }
        assert expected == set(ALL_EXPERIMENTS)

    def test_parser_and_config(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig1", "--fast", "--sources", "2"])
        cfg = config_from_args(args)
        assert cfg.fast
        assert cfg.num_sources == 2

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nonsense"]) == 2

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "residue accumulation" in out


class TestBenchExitPath:
    """Every ``repro-bench`` benchmark kind leaves through ``_finish``."""

    def test_first_failed_gate_is_printed_and_exits_1(self, tmp_path,
                                                      capsys):
        import json

        from repro.cli import _below, _finish

        target = tmp_path / "doc.json"
        code = _finish({"speedup": 1.5}, str(target), [
            None, _below("speedup", 1.5, 2.0), "a later failure",
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert err == "speedup 1.50x below required 2.00x\n"
        assert f"  written to {target}" in out
        assert json.loads(target.read_text()) == {"speedup": 1.5}

    def test_met_and_unset_gates_exit_0(self, capsys):
        from repro.cli import _below, _finish

        assert _finish({}, None, [
            None, _below("speedup", 3.0, 2.0), _below("speedup", 1.0, None),
        ]) == 0
        assert capsys.readouterr() == ("", "")
        assert (_below("retention rate", 0.1, 0.2, unit="")
                == "retention rate 0.10 below required 0.20")

    def test_contract_failure_lists_each_failed_entry(self):
        from repro.cli import _contract_failure

        checks = [
            {"source": 5, "worst": 3.0, "retained": True,
             "eps_bound": 0.25, "passed": False},
            {"source": 6, "worst": 0.5, "retained": False,
             "eps_bound": 0.25, "passed": True},
        ]
        assert _contract_failure({"retained_within_contract": None}) is None
        assert _contract_failure({"retained_within_contract": False,
                                  "contract_checks": checks}) == (
            "a cached answer violated its accuracy contract against the "
            "exact solve\n"
            "  source 5: worst error/(eps*exact) 3.000, retained across "
            "edits, tracked eps_bound 0.25"
        )

    @pytest.mark.parametrize("kind", ["serve-batch", "push", "powerpush",
                                      "dynamic"])
    def test_unknown_dataset_exits_2(self, kind, capsys):
        assert main([kind, "no-such-dataset"]) == 2
        assert "no-such-dataset" in capsys.readouterr().err


class TestSolverFactoriesExtra:
    def test_fwd_factory_default_threshold_scales_with_graph(self, graph):
        from repro.bench.solvers import make_fwd

        result = make_fwd()(graph, 0)
        assert result.extras["r_max"] == pytest.approx(
            1.0 / (50.0 * graph.m))

    def test_fwd_factory_explicit_threshold(self, graph):
        from repro.bench.solvers import make_fwd

        result = make_fwd(r_max=1e-4)(graph, 0)
        assert result.extras["r_max"] == 1e-4

    def test_index_solver_ignores_graph_argument(self, graph):
        from repro.baselines import TPAIndex
        from repro.bench.solvers import make_index_solver

        index = TPAIndex(graph)
        solver = make_index_solver(index)
        result = solver(None, 5)  # the bound index supplies the graph
        assert result.source == 5

    def test_topppr_factory(self, graph):
        from repro.bench.solvers import make_topppr
        from repro.core import AccuracyParams

        acc = AccuracyParams.paper_defaults(graph.n)
        result = make_topppr(acc, k=10, seed=0, max_candidates=8)(graph, 0)
        assert result.algorithm == "topppr"
        assert result.extras["candidates"] <= 8


class TestDynamicBenchmark:
    def test_doc_shape_and_headline_metrics(self):
        from repro.bench import DYNAMIC_BENCH_KIND, dynamic_benchmark
        from tests.test_serving_dynamic import broadcaster_graph

        graph = broadcaster_graph()
        # random_seeds may land sources anywhere, including on the
        # broadcaster's leaves (score mass on the only degree >= 2
        # site); the relaxed delta and tight solve margin guarantee a
        # first-edit drift below budget for any source placement.
        accuracy = AccuracyParams(eps=0.5, delta=0.3, p_f=1.0 / graph.n)
        doc = dynamic_benchmark(graph, num_unique=3, rounds=3,
                                write_every=4, accuracy=accuracy,
                                solve_margin=0.25, num_workers=2, seed=0)
        assert doc["kind"] == DYNAMIC_BENCH_KIND
        assert doc["workload"]["write_fraction"] == pytest.approx(1 / 5)
        for variant in ("read_only", "quiesce", "incremental"):
            entry = doc[variant]
            assert entry["reads"] == 9
            assert entry["p95_read_seconds"] >= entry["p50_read_seconds"]
        assert doc["read_only"]["writes"] == 0
        assert doc["incremental"]["writes"] == 2
        # The quiesce variant never retains; the incremental one does
        # at the benchmark's low-impact mutation site.
        assert doc["quiesce"]["stats"]["entries_retained"] == 0
        assert doc["incremental"]["stats"]["entries_retained"] > 0
        assert 0.0 < doc["retention_rate"] <= 1.0
        assert doc["p95_ratio_vs_read_only"] > 0
        assert doc["retained_within_contract"] is True
        checks = doc["contract_checks"]
        assert checks and all(entry["passed"] for entry in checks)
        for entry in checks:
            assert 0.0 <= entry["worst"] <= 1.0
            assert isinstance(entry["retained"], bool)
        assert any(entry["retained"] for entry in checks)

    def test_contract_check_names_the_failing_entry(self, graph):
        from repro.bench.harness import _check_cached_contracts
        from repro.serving import ConcurrentQueryEngine

        accuracy = AccuracyParams.paper_defaults(graph.n)
        with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=0,
                                   incremental=True,
                                   solve_margin=0.5) as svc:
            svc.query(5).estimates[:] *= 3.0    # corrupt the cached answer
            ok, entries = _check_cached_contracts(svc, accuracy)
        assert ok is False
        [entry] = entries
        assert entry["source"] == 5
        assert entry["passed"] is False
        assert entry["worst"] > 1.0
        assert entry["retained"] is False       # solved on this snapshot
        assert entry["eps_bound"] == accuracy.eps * 0.5

    def test_contract_check_samples_retained_entries_first(self):
        """A corrupted retained entry behind three fresh solves in LRU
        order is still among the sampled answers."""
        from repro.bench.harness import _check_cached_contracts
        from repro.serving import ConcurrentQueryEngine
        from tests.test_serving_dynamic import (
            BROADCASTER,
            CYCLE,
            SOURCES,
            broadcaster_graph,
        )

        graph = broadcaster_graph()
        accuracy = AccuracyParams.paper_defaults(graph.n)
        retained = SOURCES[0]
        fresh = [SOURCES[1], SOURCES[2], CYCLE[-1]]
        with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=0,
                                   incremental=True,
                                   solve_margin=0.5) as svc:
            svc.query(retained)
            assert svc.add_edge(BROADCASTER, CYCLE[-1])
            last = svc.stats.extras["last_mutation"]
            assert last["retained_sources"] == [retained]
            for source in fresh:
                svc.query(source)
            # The hit moves the retained entry to the MRU end.
            svc.query(retained).estimates[:] *= 3.0
            order = [key[0] for key, _ in svc._cache.entries()]
            assert order == fresh + [retained]
            ok, entries = _check_cached_contracts(svc, accuracy)
        assert ok is False
        assert [entry["source"] for entry in entries] == [retained] + fresh[:2]
        assert entries[0]["retained"] is True
        assert entries[0]["passed"] is False
        assert all(entry["passed"] for entry in entries[1:])

    def test_contract_check_reads_an_earlier_snapshot(self):
        """A later edit that drops every entry does not hide the answers
        an earlier edit retained."""
        from repro.bench.harness import _cache_snapshot, _check_cached_contracts
        from repro.serving import ConcurrentQueryEngine
        from tests.test_serving_dynamic import (
            BROADCASTER,
            CYCLE,
            SOURCES,
            broadcaster_graph,
        )

        graph = broadcaster_graph()
        accuracy = AccuracyParams.paper_defaults(graph.n)
        with ConcurrentQueryEngine(graph, accuracy=accuracy, seed=0,
                                   incremental=True,
                                   solve_margin=0.5) as svc:
            svc.query_batch(SOURCES)
            assert svc.add_edge(BROADCASTER, CYCLE[-1])
            snapshot = _cache_snapshot(svc)
            assert svc.remove_node(1)    # drops the whole cache
            assert _check_cached_contracts(svc, accuracy) == (False, [])
            ok, entries = _check_cached_contracts(svc, accuracy,
                                                  snapshot=snapshot)
        assert ok is True
        assert sorted(entry["source"] for entry in entries) == SOURCES
        assert all(entry["retained"] for entry in entries)
        assert all(entry["eps_bound"] > accuracy.eps * 0.5
                   for entry in entries)

    def test_cli_dynamic_parser_defaults(self):
        args = build_parser().parse_args(["dynamic", "dblp"])
        assert args.sources == 8
        assert args.rounds == 12
        assert args.write_every == 8
        assert args.solve_margin == 0.5
        assert args.delta_scale == 1.0
        assert args.min_retention is None
        assert args.max_p95_ratio is None

    def test_trend_kind_registered(self):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "bench_trend",
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "bench_trend.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.KNOWN_METRICS["repro-dynamic-bench"] == (
            "retention_rate",)
