"""Experiment harness regenerating every table and figure of the paper."""

from repro.bench.appendix import APPENDIX_EXPERIMENTS
from repro.bench.experiments import MAIN_EXPERIMENTS
from repro.bench.extensions import EXTENSION_EXPERIMENTS
from repro.bench.harness import (
    DYNAMIC_BENCH_KIND,
    POWERPUSH_BENCH_KIND,
    PUSH_BENCH_KIND,
    SCALE_BENCH_KIND,
    SERVING_BENCH_KIND,
    BenchConfig,
    GroundTruthCache,
    SolverRun,
    dynamic_benchmark,
    export_suite_traces,
    powerpush_benchmark,
    push_benchmark,
    run_suite,
    scale_benchmark,
    serving_benchmark,
    suite_traces,
    timed,
    traced_solver,
    truths_for,
    write_random_edges,
)
from repro.bench.report import Series, Table, render_all

#: Every reproducible artefact, keyed by experiment id.
ALL_EXPERIMENTS = {**MAIN_EXPERIMENTS, **APPENDIX_EXPERIMENTS,
                   **EXTENSION_EXPERIMENTS}

__all__ = [
    "ALL_EXPERIMENTS",
    "APPENDIX_EXPERIMENTS",
    "BenchConfig",
    "DYNAMIC_BENCH_KIND",
    "EXTENSION_EXPERIMENTS",
    "GroundTruthCache",
    "MAIN_EXPERIMENTS",
    "POWERPUSH_BENCH_KIND",
    "PUSH_BENCH_KIND",
    "SCALE_BENCH_KIND",
    "SERVING_BENCH_KIND",
    "Series",
    "SolverRun",
    "Table",
    "dynamic_benchmark",
    "export_suite_traces",
    "powerpush_benchmark",
    "push_benchmark",
    "render_all",
    "run_suite",
    "scale_benchmark",
    "serving_benchmark",
    "suite_traces",
    "timed",
    "traced_solver",
    "truths_for",
    "write_random_edges",
]
