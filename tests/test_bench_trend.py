"""The cross-run benchmark trend gate (``benchmarks/bench_trend.py``).

The comparator is pure file-in / exit-code-out, so the tests drive it
through ``main(argv)`` over temp directories laid out the way
``actions/download-artifact`` and ``gh run download`` materialize
artifacts (``<root>/<artifact-name>/<file>.json``).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_trend",
    Path(__file__).resolve().parent.parent / "benchmarks" / "bench_trend.py",
)
bench_trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trend)


def serving_doc(speedup, unique_speedup):
    return {"kind": "repro-serving-bench", "speedup": speedup,
            "unique_workload": {"speedup": unique_speedup}}


def powerpush_doc(speedup):
    return {"kind": "repro-powerpush-bench", "speedup": speedup}


def write_run(root, docs):
    """``docs``: {artifact-name: doc}; mirrors the artifact layout."""
    for name, doc in docs.items():
        folder = Path(root) / name
        folder.mkdir(parents=True, exist_ok=True)
        (folder / f"{name.split('-')[0]}.json").write_text(
            json.dumps(doc), encoding="utf-8"
        )


def run(tmp_path, previous, current, *extra):
    write_run(tmp_path / "previous", previous)
    write_run(tmp_path / "current", current)
    return bench_trend.main([
        "--previous", str(tmp_path / "previous"),
        "--current", str(tmp_path / "current"), *extra,
    ])


def test_no_baseline_passes(tmp_path):
    (tmp_path / "previous").mkdir()
    write_run(tmp_path / "current", {"BENCH_powerpush": powerpush_doc(40.0)})
    assert bench_trend.main([
        "--previous", str(tmp_path / "previous"),
        "--current", str(tmp_path / "current"),
    ]) == 0


def test_within_threshold_passes(tmp_path):
    assert run(
        tmp_path,
        {"BENCH_serving": serving_doc(4.0, 1.0),
         "BENCH_powerpush": powerpush_doc(40.0)},
        {"BENCH_serving": serving_doc(3.6, 0.9),
         "BENCH_powerpush": powerpush_doc(36.0)},
    ) == 0


def test_regression_beyond_threshold_fails(tmp_path):
    assert run(
        tmp_path,
        {"BENCH_powerpush": powerpush_doc(40.0)},
        {"BENCH_powerpush": powerpush_doc(30.0)},  # -25% > 15% tolerance
    ) == 1


def test_nested_metric_regression_fails(tmp_path):
    assert run(
        tmp_path,
        {"BENCH_serving-multiproc": serving_doc(4.0, 2.5)},
        {"BENCH_serving-multiproc": serving_doc(4.2, 1.5)},
    ) == 1


def test_new_and_renamed_benchmarks_are_ignored(tmp_path):
    # Baseline has a document the current run dropped, and vice versa;
    # only the overlap is compared.
    assert run(
        tmp_path,
        {"BENCH_powerpush": powerpush_doc(40.0), "BENCH_old": powerpush_doc(100.0)},
        {"BENCH_powerpush": powerpush_doc(41.0), "BENCH_new": powerpush_doc(1.0)},
    ) == 0


def test_unknown_kind_and_garbage_files_are_skipped(tmp_path):
    write_run(tmp_path / "previous", {"BENCH_powerpush": powerpush_doc(40.0)})
    write_run(tmp_path / "current", {"BENCH_powerpush": powerpush_doc(40.0)})
    weird = tmp_path / "current" / "BENCH_weird"
    weird.mkdir()
    (weird / "BENCH_weird.json").write_text("{not json", encoding="utf-8")
    (weird / "BENCH_other.json").write_text(
        json.dumps({"kind": "unknown-kind", "speedup": 1.0}),
        encoding="utf-8",
    )
    assert bench_trend.main([
        "--previous", str(tmp_path / "previous"),
        "--current", str(tmp_path / "current"),
    ]) == 0


def test_summary_table_written(tmp_path, capsys):
    summary = tmp_path / "summary.md"
    assert run(
        tmp_path,
        {"BENCH_powerpush": powerpush_doc(40.0)},
        {"BENCH_powerpush": powerpush_doc(20.0)},
        "--summary", str(summary),
    ) == 1
    text = summary.read_text(encoding="utf-8")
    assert "| benchmark | metric |" in text
    assert "REGRESSED" in text
    out = capsys.readouterr()
    assert "BENCH_powerpush" in out.out
    assert "regressed" in out.err


def test_threshold_is_validated(tmp_path):
    (tmp_path / "previous").mkdir()
    (tmp_path / "current").mkdir()
    assert bench_trend.main([
        "--previous", str(tmp_path / "previous"),
        "--current", str(tmp_path / "current"),
        "--threshold", "1.5",
    ]) == 2


def test_dig_helper():
    doc = {"a": {"b": {"c": 2.0}}, "x": 1}
    assert bench_trend.dig(doc, "a.b.c") == 2.0
    assert bench_trend.dig(doc, "x") == 1
    assert bench_trend.dig(doc, "a.missing") is None
    assert bench_trend.dig(doc, "x.y") is None


@pytest.mark.skipif(sys.platform == "win32", reason="posix paths in doc")
def test_compare_skips_nonpositive_and_missing_baselines():
    rows = bench_trend.compare(
        {"a": {"kind": "repro-powerpush-bench", "speedup": 0.0},
         "b": {"kind": "repro-powerpush-bench"}},
        {"a": {"kind": "repro-powerpush-bench", "speedup": 10.0},
         "b": {"kind": "repro-powerpush-bench", "speedup": 10.0}},
        0.15,
    )
    assert rows == []
