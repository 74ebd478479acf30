"""Cross-run benchmark trend gate (not a paper artefact).

CI uploads every job's ``BENCH_*.json`` document as an artifact.  The
``bench-trend`` job downloads the current run's documents next to the
ones from the last successful run on ``main`` and calls this script,
which compares the throughput-style metrics of documents that appear in
both runs and fails when any regresses by more than ``--threshold``
(relative, higher-is-better for every tracked metric)::

    python benchmarks/bench_trend.py --previous previous --current current \
        --threshold 0.15 --summary "$GITHUB_STEP_SUMMARY"

Documents are matched by their artifact directory name (the layout both
``actions/download-artifact`` and ``gh run download`` produce:
``<root>/<artifact-name>/<file>.json``), so renamed or newly added
benchmarks never fail the gate -- only a metric that existed before and
got slower can.  Exit codes: 0 ok (including "no baseline"), 1
regression detected, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Tracked metrics per benchmark-document ``kind``; every one is
#: higher-is-better.  Paths are dotted keys into the JSON document.
KNOWN_METRICS = {
    "repro-serving-bench": ("speedup", "unique_workload.speedup"),
    "repro-push-bench": ("speedup",),
    "repro-powerpush-bench": ("speedup",),
    # Latency ratios are too jittery for the 15%-drop gate;
    # retention is the deterministic headline.
    "repro-dynamic-bench": ("retention_rate",),
    "repro-scale-bench": ("memory_advantage",),
}


def dig(doc, path):
    """``dig({"a": {"b": 1}}, "a.b") -> 1`` (``None`` when absent)."""
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def load_documents(root):
    """``{artifact-name/: parsed doc}`` for every BENCH_*.json under root.

    Skips unparseable files (a failed job may upload a partial document;
    the trend gate should not turn that into a second, confusing
    failure) and documents whose ``kind`` is not tracked.
    """
    root = Path(root)
    docs = {}
    for path in sorted(root.rglob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench-trend: skipping {path}: {exc}", file=sys.stderr)
            continue
        if not isinstance(doc, dict) or doc.get("kind") not in KNOWN_METRICS:
            continue
        key = path.parent.relative_to(root).as_posix()
        if key == ".":
            key = path.stem
        docs[key] = doc
    return docs


def compare(previous, current, threshold):
    """Rows of ``(name, metric, before, after, ratio, regressed)``."""
    rows = []
    for name in sorted(set(previous) & set(current)):
        before_doc, after_doc = previous[name], current[name]
        if before_doc.get("kind") != after_doc.get("kind"):
            continue
        for metric in KNOWN_METRICS[after_doc["kind"]]:
            before = dig(before_doc, metric)
            after = dig(after_doc, metric)
            if not isinstance(before, (int, float)) or not before > 0:
                continue
            if not isinstance(after, (int, float)):
                continue
            ratio = after / before
            rows.append((name, metric, float(before), float(after),
                         ratio, ratio < 1.0 - threshold))
    return rows


def render_table(rows, threshold):
    lines = [
        "| benchmark | metric | previous | current | ratio | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for name, metric, before, after, ratio, regressed in rows:
        status = ("REGRESSED" if regressed
                  else "improved" if ratio > 1.0 + threshold else "ok")
        lines.append(f"| {name} | {metric} | {before:.2f} | {after:.2f} "
                     f"| {ratio:.2f}x | {status} |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--previous", required=True,
                        help="directory of the baseline run's artifacts")
    parser.add_argument("--current", required=True,
                        help="directory of this run's artifacts")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated relative drop (0.15 = 15%%)")
    parser.add_argument("--summary", default=None,
                        help="append the markdown table to this file "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)
    if not 0 <= args.threshold < 1:
        print(f"threshold must be in [0, 1), got {args.threshold}",
              file=sys.stderr)
        return 2

    previous = load_documents(args.previous)
    current = load_documents(args.current)
    if not previous:
        print("bench-trend: no baseline documents found -- nothing to "
              "compare (first run, or artifacts expired); passing")
        return 0
    if not current:
        print("bench-trend: no current documents found under "
              f"{args.current}", file=sys.stderr)
        return 2

    rows = compare(previous, current, args.threshold)
    if not rows:
        print("bench-trend: no overlapping benchmark documents; passing")
        return 0

    table = render_table(rows, args.threshold)
    print(f"bench-trend: comparing {len(rows)} metric(s), "
          f"threshold {args.threshold:.0%}\n")
    print(table)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write("## Benchmark trend vs last main run\n\n")
            fh.write(table + "\n")

    regressions = [row for row in rows if row[5]]
    for name, metric, before, after, ratio, _ in regressions:
        print(f"bench-trend: {name} {metric} regressed "
              f"{before:.2f} -> {after:.2f} ({ratio:.2f}x, allowed "
              f">= {1.0 - args.threshold:.2f}x)", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
