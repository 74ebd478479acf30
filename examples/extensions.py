"""Beyond the paper: preference-vector PPR, top-K queries, weighted RWR.

Three extension features the library adds on top of the reproduction:

1. **Preference-vector PPR** -- restart into a distribution over several
   nodes (multi-seed recommendation);
2. **Top-K queries with a separation certificate** derived from the
   accuracy contract;
3. **Edge-weighted RWR** -- transition probabilities proportional to
   edge weights, with the same guarantee.

Run with::

    python examples/extensions.py
"""

from __future__ import annotations

import numpy as np

from repro import AccuracyParams, datasets
from repro.analysis import required_walks, walk_savings_factor
from repro.core import answer_top_k, personalized_pagerank
from repro.weighted import (
    from_weighted_edges,
    weighted_power_iteration,
    weighted_ssrwr,
)


def demo_preference_ppr():
    print("=== preference-vector PPR ===")
    graph = datasets.load("dblp", scale=0.4)
    accuracy = AccuracyParams.paper_defaults(graph.n)
    # Restart into three seed authors with unequal interest weights.
    preference = {0: 0.5, 10: 0.3, 25: 0.2}
    result = personalized_pagerank(graph, preference, accuracy=accuracy,
                                   seed=1)
    nodes, values = result.top_k(5)
    print(f"graph: {graph}; preference over {len(preference)} seeds")
    for node, value in zip(nodes, values):
        print(f"  node {node:>5}  ppr = {value:.5f}")
    print(f"walks: {result.walks_used}, pushes: {result.pushes}\n")


def demo_topk():
    print("=== top-K with separation certificate ===")
    graph = datasets.load("web_stan", scale=0.4)
    accuracy = AccuracyParams.paper_defaults(graph.n)
    top = answer_top_k(graph, 0, 10, accuracy=accuracy)
    print(f"top-{len(top.nodes)} nodes: {top.nodes.tolist()}")
    print(f"bound gap: {top.bound_gap:.3g} (separated: {top.separated})")
    print("a positive gap means the k-th lower bound clears every "
          "outsider's upper\nbound, so the set is exact\n")


def demo_weighted():
    print("=== edge-weighted RWR ===")
    rng = np.random.default_rng(3)
    base = datasets.load("dblp", scale=0.2)
    triples = [(u, v, float(rng.uniform(0.5, 4.0)))
               for u, v in base.edges()]
    wgraph = from_weighted_edges(base.n, triples)
    accuracy = AccuracyParams.paper_defaults(wgraph.n)
    truth = weighted_power_iteration(wgraph, 0, tol=1e-12).estimates
    result = weighted_ssrwr(wgraph, 0, accuracy=accuracy, seed=4)
    significant = truth > accuracy.delta
    rel = np.abs(result.estimates - truth)[significant] / truth[significant]
    print(f"weighted graph: {wgraph}")
    print(f"max relative error on {int(significant.sum())} significant "
          f"nodes: {rel.max():.4f} (contract <= {accuracy.eps})\n")


def demo_planning():
    print("=== walk-budget planning with the concentration bound ===")
    graph = datasets.load("pokec", scale=0.3)
    accuracy = AccuracyParams.paper_defaults(graph.n)
    # How many walks would pure MC need vs a push phase that leaves
    # r_sum = 0.05?
    full = required_walks(accuracy.eps, accuracy.delta, accuracy.p_f, 1.0)
    after_push = required_walks(accuracy.eps, accuracy.delta,
                                accuracy.p_f, 0.05)
    print(f"MC needs {full:,} walks; after pushing down to r_sum=0.05 "
          f"only {after_push:,}")
    print(f"savings factor: {walk_savings_factor(0.05, 1.0):.0f}x -- "
          "the mechanism behind the paper's speedups")


def main():
    demo_preference_ppr()
    demo_topk()
    demo_weighted()
    demo_planning()


if __name__ == "__main__":
    main()
