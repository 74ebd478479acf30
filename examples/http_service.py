"""The SSRWR service over HTTP: boot, query, mutate, scrape, drain.

Boots a real :class:`repro.server.SSRWRServer` on a loopback port (the
same code path as the ``repro-serve`` console command), then exercises
the whole wire surface with :class:`repro.server.ServerClient`:

* single queries and a batch -- value-identical to the engine answers;
* a deliberately expired deadline -- answered ``504`` with the worker
  freed;
* a live mutation racing reads -- the epoch bumps and later answers see
  the new graph;
* a ``/metrics`` scrape -- Prometheus text straight off the service;
* a graceful drain -- identical to sending the process SIGTERM.

Run with::

    python examples/http_service.py
"""

from __future__ import annotations

import numpy as np

from repro import AccuracyParams, datasets
from repro.server import ServerClient, ServerConfig, ServerError, start_in_thread
from repro.serving import ConcurrentQueryEngine

SEED = 11


def main():
    graph = datasets.load("dblp", scale=0.25)
    accuracy = AccuracyParams.paper_defaults(graph.n, delta_scale=50)
    engine = ConcurrentQueryEngine(graph, accuracy=accuracy,
                                   cache_size=64, seed=SEED)
    config = ServerConfig(port=0, max_inflight=16,
                          default_deadline_ms=30_000.0)
    print(f"graph: {engine.graph}")

    with start_in_thread(engine, config) as handle:
        print(f"serving on {handle.url} (ephemeral port)\n")
        with ServerClient(base_url=handle.url,
                          client_id="example") as client:
            # -- single queries and a batch ---------------------------
            single = client.query(0, top_k=5)
            print(f"top-5 for source 0 (epoch {single['epoch']}): "
                  f"{list(zip(single['nodes'], single['values']))[:3]} ...")
            batch = client.query_batch([0, 1, 2, 1, 0])
            answers = [np.asarray(item["estimates"]) for item
                       in batch["results"]]
            print(f"batch answered {len(answers)} requests, "
                  f"duplicates byte-identical: "
                  f"{answers[0].tobytes() == answers[4].tobytes()}")

            # -- an expired deadline is a structured 504 --------------
            try:
                client.query(3, deadline_ms=0)
            except ServerError as exc:
                print(f"zero deadline -> HTTP {exc.status} "
                      f"(worker freed, server healthy: "
                      f"{client.healthz()['status']})")

            # -- mutate while serving ---------------------------------
            before = np.asarray(client.query(0)["estimates"])
            mutation = client.add_edge(0, graph.n - 1, undirected=True)
            after = np.asarray(client.query(0)["estimates"])
            print(f"add_edge applied: epoch {single['epoch']} -> "
                  f"{mutation['epoch']}, answers changed: "
                  f"{not np.array_equal(before, after)}")

            # -- scrape /metrics --------------------------------------
            page = client.metrics()
            interesting = [line for line in page.splitlines()
                           if line.startswith(("repro_http_requests_total",
                                               "repro_graph_epoch",
                                               "repro_engine_queries"))]
            print("\n/metrics excerpt:")
            for line in interesting[:6]:
                print(f"  {line}")

        print("\ndraining (same path as SIGTERM) ...")
    print("server drained; engine worker pools retired.")


if __name__ == "__main__":
    main()
