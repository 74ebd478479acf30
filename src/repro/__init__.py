"""repro: an index-free Random-Walk-with-Restart query library.

Reproduction of "Index-Free Approach with Theoretical Guarantee for
Efficient Random Walk with Restart Query" (Lin, Wong, Xie, Wei --
ICDE 2020).

The headline API:

>>> from repro import datasets, resacc
>>> graph = datasets.load("dblp", scale=0.25)
>>> result = resacc(graph, source=0)
>>> nodes, values = result.top_k(10)

See :mod:`repro.core` for ResAcc's phases, :mod:`repro.baselines` for
every competitor in the paper's Table I, :mod:`repro.community` for the
NISE application, and :mod:`repro.bench` for the experiment harness that
regenerates each table and figure.
"""

from repro import datasets
from repro.core import (
    AccuracyParams,
    ResAccParams,
    SSRWRResult,
    msrwr,
    resacc,
)
from repro.graph import CSRGraph, from_edges, hop_structure
from repro.obs import QueryTrace
from repro.service import QueryEngine
from repro.serving import ConcurrentQueryEngine

__version__ = "1.0.0"

__all__ = [
    "AccuracyParams",
    "CSRGraph",
    "ConcurrentQueryEngine",
    "QueryEngine",
    "QueryTrace",
    "ResAccParams",
    "SSRWRResult",
    "__version__",
    "datasets",
    "from_edges",
    "hop_structure",
    "msrwr",
    "resacc",
]
