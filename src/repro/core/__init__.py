"""The paper's primary contribution: ResAcc and its building blocks."""

from repro.core.cpi import (
    DEFAULT_CPI_ROUNDS,
    cpi,
    cpi_error_bound,
)
from repro.core.hhop import HHopOutcome, h_hop_forward, oaop_reference
from repro.core.multisource import MSRWRResult, msrwr
from repro.core.omfwd import omfwd, residue_sum
from repro.core.ppr import (
    exact_ppr,
    normalize_preference,
    personalized_pagerank,
)
from repro.core.params import (
    AccuracyParams,
    ResAccParams,
    fora_r_max,
)
from repro.core.powerpush import powerpush, powerpush_batch
from repro.core.remedy import RemedyOutcome, remedy
from repro.core.resacc import resacc
from repro.core.result import SSRWRResult, top_k_order
from repro.core.serialize import load_result, save_result
from repro.core.solvers import (
    SOLVER_ENV,
    SOLVERS,
    get_solver,
    resolve_solver,
)
from repro.core.topk_solver import TopKAnswer, answer_top_k
from repro.core.variants import (
    no_loop_resacc,
    no_ofd_resacc,
    no_sg_resacc,
)

__all__ = [
    "AccuracyParams",
    "DEFAULT_CPI_ROUNDS",
    "HHopOutcome",
    "MSRWRResult",
    "RemedyOutcome",
    "ResAccParams",
    "SOLVERS",
    "SOLVER_ENV",
    "SSRWRResult",
    "TopKAnswer",
    "answer_top_k",
    "cpi",
    "cpi_error_bound",
    "exact_ppr",
    "fora_r_max",
    "get_solver",
    "h_hop_forward",
    "load_result",
    "msrwr",
    "no_loop_resacc",
    "no_ofd_resacc",
    "no_sg_resacc",
    "normalize_preference",
    "oaop_reference",
    "omfwd",
    "personalized_pagerank",
    "powerpush",
    "powerpush_batch",
    "remedy",
    "resacc",
    "residue_sum",
    "resolve_solver",
    "save_result",
    "top_k_order",
]
