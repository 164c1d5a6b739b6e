"""Private retrieval of several messages at once from a single server.

The user of a k-message database already holds m messages and wants n
others without revealing which ones.  This package provides the
closed-form minimum download (:func:`compute_plan`), the randomized
partition-and-MDS scheme achieving it (:mod:`pirsi.scheme`), the one
predicate that decides whether a plan can hide every demand set
(:func:`admits_every_demand_set`), exact rational-arithmetic privacy
verification built on it (:mod:`pirsi.privacy`), an exact rate search
with its brute-force check and a check of the plan's profile
(:mod:`pirsi.oracle`), and one full round over canonical bytes
(:func:`simulate_round`).
"""

from .field import DEFAULT_PRIME, PrimeField, is_prime
from .mds import CodeMatrix, check_mds, decode, encode, solve_vandermonde, vandermonde
from .oracle import (
    brute_force_rate,
    brute_force_sweep,
    is_feasible_plan,
    search_sweep,
    subspace_cost,
)
from .privacy import (
    PosteriorReport,
    TvdReport,
    enumerate_randomness,
    iter_layouts,
    layout_probability,
    monte_carlo_tvd,
    posterior,
)
from .rate import ProblemParams, RatePlan, admits_every_demand_set, compute_plan, is_trivial_optimal
from .scheme import (
    Answer,
    Database,
    DemandSpec,
    Layout,
    Query,
    QueryBlock,
    RoundResult,
    build_layout,
    client_decode,
    make_query,
    server_answer,
)
from .wire import (
    canonical,
    parse_answer_doc,
    parse_query_doc,
    read_db,
    serve_query_bytes,
    simulate_round,
    transcript_doc,
    write_db,
)

__all__ = [
    "DEFAULT_PRIME",
    "PrimeField",
    "is_prime",
    "CodeMatrix",
    "check_mds",
    "decode",
    "encode",
    "solve_vandermonde",
    "vandermonde",
    "brute_force_rate",
    "brute_force_sweep",
    "is_feasible_plan",
    "search_sweep",
    "subspace_cost",
    "PosteriorReport",
    "TvdReport",
    "enumerate_randomness",
    "iter_layouts",
    "layout_probability",
    "monte_carlo_tvd",
    "posterior",
    "ProblemParams",
    "RatePlan",
    "admits_every_demand_set",
    "compute_plan",
    "is_trivial_optimal",
    "Answer",
    "Database",
    "DemandSpec",
    "Layout",
    "Query",
    "QueryBlock",
    "RoundResult",
    "build_layout",
    "client_decode",
    "make_query",
    "server_answer",
    "simulate_round",
    "canonical",
    "parse_answer_doc",
    "parse_query_doc",
    "read_db",
    "serve_query_bytes",
    "transcript_doc",
    "write_db",
]

__version__ = "0.1.0"
