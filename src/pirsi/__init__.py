"""Private retrieval of several messages at once from a single server.

The user of a k-message database already holds m messages and wants n
others without revealing which ones.  This package provides the
closed-form minimum download (:func:`compute_plan`), the randomized
partition-and-MDS scheme achieving it (:mod:`pirsi.scheme`), the one
predicate that decides whether a plan can hide every demand set
(:func:`admits_every_demand_set`), the exact and sampled privacy checks
built on it (:mod:`pirsi.privacy`), an exact rate search and a check of
the plan's profile (:mod:`pirsi.oracle`), and one full round over
canonical bytes (:func:`simulate_round`).  It exports what the program
runs; the reference implementations the tests check it against live in
``tests/oracles.py``.
"""

from .field import PrimeField, is_prime
from .mds import encode, solve_vandermonde, vandermonde
from .oracle import is_feasible_plan, search_sweep
from .privacy import PosteriorReport, TvdReport, monte_carlo_tvd, posterior
from .rate import ProblemParams, RatePlan, admits_every_demand_set, compute_plan
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
    draw_layout,
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
    "PrimeField",
    "is_prime",
    "encode",
    "solve_vandermonde",
    "vandermonde",
    "is_feasible_plan",
    "search_sweep",
    "PosteriorReport",
    "TvdReport",
    "monte_carlo_tvd",
    "posterior",
    "ProblemParams",
    "RatePlan",
    "admits_every_demand_set",
    "compute_plan",
    "Answer",
    "Database",
    "DemandSpec",
    "Layout",
    "Query",
    "QueryBlock",
    "RoundResult",
    "build_layout",
    "client_decode",
    "draw_layout",
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
