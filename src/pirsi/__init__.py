"""Private retrieval of several messages at once from a single server.

The user of a k-message database already holds m messages and wants n
others without revealing which ones.  This package provides the
closed-form minimum download (:func:`compute_plan`), the randomized
partition-and-MDS scheme achieving it (:mod:`pirsi.scheme`), the exact
and sampled privacy checks (:mod:`pirsi.privacy`), an exact rate search
(:func:`search_sweep`), and one full round over canonical bytes
(:func:`simulate_round`) with its server role (:func:`serve_query_bytes`).
A refusal of the caller's own request raises :class:`UsageError`.

It exports the names that check their input, and the records they
return.  The stages behind them trust an earlier check, so they are
imported from their own modules: ``mds.encode`` and
``mds.solve_vandermonde``, ``scheme.draw_layout``, ``make_query``,
``server_answer`` and ``client_decode``, ``rate.admits_every_demand_set``,
``oracle.is_feasible_plan``, and ``wire.canonical`` and
``transcript_text``.  The reference implementations the tests check the
program against live in ``tests/oracles.py``.
"""

from .field import PrimeField, is_prime
from .oracle import search_sweep
from .privacy import PosteriorReport, TvdReport, monte_carlo_tvd, posterior
from .rate import ProblemParams, RatePlan, UsageError, compute_plan
from .scheme import Database, DemandSpec, Layout, Query, RoundResult, build_layout
from .wire import parse_answer_bytes, parse_query_bytes, read_db, serve_query_bytes, simulate_round

__all__ = [
    "PrimeField",
    "is_prime",
    "search_sweep",
    "PosteriorReport",
    "TvdReport",
    "monte_carlo_tvd",
    "posterior",
    "ProblemParams",
    "RatePlan",
    "UsageError",
    "compute_plan",
    "Database",
    "DemandSpec",
    "Layout",
    "Query",
    "RoundResult",
    "build_layout",
    "simulate_round",
    "parse_answer_bytes",
    "parse_query_bytes",
    "read_db",
    "serve_query_bytes",
]

__version__ = "0.1.0"
