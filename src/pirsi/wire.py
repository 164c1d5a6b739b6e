"""Canonical documents, the database file format, and the wire transport.

Every document is rendered as JSON with sorted keys and no insignificant
whitespace, so identical inputs always produce identical bytes.  Integers
stay decimal; exact rationals are rendered as "numerator/denominator"
strings.  Field moduli travel once per document header, never per element.

The client/server split is realised as two roles exchanging these
documents as bytes: the server role reads a query document and writes an
answer document, seeing nothing else.  ``simulate_round`` runs one whole
round through that interface.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import mds
from .field import PrimeField
from .privacy import PosteriorReport, TvdReport
from .rate import ProblemParams, RatePlan
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

DB_MAGIC = "pir-db"
DB_VERSION = "v1"


def canonical(doc) -> str:
    """Canonical JSON text: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Documents


def params_doc(params: ProblemParams) -> dict:
    return {"k": params.k, "m": params.m, "n": params.n}


def plan_doc(params: ProblemParams, plan: RatePlan) -> dict:
    return {
        "k": params.k,
        "m": params.m,
        "n": params.n,
        "m_bar": plan.m_bar,
        "t": plan.t,
        "l_star": plan.l_star,
        "size_profile": list(plan.size_profile),
        "side_profile": list(plan.side_profile),
        "r_star": plan.r_star,
        "trivial": plan.trivial,
    }


def layout_doc(layout: Layout) -> dict:
    return {"subspaces": [list(block) for block in layout.subspaces]}


def query_doc(query: Query) -> dict:
    blocks = []
    for block in query.blocks:
        entries = [e for row in block.matrix.rows for e in row]
        blocks.append(
            {"support": list(block.support), "r": block.matrix.r, "entries": entries}
        )
    return {"p": query.field.p, "blocks": blocks}


def parse_query_doc(doc: dict) -> Query:
    field = PrimeField(doc["p"])
    blocks = []
    for raw in doc["blocks"]:
        support = tuple(raw["support"])
        r = raw["r"]
        n = len(support)
        entries = raw["entries"]
        if len(entries) != r * n:
            raise ValueError(f"expected {r * n} matrix entries, got {len(entries)}")
        rows = tuple(entries[i * n:(i + 1) * n] for i in range(r))
        blocks.append(QueryBlock(support, mds.CodeMatrix(rows, field)))
    return Query(tuple(blocks), field)


def answer_doc(answer: Answer) -> dict:
    return {"blocks": [list(block) for block in answer.blocks]}


def parse_answer_doc(doc: dict, field: PrimeField) -> Answer:
    return Answer(tuple(field.check(block) for block in doc["blocks"]))


def transcript_doc(
    params: ProblemParams,
    seed: int,
    result: RoundResult,
) -> dict:
    return {
        "params": params_doc(params),
        "seed": seed,
        "plan": plan_doc(params, result.layout.plan),
        "layout": layout_doc(result.layout),
        "query": query_doc(result.query),
        "answer": answer_doc(result.answer),
        "decoded": {str(idx): val for idx, val in sorted(result.decoded.items())},
    }


def posterior_doc(report: PosteriorReport, layout: Layout) -> dict:
    return {
        "layout": layout_doc(layout),
        "prior": frac_str(report.prior),
        "posteriors": {
            ",".join(str(i) for i in w): frac_str(p)
            for w, p in sorted(report.probabilities.items())
        },
        "max_deviation": frac_str(report.max_deviation),
        "uniform": report.uniform,
    }


def tvd_doc(report: TvdReport) -> dict:
    return {
        "tvd": frac_str(report.tvd),
        "trials": report.trials,
        "distinct_queries": report.distinct_queries,
        "null_mean": report.null_mean,
        "null_std": report.null_std,
        "consistent": report.consistent,
    }


# ---------------------------------------------------------------------------
# Database files


def write_db(stream, db: Database) -> None:
    stream.write(f"{DB_MAGIC} {DB_VERSION} p={db.field.p} k={db.k}\n")
    for value in db.values:
        stream.write(f"{value}\n")


def read_db(stream) -> Database:
    header = stream.readline().strip()
    parts = header.split()
    if (
        len(parts) != 4
        or parts[0] != DB_MAGIC
        or parts[1] != DB_VERSION
        or not parts[2].startswith("p=")
        or not parts[3].startswith("k=")
    ):
        raise ValueError(f"malformed database header: {header!r}")
    p = int(parts[2][2:])
    k = int(parts[3][2:])
    field = PrimeField(p)
    values = []
    for i in range(k):
        line = stream.readline()
        if not line:
            raise ValueError(f"database ends after {i} of {k} values")
        values.append(int(line))
    if stream.read():
        raise ValueError(f"database has data after its {k} values")
    return Database(tuple(values), field)


# ---------------------------------------------------------------------------
# The round over bytes


def serve_query_bytes(query_bytes: bytes, db: Database) -> bytes:
    """The server role: canonical query bytes in, canonical answer bytes out.

    This is the entire interface the server needs; it never sees demand or
    side-information structure.
    """
    doc = json.loads(query_bytes.decode("ascii"))
    query = parse_query_doc(doc)
    if query.field.p != db.field.p:
        raise ValueError(f"incompatible moduli: {query.field.p} vs {db.field.p}")
    answer = server_answer(query, db)
    return canonical(answer_doc(answer)).encode("ascii")


def simulate_round(
    params: ProblemParams,
    spec: DemandSpec,
    db: Database,
    rng: random.Random,
) -> RoundResult:
    """One full round with the query and the answer carried as canonical bytes.

    The client emits query bytes, the server role turns them into answer
    bytes, and the client decodes from the parsed answer.
    """
    if db.k != params.k:
        raise ValueError(f"database holds {db.k} messages, expected {params.k}")
    layout = build_layout(params, spec, rng)
    query = make_query(layout, db.field)
    answer_bytes = serve_query_bytes(canonical(query_doc(query)).encode("ascii"), db)
    answer = parse_answer_doc(json.loads(answer_bytes.decode("ascii")), db.field)
    decoded = client_decode(query, answer, spec)
    return RoundResult(layout, query, answer, decoded)
