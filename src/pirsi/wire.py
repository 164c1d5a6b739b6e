"""Canonical documents, the database file format, and the wire transport.

Every document is rendered as JSON with sorted keys and no insignificant
whitespace, so identical inputs always produce identical bytes.  Integers
stay decimal; exact rationals are rendered as "numerator/denominator"
strings.  Field moduli travel once per document header, never per element.

A query document (version 2) carries each block's support and row count
only; its coefficients are implied by (support, r, p), so the server
regenerates them.  Documents that cross to the server role or back are
checked strictly: one JSON document with unique keys, exact key sets,
exact ``int``s, and every range; any failure raises ValueError.

The client/server split is realised as two roles exchanging these
documents as bytes: the server role reads a query document and writes an
answer document, seeing nothing else.  ``simulate_round`` runs one whole
round through that interface.
"""

from __future__ import annotations

import json
import operator
import random
import re
from fractions import Fraction

from .field import PrimeField
from .privacy import PosteriorReport, TvdReport
from .rate import ProblemParams, RatePlan, UsageError
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
QUERY_VERSION = 2
# A malformed header is quoted up to this many characters: a file with no
# "\n" is all header.
HEADER_QUOTE_CAP = 64

_DECIMAL = "0|[1-9][0-9]*"
_DB_HEADER = re.compile(rf"{DB_MAGIC} {DB_VERSION} p=({_DECIMAL}) k=({_DECIMAL})")
_DB_VALUE = re.compile(_DECIMAL)
_DB_VALUES = re.compile(rf"(?:(?:{_DECIMAL})\n)*(?:{_DECIMAL})\n?")


def canonical(doc) -> str:
    """Canonical JSON text: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _not_ascii(what: str, err: UnicodeDecodeError) -> ValueError:
    return ValueError(
        f"{what} is not ASCII: byte 0x{err.object[err.start]:02x} at offset {err.start}"
    )


# ---------------------------------------------------------------------------
# Documents


def plan_doc(params: ProblemParams, plan: RatePlan) -> dict:
    return vars(params) | vars(plan) | {"l_star": plan.l_star, "r_star": plan.r_star}


def layout_doc(layout: Layout) -> dict:
    return {"subspaces": [list(block) for block in layout.subspaces]}


def query_doc(query: Query) -> dict:
    blocks = [{"support": list(block.support), "r": block.r} for block in query.blocks]
    return {"version": QUERY_VERSION, "p": query.field.p, "blocks": blocks}


def _require_keys(doc, keys: set, what: str) -> None:
    if type(doc) is not dict or doc.keys() != keys:
        got = sorted(doc) if type(doc) is dict else type(doc).__name__
        raise ValueError(f"{what} needs exactly the keys {sorted(keys)}, got {got}")


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def parse_query_doc(doc: dict) -> Query:
    """A version-2 query document as a Query, or ValueError.

    Requires exactly the keys version, p and blocks; a non-empty block list;
    exactly support and r per block; exact ints; supports strictly
    increasing from 1 up and pairwise disjoint; and 1 <= r <= len(support)
    <= p - 1.  Indices beyond the database are refused by the server.
    """
    _require_keys(doc, {"version", "p", "blocks"}, "query document")
    version = _int(doc["version"], "query version")
    if version != QUERY_VERSION:
        raise ValueError(f"unsupported query version {version}, expected {QUERY_VERSION}")
    field = PrimeField(_int(doc["p"], "modulus p"))
    raw_blocks = _list(doc["blocks"], "query blocks")
    if not raw_blocks:
        raise ValueError("query has no blocks")
    blocks = []
    seen: set[int] = set()
    for raw in raw_blocks:
        _require_keys(raw, {"support", "r"}, "query block")
        support = tuple(_list(raw["support"], "support"))
        if not set(map(type, support)) <= {int}:  # refuses bool and float too
            _int(next(idx for idx in support if type(idx) is not int), "support index")
        r = _int(raw["r"], "row count r")
        if not 1 <= r <= len(support) <= field.p - 1:
            raise ValueError(
                f"need 1 <= r <= len(support) <= p - 1, got r={r}, "
                f"len(support)={len(support)}, p={field.p}"
            )
        if support[0] < 1 or not all(map(operator.lt, support, support[1:])):
            raise ValueError(f"support must be strictly increasing indices >= 1, got {list(support)}")
        if not seen.isdisjoint(support):
            raise ValueError(f"supports overlap at {sorted(seen.intersection(support))}")
        seen.update(support)
        blocks.append(QueryBlock(support, r))
    return Query(tuple(blocks), field)


def answer_doc(answer: Answer) -> dict:
    return {"blocks": [list(block) for block in answer.blocks]}


def parse_answer_doc(doc: dict, field: PrimeField) -> Answer:
    """An answer document as an Answer of field values, or ValueError."""
    _require_keys(doc, {"blocks"}, "answer document")
    blocks = _list(doc["blocks"], "answer blocks")
    return Answer(tuple(field.check(_list(block, "answer block")) for block in blocks))


def transcript_doc(
    params: ProblemParams,
    seed: int,
    result: RoundResult,
) -> dict:
    return {
        "params": dict(vars(params)),
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


# No longer a total-variation distance; perfbench's traced privacy-mc replay needs this name.
def tvd_doc(report: TvdReport) -> dict:
    return dict(vars(report))


# ---------------------------------------------------------------------------
# Database files


# The program never calls this; perfbench's Rounds.prepare writes its database with it.
def write_db(stream, db: Database) -> None:
    stream.write(f"{DB_MAGIC} {DB_VERSION} p={db.field.p} k={db.k}\n")
    for value in db.values:
        stream.write(f"{value}\n")


def read_db(stream) -> Database:
    """A database file, or ValueError.

    The header and every value must be canonical decimals (no sign, no
    leading zeros, no spaces or underscores), one value per line, with
    k >= 1 values in [0, p) and nothing after the k-th.  The stream is read
    in one call, so a byte that an ASCII stream cannot decode is named with
    its offset in the file.
    """
    try:
        text = stream.read()
    except UnicodeDecodeError as err:
        raise _not_ascii("database file", err) from None
    header, _, body = text.partition("\n")
    match = _DB_HEADER.fullmatch(header)
    if match is None:
        cut = "…" if len(header) > HEADER_QUOTE_CAP else ""
        raise ValueError(f"malformed database header: {header[:HEADER_QUOTE_CAP]!r}{cut}")
    field = PrimeField(int(match[1]))
    k = int(match[2])
    if k < 1:
        raise ValueError("database needs k >= 1 values")
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < k:
        raise ValueError(f"database ends after {len(lines)} of {k} values")
    if len(lines) > k:
        raise ValueError(f"database has data after its {k} values")
    if _DB_VALUES.fullmatch(body) is None:
        bad = next(i for i, line in enumerate(lines) if _DB_VALUE.fullmatch(line) is None)
        raise ValueError(f"database value {bad + 1} is not a canonical decimal: {lines[bad]!r}")
    return Database(tuple(map(int, lines)), field)


# ---------------------------------------------------------------------------
# The round over bytes


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError(f"duplicate keys in {sorted(key for key, _ in pairs)}")
    return doc


def _read_doc(data: bytes, what: str):
    """Bytes from the other role as one JSON document with unique keys.

    Anything else, including bytes that are not ASCII or nesting too deep
    to parse, raises ValueError; plain ``json.loads`` would keep the last
    value of a repeated key.
    """
    try:
        return json.loads(data.decode("ascii"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as err:
        raise _not_ascii(what, err) from None
    except RecursionError:
        raise ValueError(f"{what} nests too deeply") from None


def serve_query_bytes(query_bytes: bytes, db: Database) -> bytes:
    """The server role: canonical query bytes in, canonical answer bytes out.

    This is the entire interface the server needs; it never sees demand or
    side-information structure.  Bytes that are not one JSON document with
    unique keys, including nesting too deep to parse, raise ValueError, as
    do a modulus other than the database's and indices beyond it
    (``server_answer`` checks those two).
    """
    query = parse_query_doc(_read_doc(query_bytes, "query document"))
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
        raise UsageError(f"database holds {db.k} messages, expected {params.k}")
    layout = build_layout(params, spec, rng)
    query = make_query(layout, db.field)
    answer_bytes = serve_query_bytes(canonical(query_doc(query)).encode("ascii"), db)
    answer = parse_answer_doc(_read_doc(answer_bytes, "answer document"), db.field)
    decoded = client_decode(query, answer, spec)
    return RoundResult(layout, query, answer, decoded)
